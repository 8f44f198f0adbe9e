/**
 * @file
 * BTB design-space exploration with the public AirBTB API: sweeps the
 * bundle size and overflow-buffer depth beyond the paper's Figure 10
 * grid and reports miss coverage against the storage each configuration
 * costs — the trade-off a front-end architect would actually study.
 * All design points fan out across the parallel sweep engine.
 *
 * Usage: btb_design_space [workload-slug]   (default web_frontend; an
 *        unknown slug is fatal)
 */

#include <cstdio>
#include <string>

#include "area/area_model.hh"
#include "common/report.hh"
#include "sim/metrics.hh"
#include "sim/sweep.hh"

using namespace cfl;

int
main(int argc, char **argv)
{
    const WorkloadId workload =
        argc > 1 ? workloadFromSlug(argv[1]) : WorkloadId::WebFrontend;

    const RunScale scale = currentScale();
    FunctionalConfig fc = functionalConfigFromScale(scale);
    const SystemConfig config = makeSystemConfig(1);

    struct GridPoint
    {
        unsigned bundleEntries;
        unsigned overflowEntries;
    };
    std::vector<GridPoint> grid;
    for (const unsigned b : {1u, 2u, 3u, 4u, 6u})
        for (const unsigned ob : {0u, 32u, 64u})
            grid.push_back({b, ob});

    // Point 0 is the 1K-entry baseline; the rest is the AirBTB grid.
    SweepEngine engine;
    const auto results =
        sweepMap(engine, 1 + grid.size(), [&](std::size_t t) {
            if (t == 0)
                return runConventionalBtbStudy(workload, 1024, 4, 64, true,
                                               fc);
            const GridPoint p = grid[t - 1];
            FunctionalSetup setup;
            setup.useL1I = true;
            setup.useShift = true;
            return runFunctionalStudy(
                       workload, setup, config, fc,
                       [&](const Program &program, const Predecoder &pre) {
                           AirBtbParams ap;
                           ap.branchEntries = p.bundleEntries;
                           ap.overflowEntries = p.overflowEntries;
                           return std::make_unique<AirBtb>(
                               ap, program.image, pre);
                       });
        });

    const FunctionalResult &base = results[0];
    std::printf("workload: %s — baseline 1K-entry BTB: %.1f MPKI\n\n",
                workloadName(workload).c_str(), base.btbMpki());

    Report report("AirBTB design space (coverage vs storage)",
                  {"bundle entries", "overflow", "storage", "mm2",
                   "BTB MPKI", "misses eliminated"});

    for (std::size_t i = 0; i < grid.size(); ++i) {
        const GridPoint p = grid[i];
        const FunctionalResult &r = results[1 + i];
        const double kb = AreaModel::airBtbKb(512, 4, p.bundleEntries,
                                              p.overflowEntries);
        report.addRow({
            std::to_string(p.bundleEntries),
            std::to_string(p.overflowEntries),
            Report::num(kb, 1) + "KB",
            Report::num(AreaModel::mm2ForKb(kb), 3),
            Report::num(r.btbMpki(), 1),
            Report::pct(missCoverage(r.btbMisses, base.btbMisses), 1),
        });
    }
    report.print();
    std::printf("\nThe paper's final design is B:3, OB:32 "
                "(Section 5.3): past it, storage grows faster than "
                "coverage.\n");
    return 0;
}
