/**
 * @file
 * Quickstart: simulate one server workload under the baseline front end
 * and under Confluence, and print the headline metrics side by side.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [workload-slug]
 */

#include <cstdio>
#include <string>

#include "common/report.hh"
#include "sim/metrics.hh"
#include "sim/sweep.hh"

using namespace cfl;

int
main(int argc, char **argv)
{
    WorkloadId workload = WorkloadId::OltpDb2;
    if (argc > 1) {
        const std::string want = argv[1];
        bool found = false;
        for (const WorkloadId id : allWorkloads()) {
            if (workloadSlug(id) == want) {
                workload = id;
                found = true;
            }
        }
        if (!found) {
            std::fprintf(stderr, "unknown workload '%s'\n", want.c_str());
            std::fprintf(stderr, "available:");
            for (const WorkloadId id : allWorkloads())
                std::fprintf(stderr, " %s", workloadSlug(id).c_str());
            std::fprintf(stderr, "\n");
            return 1;
        }
    }

    const RunScale scale = currentScale();
    const SystemConfig config = makeSystemConfig(scale.timingCores);

    std::printf("workload: %s\n", workloadName(workload).c_str());
    const Program &program = workloadProgram(workload);
    std::printf("  code image: %.1f KB, %zu functions, "
                "%zu static branches (%.2f per 64B block)\n\n",
                program.image.sizeBytes() / 1024.0,
                program.functions.size(), program.numStaticBranches(),
                program.staticBranchDensity());

    Report report("Baseline vs Confluence",
                  {"metric", "baseline (1K BTB, no prefetch)",
                   "Confluence (AirBTB + SHIFT)"});

    const CmpMetrics b = evaluateSweepPoint(
        {FrontendKind::Baseline, workload, scale}, config,
        kDefaultCmpSeedBase);
    const CmpMetrics c = evaluateSweepPoint(
        {FrontendKind::Confluence, workload, scale}, config,
        kDefaultCmpSeedBase);
    report.addRow({"IPC", Report::num(b.meanIpc(), 3),
                   Report::num(c.meanIpc(), 3)});
    report.addRow({"BTB MPKI", Report::num(b.meanBtbMpki(), 1),
                   Report::num(c.meanBtbMpki(), 1)});
    report.addRow({"L1-I MPKI", Report::num(b.meanL1iMpki(), 1),
                   Report::num(c.meanL1iMpki(), 1)});
    report.addRow({"speedup", "1.000x",
                   Report::ratio(speedup(c.meanIpc(), b.meanIpc()))});
    report.addRow(
        {"relative core area",
         Report::ratio(relativeArea(FrontendKind::Baseline, config)),
         Report::ratio(relativeArea(FrontendKind::Confluence, config))});
    report.print();

    return 0;
}
