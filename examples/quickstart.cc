/**
 * @file
 * Quickstart: simulate one server workload under the baseline front end
 * and under Confluence, and print the headline metrics side by side.
 *
 * Build & run:
 *   cmake -B build -S . && cmake --build build -j
 *   ./build/quickstart [workload-slug]   (default oltp_db2; an unknown
 *                                         slug is fatal)
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
    const WorkloadId workload =
        argc > 1 ? workloadFromSlug(argv[1]) : WorkloadId::OltpDb2;

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
