/**
 * @file
 * OLTP front-end study: the scenario from the paper's introduction — an
 * online transaction processing workload whose multi-megabyte
 * instruction working set defeats the L1-I and BTB.
 *
 * The example walks an OLTP workload through the full design-point
 * ladder and reports, per design, the paper's key metrics: speedup over
 * the baseline, BTB/L1-I MPKI, and the per-core area bill.
 *
 * Usage: oltp_frontend_study [db2|oracle]
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
    if (argc > 1 && std::string(argv[1]) == "oracle")
        workload = WorkloadId::OltpOracle;

    const RunScale scale = currentScale();
    const SystemConfig config = makeSystemConfig(scale.timingCores);

    std::printf("front-end design ladder on %s (%u core(s), "
                "%llu measured insts/core)\n\n",
                workloadName(workload).c_str(), scale.timingCores,
                static_cast<unsigned long long>(
                    scale.timingMeasureInsts));

    const std::vector<FrontendKind> ladder = {
        FrontendKind::Baseline,      FrontendKind::Fdp,
        FrontendKind::PhantomFdp,    FrontendKind::TwoLevelFdp,
        FrontendKind::PhantomShift,  FrontendKind::TwoLevelShift,
        FrontendKind::Confluence,    FrontendKind::IdealBtbShift,
        FrontendKind::Ideal,
    };

    Report report("OLTP front-end design ladder",
                  {"design", "IPC", "speedup", "BTB MPKI", "L1-I MPKI",
                   "area overhead", "rel. area"});

    double base_ipc = 0.0;
    for (const FrontendKind kind : ladder) {
        const CmpMetrics metrics = evaluateSweepPoint(
            {kind, workload, scale}, config, kDefaultCmpSeedBase);
        const double ipc = metrics.meanIpc();
        if (kind == FrontendKind::Baseline)
            base_ipc = ipc;
        report.addRow({
            frontendKindName(kind),
            Report::num(ipc, 3),
            Report::ratio(speedup(ipc, base_ipc)),
            Report::num(metrics.meanBtbMpki(), 1),
            Report::num(metrics.meanL1iMpki(), 1),
            Report::num(frontendOverheadMm2(kind, config), 2) + "mm2",
            Report::ratio(relativeArea(kind, config)),
        });
    }
    report.print();

    std::printf("\nper-structure storage bill for Confluence:\n");
    for (const StructureArea &s :
         frontendStructures(FrontendKind::Confluence, config)) {
        std::printf("  %-36s %6.1f KB dedicated, %5.2f mm2, "
                    "%6.1f KB in LLC\n",
                    s.name.c_str(), s.kiloBytes, s.mm2, s.llcKiloBytes);
    }
    return 0;
}
