/**
 * @file
 * Workload & front-end inspector: prints the static properties of a
 * synthetic workload and a detailed stat dump of one timing run.
 *
 * Usage: workload_inspector [workload-slug] [frontend-slug]
 *   workload-slug: dss_qry oltp_db2 oltp_oracle media_streaming
 *                  web_frontend (default oltp_db2)
 *   frontend-slug: the kind slugs every tool takes — baseline fdp
 *                  phantom_fdp two_level_fdp phantom_shift
 *                  two_level_shift ideal_btb_shift confluence ideal
 *                  (default baseline)
 * An unknown slug is fatal (exit 1).
 */

#include <cstdio>
#include <string>

#include "sim/experiment.hh"

using namespace cfl;

namespace
{

void
dumpStats(const char *title, const StatSet &stats)
{
    std::printf("  [%s]\n", title);
    for (const auto &[name, value] : stats.dump()) {
        std::printf("    %-32s %12llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const WorkloadId workload =
        argc > 1 ? workloadFromSlug(argv[1]) : WorkloadId::OltpDb2;
    const FrontendKind kind =
        argc > 2 ? frontendKindFromSlug(argv[2]) : FrontendKind::Baseline;

    const Program &program = workloadProgram(workload);
    std::printf("workload %s: image %.1fKB, %zu blocks, %zu functions, "
                "%zu static branches, density %.2f/block, "
                "%u request types\n",
                workloadName(workload).c_str(),
                program.image.sizeBytes() / 1024.0,
                program.image.numBlocks(), program.functions.size(),
                program.numStaticBranches(),
                program.staticBranchDensity(), program.numRequestTypes);

    const RunScale scale = currentScale();
    const SystemConfig cfg = makeSystemConfig(scale.timingCores);
    Cmp cmp(kind, workload, cfg);
    const CmpMetrics metrics =
        cmp.run(scale.timingWarmupInsts, scale.timingMeasureInsts);

    std::printf("\n%s on %s: IPC %.3f, BTB MPKI %.1f, L1-I MPKI %.1f\n\n",
                frontendKindName(kind).c_str(),
                workloadName(workload).c_str(), metrics.meanIpc(),
                metrics.meanBtbMpki(), metrics.meanL1iMpki());

    CoreSim &core = cmp.core(0);
    dumpStats("bpu", core.bpu().stats());
    dumpStats("frontend", core.frontend().stats());
    dumpStats("btb", core.btb().stats());
    dumpStats("instmem", core.mem().stats());
    if (core.prefetcher() != nullptr)
        dumpStats("prefetcher", core.prefetcher()->stats());
    return 0;
}
