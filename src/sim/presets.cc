#include "sim/presets.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace cfl
{

SystemConfig
makeSystemConfig(unsigned num_cores)
{
    // The machine is always the paper's 16-core CMP (8MB NUCA LLC over a
    // 4x4 mesh); num_cores only selects how many of its cores we
    // simulate. Keeping the LLC/NoC fixed preserves the fill latencies
    // and capacity behaviour of the full machine at reduced cost.
    SystemConfig cfg;
    cfg.numCores = num_cores;
    cfg.llc.numCores = 16;
    return cfg;
}

SystemConfig
paperSystemConfig()
{
    return makeSystemConfig(16);
}

RunScale
scaleByName(const std::string &name)
{
    // Warmup must touch the workload's full instruction working set (a
    // few hundred requests) so measured misses are recurrence misses,
    // not compulsory cold misses — the regime the paper measures from
    // warmed SimFlex checkpoints.
    RunScale scale;
    if (name == "default")
        return scale;
    if (name == "quick") {
        scale.timingWarmupInsts = 800'000;
        scale.timingMeasureInsts = 400'000;
        scale.timingCores = 1;
        scale.functionalWarmupInsts = 1'000'000;
        scale.functionalMeasureInsts = 2'000'000;
        return scale;
    }
    if (name == "full") {
        scale.timingWarmupInsts = 3'000'000;
        scale.timingMeasureInsts = 3'000'000;
        scale.timingCores = 16;
        scale.functionalWarmupInsts = 8'000'000;
        scale.functionalMeasureInsts = 16'000'000;
        return scale;
    }
    cfl_fatal("unknown scale \"%s\" (expected quick, default, or full)",
              name.c_str());
}

RunScale
currentScale()
{
    const char *env = std::getenv("CONFLUENCE_SCALE");
    if (env == nullptr || *env == '\0')
        return RunScale{};
    return scaleByName(env);
}

FunctionalConfig
functionalConfigFromScale(const RunScale &scale)
{
    FunctionalConfig cfg;
    cfg.warmupInsts = scale.functionalWarmupInsts;
    cfg.measureInsts = scale.functionalMeasureInsts;
    return cfg;
}

SamplingSpec
defaultSamplingSpec(const RunScale &scale)
{
    SamplingSpec spec;
    spec.intervalInsts = 2'000;
    spec.detailedWarmupInsts = 4'000;
    // ~16 intervals across the measure budget, never tighter than the
    // detailed window itself (tiny budgets degenerate to back-to-back
    // intervals rather than an invalid spec).
    spec.periodInsts =
        std::max<Counter>(scale.timingMeasureInsts / 16,
                          spec.intervalInsts + spec.detailedWarmupInsts);
    spec.rngStream = 1;
    return spec;
}

std::vector<StructureArea>
frontendStructures(FrontendKind kind, const SystemConfig &config)
{
    std::vector<StructureArea> out;

    auto add_dedicated = [&out](std::string name, double kb) {
        out.push_back({std::move(name), kb, AreaModel::mm2ForKb(kb), 0.0});
    };

    switch (kind) {
      case FrontendKind::Baseline:
      case FrontendKind::Fdp:
        add_dedicated("conv BTB 1K + victim",
                      AreaModel::conventionalBtbKb(
                          config.baselineBtb.entries,
                          config.baselineBtb.ways,
                          config.baselineBtb.victimEntries));
        break;

      case FrontendKind::PhantomFdp:
      case FrontendKind::PhantomShift:
        add_dedicated("Phantom L1 BTB + prefetch buffer",
                      AreaModel::conventionalBtbKb(
                          config.phantom.l1Entries, config.phantom.l1Ways,
                          config.phantom.prefetchBufferEntries));
        out.push_back({"Phantom temporal groups (LLC)", 0.0, 0.0,
                       config.phantom.numGroups * kBlockBytes / 1024.0});
        break;

      case FrontendKind::TwoLevelFdp:
      case FrontendKind::TwoLevelShift:
        add_dedicated("2Level L1 BTB",
                      AreaModel::conventionalBtbKb(
                          config.twoLevel.l1Entries,
                          config.twoLevel.l1Ways, 0));
        add_dedicated("2Level L2 BTB",
                      AreaModel::conventionalBtbKb(
                          config.twoLevel.l2Entries,
                          config.twoLevel.l2Ways, 0));
        break;

      case FrontendKind::IdealBtbShift:
        add_dedicated("conv BTB 16K (1-cycle)",
                      AreaModel::conventionalBtbKb(
                          config.idealBtb.entries, config.idealBtb.ways,
                          config.idealBtb.victimEntries));
        break;

      case FrontendKind::Confluence:
        add_dedicated("AirBTB",
                      AreaModel::airBtbKb(config.air.bundles,
                                          config.air.ways,
                                          config.air.branchEntries,
                                          config.air.overflowEntries));
        break;

      case FrontendKind::Ideal:
        // Perfect structures: no realizable storage; report the baseline
        // budget so the Ideal point sits at relative area ~1.0.
        add_dedicated("perfect BTB (placeholder)",
                      AreaModel::conventionalBtbKb(
                          config.baselineBtb.entries,
                          config.baselineBtb.ways,
                          config.baselineBtb.victimEntries));
        break;
    }

    if (usesShift(kind)) {
        out.push_back(
            {"SHIFT index (LLC tag extension)", 0.0,
             AreaModel::shiftPerCoreMm2(config.areaAmortizationCores),
             0.0});
        out.push_back({"SHIFT history buffer (LLC)", 0.0, 0.0,
                       config.shift.historyLlcBytes() / 1024.0});
    }
    return out;
}

double
frontendOverheadMm2(FrontendKind kind, const SystemConfig &config)
{
    double mm2 = 0.0;
    for (const StructureArea &s : frontendStructures(kind, config))
        mm2 += s.mm2;
    return mm2;
}

double
relativeArea(FrontendKind kind, const SystemConfig &config)
{
    const double baseline =
        AreaModel::kCoreAreaMm2 +
        frontendOverheadMm2(FrontendKind::Baseline, config);
    const double design =
        AreaModel::kCoreAreaMm2 + frontendOverheadMm2(kind, config);
    return design / baseline;
}

} // namespace cfl
