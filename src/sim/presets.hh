/**
 * @file
 * System presets (Table 1) and run-scale knobs.
 *
 * The paper simulates a 16-core CMP with SimFlex sampling. Our default
 * bench scale runs fewer cores and a few million instructions per point
 * so the whole harness finishes in minutes; the 16-core Table-1 preset
 * is available for full-fidelity runs. Scale can be overridden with the
 * CONFLUENCE_SCALE environment variable ("quick", "default", "full").
 */

#ifndef CFL_SIM_PRESETS_HH
#define CFL_SIM_PRESETS_HH

#include "area/area_model.hh"
#include "confluence/factory.hh"
#include "core/functional.hh"
#include "sim/sampling.hh"

namespace cfl
{

/** Instruction budgets for one experiment point. */
struct RunScale
{
    Counter timingWarmupInsts = 1'500'000;
    Counter timingMeasureInsts = 1'000'000;
    unsigned timingCores = 2;
    Counter functionalWarmupInsts = 3'000'000;
    Counter functionalMeasureInsts = 5'000'000;
};

/** Table 1 system configuration scaled to @p num_cores. */
SystemConfig makeSystemConfig(unsigned num_cores);

/** The paper's full 16-core configuration. */
SystemConfig paperSystemConfig();

/** Scale preset by name ("quick", "default", "full"); fatal() on an
 *  unknown name. */
RunScale scaleByName(const std::string &name);

/** Current run scale: CONFLUENCE_SCALE through scaleByName(), the
 *  default scale when it is unset or empty. */
RunScale currentScale();

/** FunctionalConfig derived from the current scale. */
FunctionalConfig functionalConfigFromScale(const RunScale &scale);

/**
 * Sampling plan matched to @p scale: ~16 measured intervals of 2k
 * instructions across the measure budget, each preceded by 4k of
 * detailed warmup. Tuned on the quick fig06 grid so every metric's
 * 95% CI covers the exact value. `perf_harness --sampled` asserts that
 * coverage and a per-point speedup over exact simulation of at least
 * `--min-sampled-speedup` (3.0x in CI; 3.3-4.2x measured on a 4-vCPU
 * host).
 */
SamplingSpec defaultSamplingSpec(const RunScale &scale);

/** Per-core area overhead (dedicated mm²) of a design point. */
double frontendOverheadMm2(FrontendKind kind, const SystemConfig &config);

/** Relative per-core area versus the baseline front end (Figs. 2/6). */
double relativeArea(FrontendKind kind, const SystemConfig &config);

/** Dedicated + virtualized storage inventory of a design point. */
std::vector<StructureArea> frontendStructures(FrontendKind kind,
                                              const SystemConfig &config);

} // namespace cfl

#endif // CFL_SIM_PRESETS_HH
