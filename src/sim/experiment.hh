/**
 * @file
 * Functional experiment runners used by the per-figure bench binaries.
 *
 * Two kinds of experiments reproduce the paper:
 *  - timing comparisons (Figures 2, 6, 7): full CMP cycle simulation of
 *    a front-end design, normalized to the Baseline design; each design
 *    and workload is one sweep point (sim/sweep.hh);
 *  - functional coverage studies (Figures 1, 8, 9, 10; Table 2): BTB and
 *    L1-I hit/miss behaviour over the oracle stream, with optional
 *    functional SHIFT prefetching (timing-free), run here.
 */

#ifndef CFL_SIM_EXPERIMENT_HH
#define CFL_SIM_EXPERIMENT_HH

#include <functional>
#include <memory>

#include "confluence/cmp.hh"
#include "core/functional.hh"
#include "sim/presets.hh"

namespace cfl
{

/**
 * Functional front-end environment for coverage studies: builds the
 * engine, optional L1-I + LLC, optional functional SHIFT, wires the
 * caller's BTB, and runs the FunctionalDriver.
 */
struct FunctionalSetup
{
    bool useL1I = true;
    bool useShift = false;
    /** Oracle-stream engine seed; a pure per-point value keeps
     *  functional sweeps deterministic under parallel execution. */
    std::uint64_t engineSeed = 0xfeed;
    /** Override AirBTB-style params etc. by building your own Btb. */
};

/**
 * Run a functional study of @p btb on @p workload.
 *
 * @param btb_factory builds the BTB once the predecoder/LLC exist; it
 *        receives (program, predecoder, core_id) and must return the BTB.
 */
FunctionalResult
runFunctionalStudy(WorkloadId workload, const FunctionalSetup &setup,
                   const SystemConfig &config,
                   const FunctionalConfig &fconfig,
                   const std::function<std::unique_ptr<Btb>(
                       const Program &, const Predecoder &)> &btb_factory);

/** Convenience: functional study of a conventional BTB of @p entries. */
FunctionalResult
runConventionalBtbStudy(WorkloadId workload, std::size_t entries,
                        unsigned ways, unsigned victim_entries,
                        bool with_l1i, const FunctionalConfig &fconfig);

} // namespace cfl

#endif // CFL_SIM_EXPERIMENT_HH
