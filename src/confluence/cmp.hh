/**
 * @file
 * CMP timing simulation: N cores ticked in lockstep around a shared LLC
 * and shared prefetcher metadata (Section 4.1: a tiled sixteen-core
 * server processor; one instruction stream per core).
 *
 * Core 0 is the SHIFT history generator; all cores replay the shared
 * history (Section 3.4). Each core runs its own ExecEngine instance of
 * the same program with a distinct seed, modeling cores serving
 * independent request streams of one workload.
 */

#ifndef CFL_CONFLUENCE_CMP_HH
#define CFL_CONFLUENCE_CMP_HH

#include <memory>
#include <vector>

#include "confluence/factory.hh"
#include "sim/sampling.hh"

namespace cfl
{

/** Per-core timing metrics from a CMP run. */
struct CoreMetrics
{
    Counter retired = 0;
    Cycle cycles = 0;
    Counter btbTakenLookups = 0;
    Counter btbTakenMisses = 0;
    Counter misfetches = 0;
    Counter condMispredicts = 0;
    Counter l1iDemandFetches = 0;
    Counter l1iDemandMisses = 0;
    Counter l1iInFlightHits = 0;
    Counter btbL2StallCycles = 0;
    Counter fetchMissStallCycles = 0;

    double ipc() const
    {
        return cycles == 0 ? 0.0
                           : static_cast<double>(retired) / cycles;
    }
    double btbMpki() const
    {
        return retired == 0 ? 0.0 : 1000.0 * btbTakenMisses / retired;
    }
    double l1iMpki() const
    {
        return retired == 0 ? 0.0 : 1000.0 * l1iDemandMisses / retired;
    }
};

/** Whole-CMP metrics. */
struct CmpMetrics
{
    std::vector<CoreMetrics> cores;

    /**
     * Per-metric confidence estimators of a sampled run (one
     * observation per measured interval); empty after an exact run.
     * The counters in `cores` always hold the union of the measured
     * windows, so meanIpc() etc. are point estimates either way.
     */
    SampleEstimates sampling;

    double meanIpc() const;
    double meanBtbMpki() const;
    double meanL1iMpki() const;
    Counter totalRetired() const;
};

/** Seed base Cmp uses when the caller does not supply one. */
inline constexpr std::uint64_t kDefaultCmpSeedBase = 0xc0fe;

/** A CMP running one workload under one front-end design. */
class Cmp
{
  public:
    /**
     * @param seed_base base of the per-core ExecEngine seeds. Equal
     *        bases give bit-identical runs; sweep points derive theirs
     *        deterministically from the point coordinates.
     */
    Cmp(FrontendKind kind, WorkloadId workload, const SystemConfig &config,
        std::uint64_t seed_base = kDefaultCmpSeedBase);

    /**
     * Run @p warmup_insts then measure @p measure_insts retired
     * instructions per core; returns per-core and aggregate metrics.
     * Exactly prepareTraces(w + m); runWarmup(w); runMeasurement(m);
     * return collectMetrics().
     */
    CmpMetrics run(Counter warmup_insts, Counter measure_insts);

    /**
     * SMARTS-style sampled equivalent of run(): the same instruction
     * budget, but only short detailed intervals are cycle-simulated.
     * The gaps are covered by functional fast-forward (branch history,
     * BTB, and cache state advance; no timing), each interval is
     * preceded by spec.detailedWarmupInsts of detailed warmup, and each
     * interval contributes one observation to the returned estimators
     * (metrics.sampling). The interval schedule is a pure function of
     * (spec, seed base), so sampled runs are bit-reproducible; they are
     * *not* bit-comparable to exact runs — that is what the estimators'
     * confidence intervals are for.
     */
    CmpMetrics runSampled(Counter warmup_insts, Counter measure_insts,
                          const SamplingSpec &spec);

    // Stepping API: run() split into its four phases so sweep drivers
    // (sim/sweep.cc) and profilers can drive and time each phase of a
    // point. Calling the four phases in order is bit-identical to run().

    /**
     * Predecode phase: give each core's engine a trace sized for
     * @p total_insts retired instructions — the shared one the trace
     * cache serves, or a private one when the cache turns the lookup
     * away. Engines that already hold a trace (e.g. one a caller
     * attached directly) are left alone, so pre-attaching a longer or
     * shorter shared buffer is safe: results do not depend on
     * trace-buffer length, only on the generated stream.
     */
    void prepareTraces(Counter total_insts);

    /** Warm caches, predictors, and prefetcher history for
     *  @p warmup_insts retired instructions per core. */
    void runWarmup(Counter warmup_insts);

    /** Reset measurement counters, then run @p measure_insts retired
     *  instructions per core. */
    void runMeasurement(Counter measure_insts);

    /** Extract per-core metrics for the measured window. */
    CmpMetrics collectMetrics();

    CoreSim &core(unsigned i) { return *cores_[i]; }
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }
    Llc &llc() { return *llc_; }

    /** A core's cycle step, measurement and fast-forward loops, with
     *  its BTB's concrete type baked in (see Frontend::tickImpl,
     *  runUntil and fastForward). */
    struct TypedCore
    {
        void (*tick)(Frontend &);
        void (*run)(Frontend &, Counter target);
        void (*skip)(Frontend &, Counter insts);
    };

  private:
    /** Tick every core until core c retires @p targets[c]. */
    void runToTargets(const std::vector<Counter> &targets);

    /** Detailed-simulate @p delta more retired instructions per core
     *  from wherever each core currently stands. */
    void runDetailedDelta(Counter delta);

    /** Functionally fast-forward every core by @p delta instructions
     *  (see Frontend::fastForward). */
    void fastForwardAll(Counter delta);

    SystemConfig config_;
    WorkloadId workload_;
    std::uint64_t seedBase_;
    std::unique_ptr<Llc> llc_;
    std::unique_ptr<ShiftHistory> shiftHistory_;
    SharedState shared_;
    std::vector<std::unique_ptr<CoreSim>> cores_;
    std::vector<TypedCore> typed_; ///< one per core, resolved once
};

} // namespace cfl

#endif // CFL_CONFLUENCE_CMP_HH
