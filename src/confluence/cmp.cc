#include "confluence/cmp.hh"

#include "btb/ideal_btb.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/trace_cache.hh"

namespace cfl
{

namespace
{

template <typename BtbT>
void
tickTyped(Frontend &fe)
{
    fe.tickImpl<BtbT>();
}

template <typename BtbT>
void
runTyped(Frontend &fe, Counter target)
{
    fe.runUntil<BtbT>(target);
}

template <typename BtbT>
void
skipTyped(Frontend &fe, Counter insts)
{
    fe.fastForward<BtbT>(insts);
}

template <typename BtbT>
constexpr Cmp::TypedCore kTypedCore{&tickTyped<BtbT>, &runTyped<BtbT>,
                                    &skipTyped<BtbT>};

/**
 * Resolve the typed step and loops for a core's actual BTB. The
 * compile-time table covers every type the factory builds; a BTB none
 * of the casts recognize (e.g. a test double) falls back to the
 * virtual-dispatch instantiation, which is bit-identical, just slower.
 */
Cmp::TypedCore
typedCore(const Btb &btb)
{
    if (dynamic_cast<const ConventionalBtb *>(&btb) != nullptr)
        return kTypedCore<ConventionalBtb>;
    if (dynamic_cast<const TwoLevelBtb *>(&btb) != nullptr)
        return kTypedCore<TwoLevelBtb>;
    if (dynamic_cast<const PhantomBtb *>(&btb) != nullptr)
        return kTypedCore<PhantomBtb>;
    if (dynamic_cast<const AirBtb *>(&btb) != nullptr)
        return kTypedCore<AirBtb>;
    if (dynamic_cast<const PerfectBtb *>(&btb) != nullptr)
        return kTypedCore<PerfectBtb>;
    return kTypedCore<Btb>;
}

/** Sum @p add's counters into @p into (sampled runs aggregate the
 *  measured intervals' counters into one union window). */
void
accumulateCore(CoreMetrics &into, const CoreMetrics &add)
{
    into.retired += add.retired;
    into.cycles += add.cycles;
    into.btbTakenLookups += add.btbTakenLookups;
    into.btbTakenMisses += add.btbTakenMisses;
    into.misfetches += add.misfetches;
    into.condMispredicts += add.condMispredicts;
    into.l1iDemandFetches += add.l1iDemandFetches;
    into.l1iDemandMisses += add.l1iDemandMisses;
    into.l1iInFlightHits += add.l1iInFlightHits;
    into.btbL2StallCycles += add.btbL2StallCycles;
    into.fetchMissStallCycles += add.fetchMissStallCycles;
}

} // namespace

double
CmpMetrics::meanIpc() const
{
    if (cores.empty())
        return 0.0;
    double sum = 0.0;
    for (const CoreMetrics &c : cores)
        sum += c.ipc();
    return sum / cores.size();
}

double
CmpMetrics::meanBtbMpki() const
{
    if (cores.empty())
        return 0.0;
    double sum = 0.0;
    for (const CoreMetrics &c : cores)
        sum += c.btbMpki();
    return sum / cores.size();
}

double
CmpMetrics::meanL1iMpki() const
{
    if (cores.empty())
        return 0.0;
    double sum = 0.0;
    for (const CoreMetrics &c : cores)
        sum += c.l1iMpki();
    return sum / cores.size();
}

Counter
CmpMetrics::totalRetired() const
{
    Counter sum = 0;
    for (const CoreMetrics &c : cores)
        sum += c.retired;
    return sum;
}

Cmp::Cmp(FrontendKind kind, WorkloadId workload, const SystemConfig &config,
         std::uint64_t seed_base)
    : config_(config), workload_(workload), seedBase_(seed_base)
{
    cfl_assert(config.numCores > 0, "CMP needs >= 1 core");
    const Program &program = workloadProgram(workload);
    const WorkloadParams wparams = workloadParams(workload);

    llc_ = std::make_unique<Llc>(config.llc, llcReservedBytes(kind, config_));

    // Latency-dependent metadata parameters derive from the actual LLC.
    config_.phantom.llcLatency = llc_->hitLatency();
    config_.shift.historyReadLatency = llc_->hitLatency();

    shared_.llc = llc_.get();
    if (usesShift(kind)) {
        shiftHistory_ = std::make_unique<ShiftHistory>(config_.shift);
        shared_.shiftHistory = shiftHistory_.get();
    }
    if (usesPhantom(kind)) {
        shared_.phantomHistory =
            std::make_shared<PhantomSharedHistory>(config_.phantom);
    }

    for (unsigned c = 0; c < config.numCores; ++c) {
        const std::uint64_t seed = seed_base + 0x1000ull * c;
        cores_.push_back(std::make_unique<CoreSim>(
            kind, program, wparams, config_, shared_, c, seed,
            /*recorder=*/c == 0));
        typed_.push_back(typedCore(cores_.back()->btb()));
    }
}

void
Cmp::runToTargets(const std::vector<Counter> &targets)
{
    if (cores_.size() == 1) {
        // One core leaves no cross-core LLC interleaving to preserve,
        // so the whole loop can skip quiet windows (Frontend::runUntil).
        typed_[0].run(cores_[0]->frontend(), targets[0]);
        return;
    }

    // Lockstep round-robin: one cycle per core per global cycle
    // (Section 4.1's round-robin interleaving).
    while (true) {
        bool any_running = false;
        for (std::size_t c = 0; c < cores_.size(); ++c) {
            Frontend &fe = cores_[c]->frontend();
            if (fe.measuredRetired() < targets[c]) {
                typed_[c].tick(fe);
                any_running = true;
            }
        }
        if (!any_running)
            return;
    }
}

void
Cmp::prepareTraces(Counter total_insts)
{
    // The BPU walks the oracle stream ahead of retirement by at most the
    // fetch queue, the in-progress region and the decode buffer; 4K
    // instructions of slack covers that many times over. An undersized
    // buffer would still be correct (the engine regenerates a longer
    // private one), just slower.
    constexpr Counter kOracleSlack = 4096;
    for (unsigned c = 0; c < numCores(); ++c) {
        ExecEngine &engine = cores_[c]->engine();
        if (engine.hasTrace())
            continue;  // attached by the caller, or mid-run reuse
        auto trace = traceCache().acquire(
            workload_, seedBase_ + 0x1000ull * c,
            total_insts + kOracleSlack);
        if (trace != nullptr)
            engine.attachTrace(std::move(trace));
        else
            engine.cursor(total_insts + kOracleSlack);  // private trace
    }
}

void
Cmp::runWarmup(Counter warmup_insts)
{
    if (warmup_insts > 0)
        runToTargets(std::vector<Counter>(cores_.size(), warmup_insts));
}

void
Cmp::runMeasurement(Counter measure_insts)
{
    for (auto &core : cores_)
        core->beginMeasurement();

    runToTargets(std::vector<Counter>(cores_.size(), measure_insts));
}

CmpMetrics
Cmp::collectMetrics()
{
    CmpMetrics out;
    for (auto &core : cores_) {
        CoreMetrics m;
        const Frontend &fe = core->frontend();
        const StatSet &bpu = core->bpu().stats();
        const StatSet &mem = core->mem().stats();
        m.retired = fe.measuredRetired();
        m.cycles = fe.measuredCycles();
        m.btbTakenLookups = bpu.get("takenBranchLookups");
        m.btbTakenMisses = bpu.get("btbTakenMisses");
        m.misfetches = bpu.get("misfetches");
        m.condMispredicts = bpu.get("condMispredicts");
        m.l1iDemandFetches = mem.get("demandFetches");
        m.l1iDemandMisses = mem.get("demandMisses");
        m.l1iInFlightHits = mem.get("demandInFlightHits");
        m.btbL2StallCycles = bpu.get("btbLevel2StallCycles");
        m.fetchMissStallCycles =
            fe.stats().get("fetchMissStallCycles");
        out.cores.push_back(m);
    }
    return out;
}

CmpMetrics
Cmp::run(Counter warmup_insts, Counter measure_insts)
{
    prepareTraces(warmup_insts + measure_insts);
    runWarmup(warmup_insts);
    runMeasurement(measure_insts);
    return collectMetrics();
}

void
Cmp::runDetailedDelta(Counter delta)
{
    if (delta == 0)
        return;
    // Per-core targets: positions drift apart because fast-forward
    // never splits a fetch region.
    std::vector<Counter> targets(cores_.size());
    for (std::size_t c = 0; c < cores_.size(); ++c)
        targets[c] = cores_[c]->frontend().measuredRetired() + delta;
    runToTargets(targets);
}

void
Cmp::fastForwardAll(Counter delta)
{
    // Stream distance closer to the next measured interval than this
    // always crosses the full-fidelity fastForward path. The touch tier
    // keeps content and per-branch predictor state warm, but not what
    // only real lookups produce: first-level BTB recency, prefetch
    // engine streams and error rates, and in-flight fill timing. This
    // window rebuilds those; shrinking it below ~6k re-biases the
    // FDP-paired points (the error EWMA integrates the residual relearn
    // transient over ~20k instructions).
    constexpr Counter kPredictorWarmInsts = 6'000;

    // Stream distance beyond this (plus the full-fidelity window) is
    // skipped outright, with no warming at all: the touch window
    // re-installs every block the skipped stretch would have (the
    // instruction working set cycles much faster than this), and the
    // SHIFT history ring's reach is far shorter, so the recorded
    // metadata the touch window writes is what the skipped stretch
    // would have left behind anyway.
    constexpr Counter kTouchWarmInsts = 256'000;

    if (delta == 0)
        return;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        Frontend &fe = cores_[c]->frontend();
        Counter remaining = delta;
        if (remaining > kTouchWarmInsts + kPredictorWarmInsts) {
            fe.fastForwardSkip(remaining - kTouchWarmInsts -
                               kPredictorWarmInsts);
            remaining = kTouchWarmInsts + kPredictorWarmInsts;
        }
        if (remaining > kPredictorWarmInsts) {
            const Counter touched =
                fe.fastForwardTouch(remaining - kPredictorWarmInsts);
            remaining = touched < remaining ? remaining - touched : 0;
        }
        if (remaining > 0)
            typed_[c].skip(fe, remaining);
    }
}

CmpMetrics
Cmp::runSampled(Counter warmup_insts, Counter measure_insts,
                const SamplingSpec &spec)
{
    cfl_assert(spec.enabled(), "runSampled with a disabled SamplingSpec");
    cfl_assert(spec.intervalInsts > 0, "sampling interval must be > 0");
    cfl_assert(spec.periodInsts >=
                   spec.intervalInsts + spec.detailedWarmupInsts,
               "sampling period (%llu) must cover interval (%llu) + "
               "detailed warmup (%llu)",
               static_cast<unsigned long long>(spec.periodInsts),
               static_cast<unsigned long long>(spec.intervalInsts),
               static_cast<unsigned long long>(spec.detailedWarmupInsts));

    const Counter total = warmup_insts + measure_insts;
    prepareTraces(total);

    const Counter unit = spec.intervalInsts;
    const Counter warm = spec.detailedWarmupInsts;
    const Counter period = spec.periodInsts;

    // Systematic sampling with a deterministic random phase: interval i
    // measures [start_i, start_i + unit) of the nominal stream, with
    // start_i = warmup + phase + i * period. The phase decorrelates the
    // schedule from stream periodicity yet is a pure function of
    // (seed base, rng stream), so sampled runs are bit-reproducible.
    // phase >= warm keeps the first detailed warmup inside the budget.
    Rng rng(hashCombine(seedBase_,
                        hashCombine(0x5a3317ull, spec.rngStream)));
    const Counter phase =
        warm + rng.nextBelow(period - unit - warm + 1);

    std::uint64_t n_intervals = 0;
    for (Counter s = warmup_insts + phase; s + unit <= total; s += period)
        ++n_intervals;
    cfl_assert(n_intervals >= 2,
               "sampling spec yields %llu measured interval(s); at "
               "least 2 are needed for a confidence interval — shrink "
               "periodInsts or grow the measure budget",
               static_cast<unsigned long long>(n_intervals));

    CmpMetrics agg;
    agg.cores.resize(numCores());

    Counter pos = 0; // nominal stream position already covered
    for (std::uint64_t i = 0; i < n_intervals; ++i) {
        const Counter start = warmup_insts + phase + i * period;
        fastForwardAll(start - warm - pos);
        runDetailedDelta(warm);
        for (auto &core : cores_)
            core->beginMeasurement();
        runDetailedDelta(unit);
        pos = start + unit;

        const CmpMetrics interval = collectMetrics();
        for (unsigned c = 0; c < numCores(); ++c)
            accumulateCore(agg.cores[c], interval.cores[c]);
        // CPI, not IPC: intervals retire equal instruction counts, so
        // mean-of-CPIs is the union window's CPI (linear, unbiased);
        // mean-of-IPCs would be Jensen-biased high.
        double cpi_sum = 0.0;
        for (const CoreMetrics &c : interval.cores)
            cpi_sum += c.retired > 0
                           ? static_cast<double>(c.cycles) /
                                 static_cast<double>(c.retired)
                           : 0.0;
        agg.sampling.cpi.add(cpi_sum /
                             static_cast<double>(interval.cores.size()));
        agg.sampling.btbMpki.add(interval.meanBtbMpki());
        agg.sampling.l1iMpki.add(interval.meanL1iMpki());
    }
    return agg;
}

} // namespace cfl
