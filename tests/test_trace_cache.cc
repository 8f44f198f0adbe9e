/**
 * @file Tests for shared immutable traces: outcome-trace replay
 * fidelity on every preset against the generator's own straight-line
 * stream (including cursor seeks through checkpoints and onto
 * non-branch instructions, regeneration past a buffer's end, from the
 * engine, the BPU's region walk and its sampling tiers), TraceCache
 * sharing/thread-safety/budget and actual-size charging, and
 * bit-identity of cached sweeps against the golden pins.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "confluence/factory.hh"
#include "mem/llc.hh"
#include "reference_stream.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "trace/trace_cache.hh"

using namespace cfl;
using cfl::test::expectSameInst;
using cfl::test::referenceStream;
using cfl::test::sameInst;

namespace
{

EngineParams
paramsFor(WorkloadId wl, std::uint64_t seed)
{
    const WorkloadParams wp = workloadParams(wl);
    return EngineParams{seed, wp.zipfSkew, wp.branchNoise};
}

/** Compare @p n instructions of @p got against @p ref from stream
 *  position @p from on; reports the first mismatch only. */
void
expectSameStream(const std::vector<DynInst> &ref, ExecEngine &got,
                 std::uint64_t from, std::uint64_t n)
{
    ASSERT_LE(from + n, ref.size());
    for (std::uint64_t i = from; i < from + n; ++i) {
        const DynInst &inst = got.next();
        if (!sameInst(inst, ref[i])) {
            expectSameInst(inst, ref[i], i);
            return;
        }
    }
}

/** Instructions a quick-scale sweep point acquires: warm-up, measure
 *  and the oracle slack, rounded up to the cache's 64K granule. */
std::uint64_t
quickTraceLength()
{
    const RunScale quick = scaleByName("quick");
    const std::uint64_t insts =
        quick.timingWarmupInsts + quick.timingMeasureInsts + 4096;
    constexpr std::uint64_t kGranule = 1 << 16;
    return (insts + kGranule - 1) / kGranule * kGranule;
}

/** A single core of @p wl whose engine reads @p params's stream. */
struct TestCore
{
    TestCore(WorkloadId wl, const EngineParams &params)
        : llc(makeSystemConfig(1).llc),
          shared{&llc, nullptr, nullptr},
          core(FrontendKind::Baseline, workloadProgram(wl),
               workloadParams(wl), makeSystemConfig(1), shared, 0,
               params.seed, false)
    {
    }

    Llc llc;
    SharedState shared;
    CoreSim core;
};

} // namespace

TEST(TraceBuffer, EveryPresetReplaysItsStreamAtQuickLength)
{
    const std::uint64_t length = quickTraceLength();
    for (const WorkloadId wl : allWorkloads()) {
        SCOPED_TRACE(workloadName(wl));
        const Program &program = workloadProgram(wl);
        const EngineParams params = paramsFor(wl, 0x5eed);
        auto trace =
            std::make_shared<const TraceBuffer>(program, params, length);
        EXPECT_LE(trace->bytes(), length / 10)
            << "outcome traces cost at most 0.1 B/inst";

        // Past the end the engine regenerates a longer private buffer.
        const std::vector<DynInst> ref =
            referenceStream(program, params, length + 20'000);
        ExecEngine replay(program, params);
        replay.attachTrace(trace);
        expectSameStream(ref, replay, 0, ref.size());
        EXPECT_EQ(replay.instCount(), ref.size());
    }
}

TEST(TraceCursor, SeeksThroughCheckpointsLandOnTheReferenceStream)
{
    const WorkloadId wl = WorkloadId::WebFrontend;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0xc4ec);
    const std::uint64_t per_checkpoint = TraceBuffer::kCheckpointBranches;

    // Four checkpoint segments. Checkpoint k sits right after dynamic
    // branch k * kCheckpointBranches - 1.
    const std::vector<DynInst> ref = referenceStream(program, params,
                                                     400'000);
    std::vector<std::uint64_t> boundaries;
    std::uint64_t branches = 0;
    for (std::uint64_t i = 0; boundaries.size() < 4; ++i) {
        ASSERT_LT(i, ref.size());
        if (ref[i].isBranch() && ++branches % per_checkpoint == 0)
            boundaries.push_back(i + 1);
    }
    const std::uint64_t buffered = boundaries.back();
    ASSERT_LE(buffered + 1000, ref.size());
    auto trace = std::make_shared<const TraceBuffer>(program, params,
                                                     buffered);
    EXPECT_EQ(trace->numBranches(), 4 * per_checkpoint);

    // Landing spots: at, one before and one after three checkpoints, a
    // non-branch instruction mid-segment, and the dispatcher's call.
    std::vector<std::uint64_t> targets;
    for (std::size_t k = 0; k < 3; ++k)
        for (const std::uint64_t at :
             {boundaries[k] - 1, boundaries[k], boundaries[k] + 1})
            targets.push_back(at);
    std::uint64_t straight = boundaries[0] + per_checkpoint;
    while (ref[straight].isBranch())
        ++straight;
    targets.push_back(straight);
    std::uint64_t dispatch = boundaries[1];
    while (ref[dispatch].pc != program.dispatchCallPc)
        ++dispatch;
    targets.push_back(dispatch);

    // Every continuation runs past the buffer's end.
    const auto continuation = [&](std::uint64_t at) {
        return buffered + 1000 - at;
    };

    for (const std::uint64_t at : targets) {
        SCOPED_TRACE(at);
        ExecEngine replay(program, params);
        replay.attachTrace(trace);
        replay.fastForward(at);
        expectSameStream(ref, replay, at, continuation(at));

        // The BPU's skip tier seeks the engine's own cursor.
        TestCore t(wl, params);
        t.core.engine().attachTrace(trace);
        Cycle now = 0;
        t.core.bpu().skipStream(at, now);
        EXPECT_EQ(t.core.engine().instCount(), at);
        expectSameStream(ref, t.core.engine(), at, continuation(at));
    }

    // A cursor seeks backward as well as forward.
    TraceCursor cursor;
    cursor.attach(*trace);
    for (auto it = targets.rbegin(); it != targets.rend(); ++it) {
        cursor.seek(*it);
        for (std::uint64_t i = *it; i < *it + 64; ++i) {
            DynInst got;
            cursor.next(got);
            expectSameInst(got, ref[i], i);
        }
    }
}

TEST(TraceCursor, TouchTierWalksTheReferenceStream)
{
    // touchStream consumes whole regions, so it may overshoot the
    // request; whatever it consumed, the stream continues from there,
    // past the buffer's end too.
    const WorkloadId wl = WorkloadId::OltpDb2;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x70c4);
    const std::uint64_t buffered = 3 * TraceBuffer::kCheckpointBranches * 8;
    auto trace = std::make_shared<const TraceBuffer>(program, params,
                                                     buffered);
    TestCore t(wl, params);
    t.core.engine().attachTrace(trace);

    Cycle now = 0;
    const Counter touched = t.core.bpu().touchStream(
        buffered / 2, t.core.mem(), t.core.prefetcher(), now);
    EXPECT_GE(touched, buffered / 2);
    EXPECT_LT(touched, buffered / 2 + 16);
    const Counter rest = t.core.bpu().touchStream(
        buffered, t.core.mem(), t.core.prefetcher(), now);
    EXPECT_GE(rest, buffered);
    EXPECT_LT(rest, buffered + 16);
    EXPECT_EQ(t.core.engine().instCount(), touched + rest);

    const std::vector<DynInst> ref =
        referenceStream(program, params, touched + rest + 1000);
    expectSameStream(ref, t.core.engine(), touched + rest, 1000);
}

TEST(TraceBuffer, ReplayPastTheBufferMatchesTheReference)
{
    const WorkloadId wl = WorkloadId::DssQry;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x1234);

    // Buffer shorter than the run: the engine must cross the buffer's
    // end onto a regenerated one, bit-identically.
    const std::uint64_t buffered = 1000;
    auto trace = std::make_shared<const TraceBuffer>(program, params,
                                                     buffered);
    ASSERT_EQ(trace->size(), buffered);
    const std::vector<DynInst> ref =
        referenceStream(program, params, 3 * buffered);

    ExecEngine replay(program, params);
    replay.attachTrace(trace);
    for (std::uint64_t i = 0; i < ref.size(); ++i) {
        expectSameInst(replay.next(), ref[i], i);
        ASSERT_EQ(replay.instCount(), i + 1) << "inst " << i;
    }
}

TEST(TraceBuffer, SkipToNonBranchThenReplayMatchesTheReference)
{
    const WorkloadId wl = WorkloadId::OltpDb2;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x99);
    const std::uint64_t buffered = 200'000;
    auto trace = std::make_shared<const TraceBuffer>(program, params,
                                                     buffered);
    const std::vector<DynInst> ref =
        referenceStream(program, params, buffered + 1000);

    // Two non-branch landing spots past the first request boundary:
    // right after a taken branch (the pc resumes at its target) and
    // in the middle of a straight run.
    std::uint64_t after_taken = 0, mid_run = 0;
    for (std::uint64_t i = 1; i < buffered / 2; ++i) {
        const DynInst &inst = ref[i];
        const DynInst &prev = ref[i - 1];
        if (inst.requestId > 0 && !inst.isBranch()) {
            if (after_taken == 0 && prev.isBranch() && prev.taken)
                after_taken = i;
            else if (after_taken != 0 && mid_run == 0 && !prev.isBranch())
                mid_run = i;
        }
    }
    ASSERT_NE(after_taken, 0u);
    ASSERT_NE(mid_run, 0u);

    for (const std::uint64_t skip : {after_taken, mid_run}) {
        ExecEngine replay(program, params);
        replay.attachTrace(trace);
        replay.fastForward(skip);
        expectSameStream(ref, replay, skip, ref.size() - skip);
    }
}

// ---------------------------------------------------------------------------
// One stream path: an engine on a short attached buffer and one with no
// buffer at all read the generator's stream, through every consumer,
// across every regeneration boundary.
// ---------------------------------------------------------------------------

namespace
{

constexpr std::uint64_t kShortBuffer = 20'000;
/** Past three times the short buffer, and past two regenerations of an
 *  engine that starts with no buffer. */
constexpr std::uint64_t kDriven = 140'000;

/** Start @p engine on a short attached buffer, or on none. */
void
startEngine(ExecEngine &engine, bool attached, const Program &program,
            const EngineParams &params)
{
    if (attached)
        engine.attachTrace(std::make_shared<const TraceBuffer>(
            program, params, kShortBuffer));
}

/** Buffer lengths an engine driven by next() reads on the way to
 *  kDriven: every one is a regeneration boundary. */
std::vector<std::uint64_t>
regenerationBoundaries(bool attached, const Program &program,
                       const EngineParams &params)
{
    ExecEngine engine(program, params);
    startEngine(engine, attached, program, params);
    std::vector<std::uint64_t> sizes;
    for (std::uint64_t i = 0; i < kDriven; ++i) {
        engine.next();
        const std::uint64_t size = engine.cursor(0).size();
        if (sizes.empty() || sizes.back() != size)
            sizes.push_back(size);
    }
    sizes.pop_back();  // the buffer still being read at kDriven
    return sizes;
}

} // namespace

TEST(OneStreamPath, NextAndFastForwardAcrossRegenerations)
{
    const WorkloadId wl = WorkloadId::WebFrontend;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x0b0e);
    const std::vector<DynInst> ref =
        referenceStream(program, params, kDriven + 2000);

    for (const bool attached : {true, false}) {
        SCOPED_TRACE(attached ? "short buffer attached" : "no buffer");
        const std::vector<std::uint64_t> boundaries =
            regenerationBoundaries(attached, program, params);
        ASSERT_GE(boundaries.size(), 2u);
        if (attached) {
            EXPECT_EQ(boundaries.front(), kShortBuffer);
        }

        ExecEngine engine(program, params);
        startEngine(engine, attached, program, params);
        expectSameStream(ref, engine, 0, kDriven);

        for (const std::uint64_t b : boundaries) {
            for (const std::uint64_t at : {b - 1, b, b + 1}) {
                SCOPED_TRACE(at);
                // One jump from the start, and one from just short of
                // the landing spot.
                ExecEngine jump(program, params);
                startEngine(jump, attached, program, params);
                jump.fastForward(at);
                expectSameStream(ref, jump, at, 2000);

                ExecEngine step(program, params);
                startEngine(step, attached, program, params);
                step.fastForward(at - 3);
                step.fastForward(3);
                expectSameStream(ref, step, at, 2000);
            }
        }
    }
}

TEST(OneStreamPath, BpuRegionWalkTilesTheReference)
{
    const WorkloadId wl = WorkloadId::OltpOracle;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x7e91);
    const std::vector<DynInst> ref =
        referenceStream(program, params, kDriven + 128);

    for (const bool attached : {true, false}) {
        SCOPED_TRACE(attached ? "short buffer attached" : "no buffer");
        TestCore t(wl, params);
        startEngine(t.core.engine(), attached, program, params);
        std::uint64_t pos = 0;
        for (Cycle now = 0; pos < kDriven; ++now) {
            const BpuResult res = t.core.bpu().predictNextRegionT<Btb>(now);
            ASSERT_EQ(res.region.startPc, ref[pos].pc) << "at " << pos;
            unsigned branches = 0;
            for (unsigned i = 0; i < res.region.numInsts; ++i)
                branches += ref[pos + i].isBranch() ? 1 : 0;
            ASSERT_EQ(res.region.numBranches, branches) << "at " << pos;
            pos += res.region.numInsts;
            ASSERT_EQ(t.core.engine().instCount(), pos);
        }
        expectSameStream(ref, t.core.engine(), pos, 64);
    }
}

TEST(OneStreamPath, TouchAndSkipTiersAcrossRegenerations)
{
    const WorkloadId wl = WorkloadId::MediaStreaming;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x5c1f);
    const std::vector<DynInst> ref =
        referenceStream(program, params, kDriven + 20'000);

    for (const bool attached : {true, false}) {
        SCOPED_TRACE(attached ? "short buffer attached" : "no buffer");
        TestCore t(wl, params);
        startEngine(t.core.engine(), attached, program, params);
        Rng sched(attached ? 0x51 : 0x52);
        Cycle now = 0;
        std::uint64_t pos = 0;
        while (pos < kDriven) {
            const Counter n = 1 + sched.nextBelow(9'000);
            if (sched.nextBelow(2) == 0) {
                t.core.bpu().skipStream(n, now);
                pos += n;
            } else {
                const Counter touched = t.core.bpu().touchStream(
                    n, t.core.mem(), t.core.prefetcher(), now);
                ASSERT_GE(touched, n);
                ASSERT_LT(touched, n + 16);
                pos += touched;
            }
            ASSERT_EQ(t.core.engine().instCount(), pos);
            expectSameStream(ref, t.core.engine(), pos, 32);
            pos += 32;
        }
    }
}

TEST(TraceCache, ChargesTheBytesOfEveryHeldBufferAtQuickLength)
{
    const std::uint64_t length = quickTraceLength();
    TraceCache cache(256ull << 20);
    std::vector<std::shared_ptr<const TraceBuffer>> held;
    std::uint64_t sum = 0;
    for (const WorkloadId wl : allWorkloads()) {
        held.push_back(cache.acquire(wl, 1, length));
        ASSERT_NE(held.back(), nullptr);
        EXPECT_LE(held.back()->bytes(), length / 10) << workloadName(wl);
        EXPECT_LE(held.back()->bytes(), TraceBuffer::arenaBytesFor(length));
        sum += held.back()->bytes();
    }
    EXPECT_EQ(cache.cachedBytes(), sum);
}

TEST(TraceCache, SamePointSameBufferAcrossThreads)
{
    TraceCache cache(256ull << 20);
    constexpr unsigned kThreads = 8;
    std::vector<std::shared_ptr<const TraceBuffer>> got(kThreads);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&cache, &got, t] {
            got[t] = cache.acquire(WorkloadId::OltpDb2, 0xc0fe, 50'000);
        });
    }
    for (std::thread &t : threads)
        t.join();

    ASSERT_NE(got[0], nullptr);
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[t].get(), got[0].get())
            << "same (workload, scale, seed) must share one buffer";
    EXPECT_EQ(cache.misses(), 1u) << "the trace is generated exactly once";
    EXPECT_EQ(cache.hits(), kThreads - 1);

    // A repeated acquire at the same length returns the same pointer.
    EXPECT_EQ(cache.acquire(WorkloadId::OltpDb2, 0xc0fe, 50'000).get(),
              got[0].get());
}

TEST(TraceCache, DifferentSeedsDiffer)
{
    TraceCache cache(256ull << 20);
    auto a = cache.acquire(WorkloadId::WebFrontend, 1, 20'000);
    auto b = cache.acquire(WorkloadId::WebFrontend, 2, 20'000);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a.get(), b.get());

    // The streams themselves must diverge (same program, different RNG).
    const Program &program = workloadProgram(WorkloadId::WebFrontend);
    ExecEngine ea(program, a->params());
    ExecEngine eb(program, b->params());
    ea.attachTrace(a);
    eb.attachTrace(b);
    bool diverged = false;
    for (std::uint64_t i = 0; i < a->size() && !diverged; ++i) {
        const DynInst ia = ea.next();
        const DynInst ib = eb.next();
        diverged = ia.pc != ib.pc || ia.taken != ib.taken ||
                   ia.target != ib.target;
    }
    EXPECT_TRUE(diverged);
}

TEST(TraceCache, ZeroBudgetBypasses)
{
    TraceCache cache(0);
    EXPECT_EQ(cache.acquire(WorkloadId::DssQry, 7, 10'000), nullptr);
    EXPECT_EQ(cache.bypasses(), 1u);
    EXPECT_EQ(cache.lookups(), 1u);
    EXPECT_EQ(cache.cachedBytes(), 0u);
}

TEST(TraceCache, CountersPartitionLookups)
{
    // hits + misses + bypasses == lookups must hold at every step: each
    // acquire is classified as exactly one of the three.
    TraceCache cache(256ull << 20);
    const auto check = [&cache] {
        EXPECT_EQ(cache.hits() + cache.misses() + cache.bypasses(),
                  cache.lookups());
    };
    check();
    EXPECT_EQ(cache.lookups(), 0u);

    auto a = cache.acquire(WorkloadId::DssQry, 1, 10'000);  // miss
    ASSERT_NE(a, nullptr);
    check();
    EXPECT_EQ(cache.misses(), 1u);

    auto b = cache.acquire(WorkloadId::DssQry, 1, 10'000);  // hit
    EXPECT_EQ(b.get(), a.get());
    check();
    EXPECT_EQ(cache.hits(), 1u);

    cache.acquire(WorkloadId::DssQry, 2, 10'000);  // second miss
    check();

    cache.setBudgetBytes(0);
    EXPECT_EQ(cache.acquire(WorkloadId::DssQry, 3, 10'000), nullptr);
    check();
    EXPECT_EQ(cache.bypasses(), 1u);
    EXPECT_EQ(cache.lookups(), 4u);
}

TEST(TraceCache, PartitionHoldsUnderConcurrentAcquires)
{
    TraceCache cache(256ull << 20);
    constexpr unsigned kThreads = 8;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&cache, t] {
            // Two shared keys plus one per-thread key: exercises the
            // generation race (double-checked hit) and plain misses.
            cache.acquire(WorkloadId::OltpOracle, 1, 20'000);
            cache.acquire(WorkloadId::OltpOracle, 2, 20'000);
            cache.acquire(WorkloadId::OltpOracle, 100 + t, 20'000);
        });
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(cache.lookups(), 3u * kThreads);
    EXPECT_EQ(cache.hits() + cache.misses() + cache.bypasses(),
              cache.lookups());
}

TEST(TraceCache, BudgetEvictsIdleLru)
{
    // Budget fits roughly one rounded-up trace at a time.
    TraceCache cache(TraceBuffer::arenaBytesFor(1 << 16) + 1024);
    auto a = cache.acquire(WorkloadId::DssQry, 1, 10'000);
    ASSERT_NE(a, nullptr);
    a.reset();  // make it idle so it is evictable

    auto b = cache.acquire(WorkloadId::DssQry, 2, 10'000);
    ASSERT_NE(b, nullptr) << "idle LRU entry must be evicted to make room";

    // While b is still referenced it cannot be evicted, so a third
    // distinct trace is turned away rather than overcommitting.
    EXPECT_EQ(cache.acquire(WorkloadId::DssQry, 3, 10'000), nullptr);
    EXPECT_GE(cache.bypasses(), 1u);
}

TEST(TraceCache, FailedUpgradeKeepsShorterBuffer)
{
    // Budget fits one single-granule trace but not a two-granule one.
    TraceCache cache(TraceBuffer::arenaBytesFor(1 << 16) + 1024);
    auto small = cache.acquire(WorkloadId::DssQry, 1, 10'000);
    ASSERT_NE(small, nullptr);

    // Upgrading the same key beyond the budget must fail without
    // destroying the still-servable shorter buffer.
    EXPECT_EQ(cache.acquire(WorkloadId::DssQry, 1, 100'000), nullptr);
    auto again = cache.acquire(WorkloadId::DssQry, 1, 10'000);
    EXPECT_EQ(again.get(), small.get())
        << "failed upgrade must not evict the shorter trace";
}

TEST(TraceCache, ChargesEachBufferItsActualBytes)
{
    const std::uint64_t granule_bound = TraceBuffer::arenaBytesFor(1 << 16);
    TraceCache cache(4 * granule_bound);

    auto a = cache.acquire(WorkloadId::DssQry, 1, 10'000);  // miss
    auto b = cache.acquire(WorkloadId::DssQry, 2, 10'000);  // miss
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_LE(a->bytes(), granule_bound);
    EXPECT_LE(b->bytes(), granule_bound);
    // Branches only: far below the per-instruction bound.
    EXPECT_LT(a->bytes(), granule_bound / 2);
    EXPECT_EQ(cache.cachedBytes(), a->bytes() + b->bytes());

    // Upgrade: the longer buffer replaces the shorter one's charge,
    // even while the shorter one is still held outside the cache.
    auto a2 = cache.acquire(WorkloadId::DssQry, 1, 100'000);
    ASSERT_NE(a2, nullptr);
    EXPECT_NE(a2.get(), a.get());
    EXPECT_LE(a2->bytes(), TraceBuffer::arenaBytesFor(2 << 16));
    EXPECT_EQ(cache.cachedBytes(), a2->bytes() + b->bytes());

    // Eviction: with room for a reservation only once the idle b is
    // gone, a third trace evicts b and is charged its own size.
    b.reset();
    cache.setBudgetBytes(cache.cachedBytes() + granule_bound - 1);
    auto c = cache.acquire(WorkloadId::DssQry, 3, 10'000);
    ASSERT_NE(c, nullptr);
    EXPECT_LE(c->bytes(), granule_bound);
    EXPECT_EQ(cache.cachedBytes(), a2->bytes() + c->bytes());
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.bypasses(), 0u);
}

// ---------------------------------------------------------------------------
// Bit-identity against the golden pins: the same quick-scale sweep that
// tests/test_calibration.cc pins must produce identical numbers whether
// every point replays a shared cached trace or, at budget 0, generates
// its own unshared one.
// ---------------------------------------------------------------------------

namespace
{

SweepResult
goldenQuickSweep()
{
    RunScale scale;
    scale.timingWarmupInsts = 800'000;
    scale.timingMeasureInsts = 400'000;
    scale.timingCores = 1;
    SweepEngine engine(2);
    return runTimingSweep(
        {FrontendKind::Baseline, FrontendKind::Confluence},
        {WorkloadId::DssQry, WorkloadId::WebFrontend},
        makeSystemConfig(1), scale, engine);
}

} // namespace

TEST(TraceCacheGolden, CachedSweepIsBitIdenticalToLive)
{
    const std::uint64_t saved = traceCache().budgetBytes();

    traceCache().setBudgetBytes(0);  // a private trace for every point
    const SweepResult live = goldenQuickSweep();

    traceCache().setBudgetBytes(1ull << 30);  // shared replay
    const SweepResult cached = goldenQuickSweep();

    traceCache().setBudgetBytes(saved);

    ASSERT_EQ(live.points.size(), cached.points.size());
    for (std::size_t i = 0; i < live.points.size(); ++i) {
        const CmpMetrics &a = live.points[i].metrics;
        const CmpMetrics &b = cached.points[i].metrics;
        ASSERT_EQ(a.cores.size(), b.cores.size());
        for (std::size_t c = 0; c < a.cores.size(); ++c) {
            EXPECT_EQ(a.cores[c].retired, b.cores[c].retired);
            EXPECT_EQ(a.cores[c].cycles, b.cores[c].cycles);
            EXPECT_EQ(a.cores[c].btbTakenMisses, b.cores[c].btbTakenMisses);
            EXPECT_EQ(a.cores[c].l1iDemandMisses,
                      b.cores[c].l1iDemandMisses);
            EXPECT_EQ(a.cores[c].fetchMissStallCycles,
                      b.cores[c].fetchMissStallCycles);
        }
    }

    // And both must still sit exactly on the pre-cache golden geomean
    // (tests/test_calibration.cc pins the same value).
    EXPECT_NEAR(cached.geomeanSpeedup(FrontendKind::Confluence,
                                      FrontendKind::Baseline),
                1.217584361106137, 1e-9);
}
