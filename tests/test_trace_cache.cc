/**
 * @file Tests for shared immutable traces: outcome-trace replay
 * fidelity on every preset (including cursor seeks through checkpoints
 * and onto non-branch instructions, from the engine and the BPU's
 * sampling tiers), TraceCache sharing/thread-safety/budget and
 * actual-size charging, and bit-identity of cached sweeps against the
 * pre-cache golden pins.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "confluence/factory.hh"
#include "mem/llc.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "trace/trace_cache.hh"

using namespace cfl;

namespace
{

EngineParams
paramsFor(WorkloadId wl, std::uint64_t seed)
{
    const WorkloadParams wp = workloadParams(wl);
    return EngineParams{seed, wp.zipfSkew, wp.branchNoise};
}

void
expectSameInst(const DynInst &a, const DynInst &b, std::uint64_t i)
{
    ASSERT_EQ(a.pc, b.pc) << "inst " << i;
    ASSERT_EQ(a.kind, b.kind) << "inst " << i;
    ASSERT_EQ(a.taken, b.taken) << "inst " << i;
    ASSERT_EQ(a.target, b.target) << "inst " << i;
    ASSERT_EQ(a.requestId, b.requestId) << "inst " << i;
}

/** Compare @p n instructions of @p got against @p want from stream
 *  position @p from on; reports the first mismatch only. */
void
expectSameStream(ExecEngine &want, ExecEngine &got, std::uint64_t from,
                 std::uint64_t n)
{
    for (std::uint64_t i = from; i < from + n; ++i) {
        const DynInst a = want.next();
        const DynInst b = got.next();
        if (a.pc != b.pc || a.kind != b.kind || a.taken != b.taken ||
            a.target != b.target || a.requestId != b.requestId) {
            expectSameInst(a, b, i);
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

} // namespace

TEST(TraceBuffer, EveryPresetReplaysItsLiveStreamAtQuickLength)
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

        ExecEngine live(program, params);
        ExecEngine replay(program, params);
        replay.attachTrace(trace);
        // Past the tail the replaying engine generates from the
        // buffer's snapshot.
        expectSameStream(live, replay, 0, length + 20'000);
        EXPECT_FALSE(replay.replaying());
        EXPECT_EQ(live.instCount(), replay.instCount());
    }
}

TEST(TraceCursor, SeeksThroughCheckpointsLandOnTheLiveStream)
{
    const WorkloadId wl = WorkloadId::WebFrontend;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0xc4ec);
    const std::uint64_t per_checkpoint = TraceBuffer::kCheckpointBranches;

    // A live reference over four checkpoint segments. Checkpoint k sits
    // right after dynamic branch k * kCheckpointBranches - 1.
    std::vector<DynInst> ref;
    std::vector<std::uint64_t> boundaries;
    {
        ExecEngine live(program, params);
        std::uint64_t branches = 0;
        while (boundaries.size() < 4) {
            ref.push_back(live.next());
            if (ref.back().isBranch() && ++branches % per_checkpoint == 0)
                boundaries.push_back(ref.size());
        }
    }
    const std::uint64_t buffered = ref.size();
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

    // Every continuation runs past the buffer's tail.
    const auto continuation = [&](std::uint64_t at) {
        return buffered + 1000 - at;
    };
    const auto live_at = [&](std::uint64_t at) {
        auto live = std::make_unique<ExecEngine>(program, params);
        for (std::uint64_t i = 0; i < at; ++i)
            live->next();
        return live;
    };

    for (const std::uint64_t at : targets) {
        SCOPED_TRACE(at);
        for (const bool fast_forward : {false, true}) {
            ExecEngine replay(program, params);
            replay.attachTrace(trace);
            if (fast_forward) {
                // A pending peek counts as the first skipped instruction.
                replay.peek();
                replay.fastForward(at);
            } else {
                replay.skipReplay(at);
            }
            expectSameStream(*live_at(at), replay, at, continuation(at));
        }

        // The BPU's skip tier seeks the engine's own cursor.
        Llc llc(makeSystemConfig(1).llc);
        SharedState shared;
        shared.llc = &llc;
        CoreSim core(FrontendKind::Baseline, program, workloadParams(wl),
                     makeSystemConfig(1), shared, 0, params.seed, false);
        core.engine().attachTrace(trace);
        Cycle now = 0;
        EXPECT_EQ(core.bpu().skipStream(at, now), at);
        expectSameStream(*live_at(at), core.engine(), at, continuation(at));
    }

    // A cursor seeks backward as well as forward.
    TraceCursor cursor;
    cursor.attach(*trace);
    for (auto it = targets.rbegin(); it != targets.rend(); ++it) {
        cursor.seek(*it);
        for (std::uint64_t i = *it; i < *it + 64; ++i) {
            DynInst got;
            cursor.next(got);
            expectSameInst(ref[i], got, i);
        }
    }
}

TEST(TraceCursor, TouchTierWalksTheLiveStream)
{
    // touchStream consumes whole regions, so it may overshoot the
    // request; whatever it consumed, the stream continues from there.
    const WorkloadId wl = WorkloadId::OltpDb2;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x70c4);
    const std::uint64_t buffered = 3 * TraceBuffer::kCheckpointBranches * 8;
    auto trace = std::make_shared<const TraceBuffer>(program, params,
                                                     buffered);
    Llc llc(makeSystemConfig(1).llc);
    SharedState shared;
    shared.llc = &llc;
    CoreSim core(FrontendKind::Baseline, program, workloadParams(wl),
                 makeSystemConfig(1), shared, 0, params.seed, false);
    core.engine().attachTrace(trace);

    Cycle now = 0;
    const Counter touched = core.bpu().touchStream(
        buffered / 2, core.mem(), core.prefetcher(), now);
    EXPECT_GE(touched, buffered / 2);
    EXPECT_LT(touched, buffered / 2 + 16);
    // Asking for more than is buffered stops at the tail.
    const Counter rest = core.bpu().touchStream(
        buffered, core.mem(), core.prefetcher(), now);
    EXPECT_EQ(touched + rest, buffered);

    ExecEngine live(program, params);
    live.fastForward(buffered);
    expectSameStream(live, core.engine(), buffered, 1000);
}

TEST(TraceBuffer, ReplayMatchesLiveGenerationIncludingTail)
{
    const WorkloadId wl = WorkloadId::DssQry;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x1234);

    // Buffer shorter than the run: the replaying engine must cross the
    // buffered prefix and continue generating, bit-identically.
    const std::uint64_t buffered = 1000;
    auto trace = std::make_shared<const TraceBuffer>(program, params,
                                                     buffered);
    ASSERT_EQ(trace->size(), buffered);

    ExecEngine live(program, params);
    ExecEngine replay(program, params);
    replay.attachTrace(trace);
    EXPECT_TRUE(replay.replaying());

    for (std::uint64_t i = 0; i < 3 * buffered; ++i) {
        const DynInst a = live.next();
        const DynInst b = replay.next();
        expectSameInst(a, b, i);
        ASSERT_EQ(live.instCount(), replay.instCount()) << "inst " << i;
    }
    EXPECT_FALSE(replay.replaying()) << "tail continuation left replay mode";
}

TEST(TraceBuffer, PeekSemanticsMatchUnderReplay)
{
    const WorkloadId wl = WorkloadId::MediaStreaming;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x77);

    auto trace =
        std::make_shared<const TraceBuffer>(program, params, 512);
    ExecEngine live(program, params);
    ExecEngine replay(program, params);
    replay.attachTrace(trace);

    for (std::uint64_t i = 0; i < 1024; ++i) {
        expectSameInst(live.peek(), replay.peek(), i);
        expectSameInst(live.next(), replay.next(), i);
    }
}

TEST(TraceBuffer, SkipToNonBranchThenReplayMatchesLive)
{
    const WorkloadId wl = WorkloadId::OltpDb2;
    const Program &program = workloadProgram(wl);
    const EngineParams params = paramsFor(wl, 0x99);
    const std::uint64_t buffered = 200'000;
    auto trace = std::make_shared<const TraceBuffer>(program, params,
                                                     buffered);

    // Two non-branch landing spots past the first request boundary:
    // right after a taken branch (the pc resumes at its target) and
    // in the middle of a straight run.
    std::uint64_t after_taken = 0, mid_run = 0;
    {
        ExecEngine probe(program, params);
        DynInst prev;
        for (std::uint64_t i = 0; i < buffered / 2; ++i) {
            const DynInst inst = probe.next();
            if (inst.requestId > 0 && !inst.isBranch()) {
                if (after_taken == 0 && prev.isBranch() && prev.taken)
                    after_taken = i;
                else if (after_taken != 0 && mid_run == 0 &&
                         !prev.isBranch())
                    mid_run = i;
            }
            prev = inst;
        }
    }
    ASSERT_NE(after_taken, 0u);
    ASSERT_NE(mid_run, 0u);

    for (const std::uint64_t skip : {after_taken, mid_run}) {
        for (const bool fast_forward : {false, true}) {
            ExecEngine live(program, params);
            ExecEngine replay(program, params);
            replay.attachTrace(trace);
            live.fastForward(skip);
            if (fast_forward)
                replay.fastForward(skip);
            else
                replay.skipReplay(skip);
            ASSERT_TRUE(replay.replaying());
            for (std::uint64_t i = skip; i < buffered + 1000; ++i)
                expectSameInst(live.next(), replay.next(), i);
            EXPECT_FALSE(replay.replaying());
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
// every point replays a shared cached trace or generates live.
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

    traceCache().setBudgetBytes(0);  // live generation for every point
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
