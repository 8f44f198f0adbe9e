/**
 * @file
 * Sampled-simulation properties.
 *
 * The contract that makes SMARTS sampling trustworthy is stream
 * identity: however the gaps between measured intervals are covered —
 * engine fast-forward over a shared, private or too-short trace — the
 * instruction stream observed afterwards must be bit-identical to the
 * generator's straight-line stream. These tests drive fast-forward at
 * arbitrary (seeded-random) offsets across workloads and seeds, check
 * that exact and sampled CMP runs do not depend on the trace buffers
 * their engines start on, and pin the sampled estimator codec round
 * trip plus the exact-mode byte format.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "confluence/cmp.hh"
#include "reference_stream.hh"
#include "sim/presets.hh"
#include "sim/sampling.hh"
#include "sim/sweep.hh"
#include "sweepio/codec.hh"
#include "trace/engine.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_cache.hh"
#include "workloads/suite.hh"

using namespace cfl;
using cfl::test::expectSameInst;
using cfl::test::referenceStream;

namespace
{

void
expectSameCore(const CoreMetrics &a, const CoreMetrics &b, unsigned core)
{
    EXPECT_EQ(a.retired, b.retired) << "core " << core;
    EXPECT_EQ(a.cycles, b.cycles) << "core " << core;
    EXPECT_EQ(a.btbTakenLookups, b.btbTakenLookups) << "core " << core;
    EXPECT_EQ(a.btbTakenMisses, b.btbTakenMisses) << "core " << core;
    EXPECT_EQ(a.misfetches, b.misfetches) << "core " << core;
    EXPECT_EQ(a.condMispredicts, b.condMispredicts) << "core " << core;
    EXPECT_EQ(a.l1iDemandFetches, b.l1iDemandFetches) << "core " << core;
    EXPECT_EQ(a.l1iDemandMisses, b.l1iDemandMisses) << "core " << core;
    EXPECT_EQ(a.l1iInFlightHits, b.l1iInFlightHits) << "core " << core;
    EXPECT_EQ(a.btbL2StallCycles, b.btbL2StallCycles) << "core " << core;
    EXPECT_EQ(a.fetchMissStallCycles, b.fetchMissStallCycles)
        << "core " << core;
}

void
expectSameMetrics(const CmpMetrics &a, const CmpMetrics &b)
{
    ASSERT_EQ(a.cores.size(), b.cores.size());
    for (unsigned c = 0; c < a.cores.size(); ++c)
        expectSameCore(a.cores[c], b.cores[c], c);
    // Estimator state compares bit-exactly: equal observation
    // sequences must give equal Welford accumulators.
    EXPECT_TRUE(a.sampling == b.sampling);
}

/** Restores the process-wide trace-cache budget on scope exit so the
 *  tests below can toggle sharing on/off without leaking state. */
class TraceCacheBudgetGuard
{
  public:
    TraceCacheBudgetGuard() : saved_(traceCache().budgetBytes()) {}
    ~TraceCacheBudgetGuard()
    {
        traceCache().setBudgetBytes(saved_);
        traceCache().clear();
    }

  private:
    std::uint64_t saved_;
};

} // namespace

// Fast-forwarding by arbitrary amounts at arbitrary offsets — on a
// private trace, and on a half-length attached one whose end the walk
// crosses mid-run — observes exactly the straight-line stream.
TEST(SamplingFastForward, ArbitraryOffsetsMatchStraightLine)
{
    constexpr std::uint64_t kStream = 60'000;
    const std::vector<WorkloadId> &all = allWorkloads();
    for (const WorkloadId wl : {all.front(), all.back()}) {
        const Program &program = workloadProgram(wl);
        for (const std::uint64_t seed : {0x11ull, 0x5eed5eedull}) {
            EngineParams params;
            params.seed = seed;
            const std::vector<DynInst> ref =
                referenceStream(program, params, kStream);
            for (const bool attached : {false, true}) {
                ExecEngine engine(program, params);
                if (attached)
                    engine.attachTrace(std::make_shared<TraceBuffer>(
                        program, params, kStream / 2));
                Rng sched(seed ^ (attached ? 0x9e3779b9ull : 0x1234ull));
                std::uint64_t pos = 0;
                while (pos + 512 < kStream) {
                    const std::uint64_t ff = 1 + sched.nextBelow(300);
                    engine.fastForward(ff);
                    pos += ff;
                    const std::uint64_t run = 1 + sched.nextBelow(60);
                    for (std::uint64_t i = 0; i < run; ++i) {
                        expectSameInst(engine.next(), ref[pos], pos);
                        ++pos;
                    }
                }
            }
        }
    }
}

// A sampled CMP run is a pure function of (point, spec, seed): reruns
// are bit-identical, and whether the engines share cached traces or,
// at budget 0, each generate a private one must not change a single
// counter or estimator bit.
TEST(SamplingCmp, SampledRunDeterministicAndTraceCacheInvariant)
{
    TraceCacheBudgetGuard guard;
    const SystemConfig cfg = makeSystemConfig(2);
    RunScale scale;
    scale.timingWarmupInsts = 100'000;
    scale.timingMeasureInsts = 200'000;
    const SamplingSpec spec = defaultSamplingSpec(scale);
    ASSERT_TRUE(spec.enabled());

    const auto run = [&](bool cache_on) {
        traceCache().setBudgetBytes(cache_on ? 512ull << 20 : 0);
        traceCache().clear();
        Cmp cmp(FrontendKind::Confluence, WorkloadId::DssQry, cfg,
                /*seed_base=*/0x1234);
        return cmp.runSampled(scale.timingWarmupInsts,
                              scale.timingMeasureInsts, spec);
    };

    const CmpMetrics cached = run(true);
    ASSERT_TRUE(cached.sampling.valid());
    EXPECT_GE(cached.sampling.cpi.count, 2u);

    const CmpMetrics cached_again = run(true);
    expectSameMetrics(cached, cached_again);

    const CmpMetrics generated = run(false);
    expectSameMetrics(cached, generated);
}

// Exact and sampled runs do not depend on the trace buffers the engines
// start on: a 64K-instruction buffer, which every run outgrows, gives
// the metrics of a buffer covering the whole budget and of private
// traces at trace-cache budget 0.
TEST(SamplingCmp, ShortStartingBuffersChangeNoMetric)
{
    TraceCacheBudgetGuard guard;
    const SystemConfig cfg = makeSystemConfig(2);
    const WorkloadId wl = WorkloadId::WebFrontend;
    constexpr std::uint64_t kSeedBase = 0x3c3c;
    RunScale scale;
    scale.timingWarmupInsts = 100'000;
    scale.timingMeasureInsts = 200'000;
    const SamplingSpec spec = defaultSamplingSpec(scale);
    const std::uint64_t total =
        scale.timingWarmupInsts + scale.timingMeasureInsts;

    // start_length 0: whatever prepareTraces gives the engines.
    const auto run = [&](bool sampled, std::uint64_t start_length) {
        Cmp cmp(FrontendKind::Confluence, wl, cfg, kSeedBase);
        const WorkloadParams wp = workloadParams(wl);
        for (unsigned c = 0; c < cmp.numCores() && start_length != 0; ++c)
            cmp.core(c).engine().attachTrace(
                std::make_shared<const TraceBuffer>(
                    workloadProgram(wl),
                    EngineParams{kSeedBase + 0x1000ull * c, wp.zipfSkew,
                                 wp.branchNoise},
                    start_length));
        return sampled ? cmp.runSampled(scale.timingWarmupInsts,
                                        scale.timingMeasureInsts, spec)
                       : cmp.run(scale.timingWarmupInsts,
                                 scale.timingMeasureInsts);
    };

    for (const bool sampled : {false, true}) {
        SCOPED_TRACE(sampled ? "sampled" : "exact");
        const CmpMetrics short_start = run(sampled, 1 << 16);
        EXPECT_EQ(short_start.sampling.valid(), sampled);
        expectSameMetrics(short_start, run(sampled, total + 4096));
        traceCache().setBudgetBytes(0);
        expectSameMetrics(short_start, run(sampled, 0));
        traceCache().setBudgetBytes(512ull << 20);
    }
}

// Distinct rng streams pick distinct interval phases (that is their
// whole point), while the estimators still agree within their CIs.
TEST(SamplingCmp, RngStreamIsPartOfTheSchedule)
{
    TraceCacheBudgetGuard guard;
    const SystemConfig cfg = makeSystemConfig(1);
    RunScale scale;
    scale.timingWarmupInsts = 50'000;
    scale.timingMeasureInsts = 200'000;
    SamplingSpec spec = defaultSamplingSpec(scale);

    const auto run = [&](std::uint64_t stream) {
        SamplingSpec s = spec;
        s.rngStream = stream;
        Cmp cmp(FrontendKind::Baseline, WorkloadId::DssQry, cfg, 0x42);
        return cmp.runSampled(scale.timingWarmupInsts,
                              scale.timingMeasureInsts, s);
    };
    const CmpMetrics a = run(1);
    const CmpMetrics b = run(2);
    EXPECT_EQ(a.sampling.cpi.count, b.sampling.cpi.count);
    // Same stream, different phases: means agree loosely, not bitwise.
    EXPECT_NEAR(a.sampling.cpi.mean, b.sampling.cpi.mean,
                a.sampling.cpi.mean * 0.25);
}

// Sampled estimator state survives the sweepio codec bit-exactly, and
// re-encoding the decoded outcome reproduces the bytes.
TEST(SamplingCodec, SampledOutcomeRoundTripsBitExactly)
{
    SweepOutcome o;
    o.point.kind = FrontendKind::Confluence;
    o.point.workload = allWorkloads().front();
    o.point.sampling = SamplingSpec{2'000, 4'000, 12'500, 7};
    o.seed = 0xfeedface;
    o.metrics.cores.resize(2);
    o.metrics.cores[0].retired = 32'000;
    o.metrics.cores[0].cycles = 41'337;
    o.metrics.cores[1].retired = 32'000;
    o.metrics.cores[1].cycles = 40'021;
    for (const double x : {1.0 / 3.0, 0.7234190234, 1.9283e-3})
        o.metrics.sampling.cpi.add(x);
    for (const double x : {17.25, 16.75, 18.5})
        o.metrics.sampling.btbMpki.add(x);
    for (const double x : {0.5, 0.0, 1.5})
        o.metrics.sampling.l1iMpki.add(x);

    const std::string line = sweepio::encodeOutcome(o);
    const SweepOutcome back = sweepio::decodeOutcome(line);
    EXPECT_TRUE(back.point.sampling == o.point.sampling);
    EXPECT_TRUE(back.metrics.sampling == o.metrics.sampling);
    EXPECT_EQ(sweepio::encodeOutcome(back), line);

    const std::string point_line = sweepio::encode(o.point);
    EXPECT_TRUE(sweepio::decode<SweepPoint>(point_line).sampling ==
                o.point.sampling);
}

// Exact points and outcomes encode byte-identically to the
// pre-sampling format: no "sampling" key anywhere.
TEST(SamplingCodec, ExactEncodingCarriesNoSamplingFields)
{
    SweepOutcome o;
    o.point.kind = FrontendKind::Baseline;
    o.point.workload = allWorkloads().front();
    o.seed = 1;
    o.metrics.cores.resize(1);
    o.metrics.cores[0].retired = 1'000;
    o.metrics.cores[0].cycles = 1'500;

    EXPECT_EQ(sweepio::encode(o.point).find("sampling"), std::string::npos);
    EXPECT_EQ(sweepio::encodeOutcome(o).find("sampling"), std::string::npos);

    const SweepOutcome back = sweepio::decodeOutcome(sweepio::encodeOutcome(o));
    EXPECT_FALSE(back.point.sampling.enabled());
    EXPECT_FALSE(back.metrics.sampling.valid());
}

// Sharded sweeps merge sampled outcomes without touching estimators.
TEST(SamplingSweep, MergeCarriesSampledEstimates)
{
    SweepResult a, b;
    SweepOutcome oa, ob;
    oa.point.kind = FrontendKind::Confluence;
    oa.point.workload = allWorkloads()[0];
    oa.point.sampling = SamplingSpec{2'000, 4'000, 12'500, 1};
    oa.metrics.cores.resize(1);
    oa.metrics.sampling.cpi.add(1.25);
    oa.metrics.sampling.cpi.add(1.75);
    ob = oa;
    ob.point.workload = allWorkloads()[1];
    ob.metrics.sampling.cpi.add(2.0);
    a.points.push_back(oa);
    b.points.push_back(ob);

    a.merge(std::move(b));
    ASSERT_EQ(a.points.size(), 2u);
    const SweepOutcome *fa =
        a.find(FrontendKind::Confluence, allWorkloads()[0]);
    const SweepOutcome *fb =
        a.find(FrontendKind::Confluence, allWorkloads()[1]);
    ASSERT_NE(fa, nullptr);
    ASSERT_NE(fb, nullptr);
    EXPECT_TRUE(fa->metrics.sampling == oa.metrics.sampling);
    EXPECT_TRUE(fb->metrics.sampling == ob.metrics.sampling);
}
