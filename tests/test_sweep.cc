/**
 * @file Tests for the parallel sweep engine: determinism of parallel vs
 * serial execution, pool mechanics, seeding, and result aggregation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>

#include "death_test_style.hh"
#include "sim/metrics.hh"
#include "sim/sweep.hh"

using namespace cfl;

namespace
{

RunScale
tinyScale()
{
    RunScale scale;
    scale.timingWarmupInsts = 30000;
    scale.timingMeasureInsts = 30000;
    scale.timingCores = 1;
    return scale;
}

/** Per-core metrics must match exactly, not just within tolerance. */
void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.points.size(), b.points.size());
    for (std::size_t i = 0; i < a.points.size(); ++i) {
        const SweepOutcome &x = a.points[i];
        const SweepOutcome &y = b.points[i];
        EXPECT_EQ(x.point.kind, y.point.kind);
        EXPECT_EQ(x.point.workload, y.point.workload);
        EXPECT_EQ(x.seed, y.seed);
        ASSERT_EQ(x.metrics.cores.size(), y.metrics.cores.size());
        for (std::size_t c = 0; c < x.metrics.cores.size(); ++c) {
            EXPECT_EQ(x.metrics.cores[c].retired,
                      y.metrics.cores[c].retired);
            EXPECT_EQ(x.metrics.cores[c].cycles,
                      y.metrics.cores[c].cycles);
            EXPECT_EQ(x.metrics.cores[c].btbTakenMisses,
                      y.metrics.cores[c].btbTakenMisses);
            EXPECT_EQ(x.metrics.cores[c].l1iDemandMisses,
                      y.metrics.cores[c].l1iDemandMisses);
        }
        EXPECT_DOUBLE_EQ(x.metrics.meanIpc(), y.metrics.meanIpc());
        EXPECT_DOUBLE_EQ(x.metrics.meanBtbMpki(),
                         y.metrics.meanBtbMpki());
    }
}

} // namespace

TEST(SweepEngine, DefaultJobsHonorsEnvOverride)
{
    setenv("CONFLUENCE_JOBS", "3", 1);
    EXPECT_EQ(defaultSweepJobs(), 3u);

    // 0 means auto-detect, which is always at least one worker.
    setenv("CONFLUENCE_JOBS", "0", 1);
    EXPECT_GE(defaultSweepJobs(), 1u);

    unsetenv("CONFLUENCE_JOBS");
    EXPECT_GE(defaultSweepJobs(), 1u);
}

TEST(SweepEngine, SingleJobRunsInline)
{
    setenv("CONFLUENCE_JOBS", "1", 1);
    SweepEngine engine; // picks up the env fallback
    unsetenv("CONFLUENCE_JOBS");
    EXPECT_EQ(engine.jobs(), 1u);

    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> count{0};
    engine.parallelFor(8, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++count;
    });
    EXPECT_EQ(count.load(), 8);
}

TEST(SweepEngine, ParallelForRunsEveryIndexOnce)
{
    SweepEngine engine(4);
    EXPECT_EQ(engine.jobs(), 4u);

    std::vector<std::atomic<int>> hits(64);
    engine.parallelFor(hits.size(),
                       [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(SweepEngine, ParallelForEmptyIsANoop)
{
    SweepEngine engine(2);
    bool ran = false;
    engine.parallelFor(0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(SweepEngine, ParallelForPropagatesExceptions)
{
    SweepEngine engine(2);
    EXPECT_THROW(engine.parallelFor(8,
                                    [&](std::size_t i) {
                                        if (i == 5)
                                            throw std::runtime_error("x");
                                    }),
                 std::runtime_error);

    // The pool survives a failed batch.
    std::atomic<int> count{0};
    engine.parallelFor(4, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 4);
}

TEST(SweepEngine, SweepMapCollectsByIndex)
{
    SweepEngine engine(3);
    const auto out = sweepMap(engine, 16, [](std::size_t i) {
        return static_cast<int>(i * i);
    });
    ASSERT_EQ(out.size(), 16u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(SweepEngine, SweepMap2CollectsByGridCell)
{
    SweepEngine engine(3);
    const auto grid =
        sweepMap2(engine, 4, 5, [](std::size_t r, std::size_t c) {
            return static_cast<int>(10 * r + c);
        });
    ASSERT_EQ(grid.size(), 4u);
    for (std::size_t r = 0; r < grid.size(); ++r) {
        ASSERT_EQ(grid[r].size(), 5u);
        for (std::size_t c = 0; c < grid[r].size(); ++c)
            EXPECT_EQ(grid[r][c], static_cast<int>(10 * r + c));
    }
}

TEST(Sweep, WithBaselineAppendsOnlyWhenMissing)
{
    const auto appended = withBaseline({FrontendKind::Confluence});
    ASSERT_EQ(appended.size(), 2u);
    EXPECT_EQ(appended[1], FrontendKind::Baseline);

    const auto unchanged =
        withBaseline({FrontendKind::Baseline, FrontendKind::Ideal});
    EXPECT_EQ(unchanged.size(), 2u);
}

TEST(Sweep, PointSeedIsPureAndDistinct)
{
    const auto s1 =
        sweepPointSeed(FrontendKind::Baseline, WorkloadId::DssQry);
    EXPECT_EQ(s1,
              sweepPointSeed(FrontendKind::Baseline, WorkloadId::DssQry));
    EXPECT_NE(s1, sweepPointSeed(FrontendKind::Confluence,
                                 WorkloadId::DssQry));
    EXPECT_NE(s1, sweepPointSeed(FrontendKind::Baseline,
                                 WorkloadId::OltpDb2));
}

TEST(Sweep, EmptySweepYieldsEmptyResult)
{
    SweepEngine engine(2);
    const SystemConfig cfg = makeSystemConfig(1);
    const SweepResult r =
        runTimingSweep({}, {WorkloadId::DssQry}, cfg, tinyScale(), engine);
    EXPECT_TRUE(r.points.empty());
    EXPECT_EQ(r.find(FrontendKind::Baseline, WorkloadId::DssQry), nullptr);
    EXPECT_TRUE(r.workloadsOf(FrontendKind::Baseline).empty());
}

TEST(Sweep, SinglePointSweepMatchesCmpRun)
{
    SweepEngine engine(2);
    const SystemConfig cfg = makeSystemConfig(1);
    const RunScale scale = tinyScale();
    const SweepResult r = runTimingSweep(
        {FrontendKind::Baseline}, {WorkloadId::DssQry}, cfg, scale, engine);
    ASSERT_EQ(r.points.size(), 1u);

    const std::uint64_t seed =
        sweepPointSeed(FrontendKind::Baseline, WorkloadId::DssQry);
    EXPECT_EQ(r.points[0].seed, seed);

    // The sweep steps the Cmp phase by phase; Cmp::run must agree.
    Cmp direct(FrontendKind::Baseline, WorkloadId::DssQry, cfg, seed);
    const CmpMetrics m =
        direct.run(scale.timingWarmupInsts, scale.timingMeasureInsts);
    EXPECT_DOUBLE_EQ(r.ipc(FrontendKind::Baseline, WorkloadId::DssQry),
                     m.meanIpc());
    EXPECT_DOUBLE_EQ(r.btbMpki(FrontendKind::Baseline, WorkloadId::DssQry),
                     m.meanBtbMpki());
}

TEST(Sweep, SerialAndParallelRunsAreBitIdentical)
{
    const SystemConfig cfg = makeSystemConfig(1);
    const RunScale scale = tinyScale();
    const std::vector<FrontendKind> kinds = {FrontendKind::Baseline,
                                             FrontendKind::Confluence};
    const std::vector<WorkloadId> workloads = {WorkloadId::DssQry,
                                               WorkloadId::WebFrontend};

    SweepEngine serial(1);
    SweepEngine parallel(4);
    const SweepResult a =
        runTimingSweep(kinds, workloads, cfg, scale, serial);
    const SweepResult b =
        runTimingSweep(kinds, workloads, cfg, scale, parallel);
    expectIdentical(a, b);

    // And a rerun on the same pool is identical too.
    const SweepResult c =
        runTimingSweep(kinds, workloads, cfg, scale, parallel);
    expectIdentical(a, c);
}

TEST(Sweep, AggregationMatchesMetricsHelpers)
{
    SweepEngine engine(2);
    const SystemConfig cfg = makeSystemConfig(1);
    const SweepResult r = runTimingSweep(
        {FrontendKind::Baseline, FrontendKind::Ideal},
        {WorkloadId::DssQry, WorkloadId::MediaStreaming}, cfg, tinyScale(),
        engine);

    const auto speedups =
        r.speedups(FrontendKind::Ideal, FrontendKind::Baseline);
    ASSERT_EQ(speedups.size(), 2u);
    std::vector<double> values;
    for (const auto &[wl, s] : speedups) {
        EXPECT_DOUBLE_EQ(
            s, speedup(r.ipc(FrontendKind::Ideal, wl),
                       r.ipc(FrontendKind::Baseline, wl)));
        values.push_back(s);
    }
    EXPECT_DOUBLE_EQ(
        r.geomeanSpeedup(FrontendKind::Ideal, FrontendKind::Baseline),
        geomean(values));
    EXPECT_DOUBLE_EQ(
        r.geomeanSpeedup(FrontendKind::Baseline, FrontendKind::Baseline),
        1.0);
}

TEST(Sweep, FindPanicsOnDuplicatePoints)
{
    // A result holding the same (kind, workload) twice means a shard
    // was merged twice; find must fail loudly, not return the first
    // copy silently.
    SweepEngine engine(1);
    const SystemConfig cfg = makeSystemConfig(1);
    const RunScale scale = tinyScale();
    SweepResult a = runTimingSweep({FrontendKind::Baseline},
                                   {WorkloadId::DssQry}, cfg, scale,
                                   engine);
    SweepResult b = runTimingSweep({FrontendKind::Baseline},
                                   {WorkloadId::DssQry}, cfg, scale,
                                   engine);
    a.merge(std::move(b));
    ASSERT_EQ(a.points.size(), 2u);
    EXPECT_DEATH(a.find(FrontendKind::Baseline, WorkloadId::DssQry),
                 "duplicate sweep point");

    // Distinct points keep working even with the duplicate present.
    EXPECT_EQ(a.find(FrontendKind::Ideal, WorkloadId::DssQry), nullptr);
}

TEST(Sweep, MergeAppendsOutcomes)
{
    SweepEngine engine(2);
    const SystemConfig cfg = makeSystemConfig(1);
    const RunScale scale = tinyScale();
    SweepResult a = runTimingSweep({FrontendKind::Baseline},
                                   {WorkloadId::DssQry}, cfg, scale,
                                   engine);
    SweepResult b = runTimingSweep({FrontendKind::Ideal},
                                   {WorkloadId::DssQry}, cfg, scale,
                                   engine);
    const double ideal_ipc = b.ipc(FrontendKind::Ideal, WorkloadId::DssQry);

    a.merge(std::move(b));
    ASSERT_EQ(a.points.size(), 2u);
    EXPECT_DOUBLE_EQ(a.ipc(FrontendKind::Ideal, WorkloadId::DssQry),
                     ideal_ipc);
    EXPECT_GT(a.geomeanSpeedup(FrontendKind::Ideal,
                               FrontendKind::Baseline),
              1.0);
}
