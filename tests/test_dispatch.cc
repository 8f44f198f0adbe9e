/**
 * @file Tests for the dispatch subsystem: result-cache key stability
 * (same point+seed → same digest across runs; code-version bump →
 * miss), the content-addressed store round trip, shard retry and
 * exhaustion, the no-retry classification of corrupt-shard exit codes,
 * retry of an injected child kill, the local backend's timeout
 * enforcement, and shell quoting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "death_test_style.hh"
#include "dispatch/backend.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/history.hh"
#include "dispatch/result_cache.hh"
#include "fault/fault.hh"
#include "sweepio/codec.hh"
#include "sweepio/digest.hh"

using namespace cfl;
using namespace cfl::dispatch;

namespace
{

RunScale
quickScale()
{
    RunScale scale;
    scale.timingWarmupInsts = 800'000;
    scale.timingMeasureInsts = 400'000;
    scale.timingCores = 1;
    return scale;
}

SweepPoint
somePoint()
{
    return {FrontendKind::Confluence, WorkloadId::DssQry, quickScale()};
}

SweepOutcome
someOutcome(FrontendKind kind, WorkloadId workload)
{
    SweepOutcome o;
    o.point = {kind, workload, quickScale()};
    o.seed = sweepPointSeed(kind, workload);
    CoreMetrics core;
    core.retired = 1000 + static_cast<Counter>(kind);
    core.cycles = 2000 + static_cast<Counter>(workload);
    o.metrics.cores.push_back(core);
    return o;
}

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "dispatch_" + name;
}

/**
 * A scriptable backend: fails the first @p failures attempts of the
 * shards listed in @p failShards (with @p failExit), records every
 * command it runs, and never touches the OS.
 */
class FakeBackend : public WorkerBackend
{
  public:
    FakeBackend(unsigned workers, std::set<unsigned> fail_shards,
                unsigned failures, int fail_exit = 1)
        : workers_(workers), failShards_(std::move(fail_shards)),
          failures_(failures), failExit_(fail_exit)
    {
    }

    unsigned workers() const override { return workers_; }

    RunStatus run(unsigned, const std::string &command,
                  unsigned) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Commands embed "shard<K>" (the driver's spec naming); the
        // fake encodes the shard index directly instead.
        const unsigned shard = static_cast<unsigned>(
            std::stoul(command.substr(command.rfind(' ') + 1)));
        calls_.push_back(command);
        RunStatus status;
        if (failShards_.count(shard) != 0 &&
            attempts_[shard]++ < failures_)
            status.exitCode = failExit_;
        return status;
    }

    std::vector<std::string> calls() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return calls_;
    }

  private:
    mutable std::mutex mutex_;
    unsigned workers_;
    std::set<unsigned> failShards_;
    unsigned failures_;
    int failExit_;
    std::map<unsigned, unsigned> attempts_;
    std::vector<std::string> calls_;
};

std::vector<ShardJob>
fakeJobs(unsigned count)
{
    std::vector<ShardJob> jobs;
    for (unsigned k = 0; k < count; ++k)
        jobs.push_back({k, "run " + std::to_string(k)});
    return jobs;
}

} // namespace

// ---------------------------------------------------------------------------
// Digest / cache key stability
// ---------------------------------------------------------------------------

TEST(DispatchDigest, StableAcrossCallsAndInstances)
{
    const SweepPoint point = somePoint();
    const std::uint64_t seed =
        sweepPointSeed(point.kind, point.workload);

    const std::string a = sweepio::pointDigest(point, seed, "v1");
    const std::string b = sweepio::pointDigest(point, seed, "v1");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 16u);

    // The key is a pure function of content, not of process state:
    // a fresh cache instance computes the identical key.
    ResultCache cache1(tmpPath("nonexistent.jsonl"), "v1");
    ResultCache cache2(tmpPath("nonexistent.jsonl"), "v1");
    EXPECT_EQ(cache1.key(point, seed), cache2.key(point, seed));
    EXPECT_EQ(cache1.key(point, seed), a);
}

TEST(DispatchDigest, EveryCoordinateChangesTheKey)
{
    const SweepPoint point = somePoint();
    const std::uint64_t seed =
        sweepPointSeed(point.kind, point.workload);
    const std::string base = sweepio::pointDigest(point, seed, "v1");

    // Seed bump → different key.
    EXPECT_NE(sweepio::pointDigest(point, seed + 1, "v1"), base);
    // Code-version bump → different key.
    EXPECT_NE(sweepio::pointDigest(point, seed, "v2"), base);
    // Scale knob change → different key.
    SweepPoint scaled = point;
    scaled.scale.timingMeasureInsts += 1;
    EXPECT_NE(sweepio::pointDigest(scaled, seed, "v1"), base);
    // Distinct (kind, workload) pairs → pairwise-distinct keys.
    std::set<std::string> keys;
    for (const FrontendKind kind : allFrontendKinds())
        for (const WorkloadId wl : allWorkloads()) {
            SweepPoint p{kind, wl, quickScale()};
            keys.insert(sweepio::pointDigest(
                p, sweepPointSeed(kind, wl), "v1"));
        }
    EXPECT_EQ(keys.size(),
              allFrontendKinds().size() * allWorkloads().size());
}

// ---------------------------------------------------------------------------
// Result cache store
// ---------------------------------------------------------------------------

TEST(ResultCache, MissOnEmptyThenHitAfterInsert)
{
    const std::string store = tmpPath("cache_mem.jsonl");
    std::remove(store.c_str());

    ResultCache cache(store, "v1");
    const SweepOutcome outcome =
        someOutcome(FrontendKind::Confluence, WorkloadId::DssQry);
    EXPECT_EQ(cache.lookup(outcome.point, outcome.seed), nullptr);
    EXPECT_EQ(cache.misses(), 1u);

    cache.insert(outcome);
    const SweepOutcome *hit = cache.lookup(outcome.point, outcome.seed);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(sweepio::encodeOutcome(*hit),
              sweepio::encodeOutcome(outcome));
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(ResultCache, RoundTripsThroughStoreFile)
{
    const std::string store = tmpPath("cache_store.jsonl");
    std::remove(store.c_str());

    const SweepOutcome a =
        someOutcome(FrontendKind::Confluence, WorkloadId::DssQry);
    const SweepOutcome b =
        someOutcome(FrontendKind::Baseline, WorkloadId::WebFrontend);
    {
        ResultCache cache(store, "v1");
        cache.insert(a);
        cache.insert(b);
        cache.flush();
    }

    // A new instance (a new process, in the real workflow) sees both
    // entries byte-identically.
    ResultCache cache(store, "v1");
    EXPECT_EQ(cache.size(), 2u);
    const SweepOutcome *hit = cache.lookup(a.point, a.seed);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(sweepio::encodeOutcome(*hit), sweepio::encodeOutcome(a));

    // Same store under a bumped code version: every lookup misses, so
    // a simulator change can never serve stale metrics.
    ResultCache bumped(store, "v2");
    EXPECT_EQ(bumped.lookup(a.point, a.seed), nullptr);
    EXPECT_EQ(bumped.lookup(b.point, b.seed), nullptr);
    EXPECT_EQ(bumped.misses(), 2u);

    std::remove(store.c_str());
}

TEST(ResultCache, SkipsTornAndForeignStoreLinesInsteadOfDying)
{
    const std::string store = tmpPath("cache_torn.jsonl");
    std::remove(store.c_str());

    const SweepOutcome good =
        someOutcome(FrontendKind::Confluence, WorkloadId::DssQry);
    {
        ResultCache cache(store, "v1");
        cache.insert(good);
        cache.flush();
    }
    // Corrupt the shared store the two ways real fleets do: an entry
    // appended by a newer binary with a kind this build doesn't know,
    // and a line torn by a process killed mid-append.
    {
        std::string foreign = sweepio::encode(
            sweepio::CacheEntry{std::string(16, '0'), good});
        const std::size_t slug = foreign.find("\"confluence\"");
        ASSERT_NE(slug, std::string::npos);
        foreign.replace(slug, 12, "\"warp_drive\"");
        std::ofstream out(store, std::ios::app);
        out << foreign << '\n' << "{\"key\":\"torn";
    }

    ResultCache cache(store, "v1");
    EXPECT_EQ(cache.size(), 1u); // both bad lines skipped, not fatal
    const SweepOutcome *hit = cache.lookup(good.point, good.seed);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(sweepio::encodeOutcome(*hit),
              sweepio::encodeOutcome(good));
    std::remove(store.c_str());
}

TEST(ResultCache, ReinsertingIdenticalOutcomeDoesNotGrowTheStore)
{
    const std::string store = tmpPath("cache_regrow.jsonl");
    std::remove(store.c_str());

    const SweepOutcome a =
        someOutcome(FrontendKind::Confluence, WorkloadId::DssQry);
    ResultCache cache(store, "v1");
    cache.insert(a);
    cache.flush();
    cache.insert(a); // byte-identical re-insert
    cache.flush();

    ResultCache back(store, "v1");
    EXPECT_EQ(back.size(), 1u);
    std::remove(store.c_str());
}

TEST(ResultCache, StoreIsOpenedOncePerRunNotPerLookupOrFlush)
{
    const std::string store = tmpPath("cache_opens.jsonl");
    std::remove(store.c_str());

    ResultCache::resetStoreOpensForTesting();
    ResultCache cache(store, "v1");
    EXPECT_EQ(ResultCache::storeOpens(), 1u); // the load

    // A long-lived user (the worker daemon) looks up and flushes once
    // per task for hours; the store must not reopen per operation.
    for (unsigned i = 0; i < 8; ++i) {
        const SweepOutcome outcome = someOutcome(
            FrontendKind::Confluence,
            allWorkloads()[i % allWorkloads().size()]);
        (void)cache.lookup(outcome.point, outcome.seed);
        cache.insert(outcome);
        cache.flush();
    }
    // Exactly one more open: the append descriptor, taken lazily on
    // the first flush and reused by the other seven.
    EXPECT_EQ(ResultCache::storeOpens(), 2u);
    std::remove(store.c_str());
}

TEST(RegressionHistory, StoreIsOpenedOncePerRunNotPerAppend)
{
    const std::string path = tmpPath("history_opens.jsonl");
    std::remove(path.c_str());

    RegressionHistory::resetStoreOpensForTesting();
    RegressionHistory history(path);
    EXPECT_EQ(RegressionHistory::storeOpens(), 1u); // the load
    for (unsigned i = 0; i < 5; ++i) {
        HistoryEntry entry;
        entry.tag = "commit-" + std::to_string(i);
        entry.geomeans = {{"confluence", 1.0 + i}};
        history.append(entry);
    }
    // One more open for the append descriptor, shared by all five.
    EXPECT_EQ(RegressionHistory::storeOpens(), 2u);

    // And everything written through the shared descriptor reloads.
    RegressionHistory back(path);
    EXPECT_EQ(back.entries().size(), 5u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Shard scheduling: retry, exhaustion, no-retry classification
// ---------------------------------------------------------------------------

TEST(DispatchShards, FailedShardIsRetriedUntilItSucceeds)
{
    FakeBackend backend(3, {1}, 1);
    RetryPolicy policy;
    policy.maxAttempts = 3;

    const std::vector<ShardRun> runs =
        dispatchShards(backend, fakeJobs(3), policy);
    ASSERT_EQ(runs.size(), 3u);
    for (const ShardRun &run : runs)
        EXPECT_TRUE(run.ok) << "shard " << run.shard;

    const ShardRun &faulty = runs[1];
    EXPECT_EQ(faulty.shard, 1u);
    EXPECT_EQ(faulty.attempts, 2u);
    EXPECT_EQ(faulty.lastExit, 0);
    // The healthy shards succeeded on their first attempt.
    EXPECT_EQ(runs[0].attempts, 1u);
    EXPECT_EQ(runs[2].attempts, 1u);
    const std::vector<std::string> calls = backend.calls();
    EXPECT_EQ(calls.size(), 4u);
    EXPECT_EQ(std::count(calls.begin(), calls.end(), "run 1"), 2);
}

TEST(DispatchShards, ExhaustsItsAttemptsThenFails)
{
    FakeBackend backend(3, {0}, 1000, 9);
    RetryPolicy policy;
    policy.maxAttempts = 3;

    const std::vector<ShardRun> runs =
        dispatchShards(backend, fakeJobs(1), policy);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_FALSE(runs[0].ok);
    EXPECT_EQ(runs[0].attempts, 3u);
    EXPECT_EQ(runs[0].lastExit, 9);
    EXPECT_EQ(backend.calls().size(), 3u);
}

TEST(DispatchShards, SingleAttemptPolicyNeverRetries)
{
    FakeBackend backend(2, {0}, 1);
    RetryPolicy policy;
    policy.maxAttempts = 1;

    const std::vector<ShardRun> runs =
        dispatchShards(backend, fakeJobs(2), policy);
    ASSERT_EQ(runs.size(), 2u);
    // One failure exhausts a one-attempt budget: no retry, no backoff,
    // and the healthy shard is unaffected.
    EXPECT_FALSE(runs[0].ok);
    EXPECT_EQ(runs[0].attempts, 1u);
    EXPECT_EQ(runs[0].lastExit, 1);
    EXPECT_EQ(runs[0].backoffMs, 0u);
    EXPECT_TRUE(runs[1].ok);
    EXPECT_EQ(backend.calls().size(), 2u);
}

TEST(DispatchShards, CorruptShardExitCodeIsNeverRetried)
{
    // Exit 3 is confluence_sweep's duplicate-point rejection: the
    // input is corrupt, so retrying elsewhere cannot succeed.
    FakeBackend backend(3, {0}, 1000, 3);
    RetryPolicy policy;
    policy.maxAttempts = 5;

    const std::vector<ShardRun> runs =
        dispatchShards(backend, fakeJobs(1), policy);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_FALSE(runs[0].ok);
    EXPECT_EQ(runs[0].attempts, 1u);
    EXPECT_EQ(runs[0].lastExit, 3);
}

TEST(DispatchShards, InjectedChildKillIsRetriedOnce)
{
    // CI's crash injection: the second shard child this process spawns
    // is SIGKILLed. Each child outlives the kill's window, so the kill
    // always lands on a live process.
    fault::FaultPlan plan;
    plan.pins.push_back(
        {"dispatch.child.kill", 1, fault::Kind::Eio, false, 0});
    fault::ScopedPlanForTesting scoped(plan);

    LocalBackend backend(2);
    std::vector<ShardJob> jobs;
    for (unsigned k = 0; k < 3; ++k)
        jobs.push_back({k, "sleep 0.5"});
    RetryPolicy policy;
    policy.maxAttempts = 3;
    policy.backoffBaseMs = 1;

    const std::vector<ShardRun> runs =
        dispatchShards(backend, jobs, policy);
    ASSERT_EQ(runs.size(), 3u);
    unsigned retried = 0;
    for (const ShardRun &run : runs) {
        EXPECT_TRUE(run.ok) << "shard " << run.shard;
        EXPECT_EQ(run.lastExit, 0);
        if (run.attempts == 2)
            ++retried;
        else
            EXPECT_EQ(run.attempts, 1u) << "shard " << run.shard;
    }
    EXPECT_EQ(retried, 1u);
}

// ---------------------------------------------------------------------------
// Retry backoff: deterministic jittered delays, stats accounting
// ---------------------------------------------------------------------------

TEST(DispatchBackoff, DelayIsDeterministicBoundedAndCapped)
{
    RetryPolicy policy;
    policy.backoffBaseMs = 100;
    policy.backoffCapMs = 5000;
    policy.backoffSeed = 42;

    // No failures yet, or backoff disabled: no delay.
    EXPECT_EQ(backoffDelayMs(policy, 0, 0), 0u);
    RetryPolicy off = policy;
    off.backoffBaseMs = 0;
    EXPECT_EQ(backoffDelayMs(off, 0, 3), 0u);

    for (unsigned shard = 0; shard < 4; ++shard) {
        for (unsigned failures = 1; failures < 12; ++failures) {
            const std::uint64_t delay =
                backoffDelayMs(policy, shard, failures);
            // Deterministic: same (policy, shard, failures) in a
            // restarted coordinator waits the same time.
            EXPECT_EQ(delay, backoffDelayMs(policy, shard, failures));
            // Jitter stays within [nominal/2, nominal], nominal being
            // the capped exponential base << (failures-1).
            const std::uint64_t nominal = std::min<std::uint64_t>(
                policy.backoffCapMs,
                static_cast<std::uint64_t>(policy.backoffBaseMs)
                    << std::min(failures - 1, 20u));
            EXPECT_GE(delay, nominal / 2);
            EXPECT_LE(delay, nominal);
        }
        // Deep failure counts saturate at the cap, never overflow.
        EXPECT_LE(backoffDelayMs(policy, shard, 64), 5000u);
        EXPECT_GE(backoffDelayMs(policy, shard, 64), 2500u);
    }

    // Different shards (and seeds) jitter differently, so a fleet of
    // failing shards does not retry in lockstep.
    bool differs = false;
    for (unsigned shard = 1; shard < 8 && !differs; ++shard)
        differs = backoffDelayMs(policy, shard, 3) !=
                  backoffDelayMs(policy, 0, 3);
    EXPECT_TRUE(differs);
}

TEST(DispatchShards, RetriesAccumulateBackoffIntoTheShardRun)
{
    FakeBackend backend(3, {1}, 2);
    RetryPolicy policy;
    policy.maxAttempts = 4;
    policy.backoffBaseMs = 4; // keep the test fast but nonzero
    policy.backoffCapMs = 50;
    policy.backoffSeed = 7;

    const std::vector<ShardRun> runs =
        dispatchShards(backend, fakeJobs(3), policy);
    ASSERT_EQ(runs.size(), 3u);
    const ShardRun &faulty = runs[1];
    EXPECT_TRUE(faulty.ok);
    EXPECT_EQ(faulty.attempts, 3u);
    // Two failures, two waits — exactly the deterministic delays.
    EXPECT_EQ(faulty.backoffMs, backoffDelayMs(policy, 1, 1) +
                                    backoffDelayMs(policy, 1, 2));
    EXPECT_EQ(runs[0].backoffMs, 0u);
    EXPECT_EQ(runs[2].backoffMs, 0u);
}

// ---------------------------------------------------------------------------
// Cache-only dispatch: zero backend traffic, original point order
// ---------------------------------------------------------------------------

TEST(DispatchedSweep, FullyCachedSweepNeverTouchesTheBackend)
{
    const std::string store = tmpPath("cache_full.jsonl");
    std::remove(store.c_str());
    ResultCache cache(store, "v1");

    // Pre-populate the cache for a 2x2 grid, inserted in an order
    // different from the submission order below.
    std::vector<SweepPoint> points;
    for (const FrontendKind kind :
         {FrontendKind::Baseline, FrontendKind::Confluence})
        for (const WorkloadId wl :
             {WorkloadId::DssQry, WorkloadId::WebFrontend})
            points.push_back({kind, wl, quickScale()});
    for (std::size_t i = points.size(); i-- > 0;)
        cache.insert(someOutcome(points[i].kind, points[i].workload));

    FakeBackend backend(2, {}, 0);
    DispatchOptions opts;
    opts.sweepBin = "unused";
    opts.workDir = tmpPath("cache_full_work");

    DispatchStats stats;
    const SweepResult result =
        runDispatchedSweep(points, backend, opts, &cache, &stats);

    EXPECT_EQ(backend.calls().size(), 0u);
    EXPECT_EQ(stats.cachedPoints, points.size());
    EXPECT_EQ(stats.evaluatedPoints, 0u);
    ASSERT_EQ(result.points.size(), points.size());
    // Reassembly preserves submission order, not insertion order.
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(result.points[i].point.kind, points[i].kind);
        EXPECT_EQ(result.points[i].point.workload, points[i].workload);
    }
    std::remove(store.c_str());
}

// ---------------------------------------------------------------------------
// Local backend: real processes, exit codes, timeout
// ---------------------------------------------------------------------------

TEST(LocalBackend, ReportsExitCodesAndEnforcesTimeouts)
{
    LocalBackend backend(1);

    EXPECT_TRUE(backend.run(0, "true", 0).ok());

    const RunStatus failed = backend.run(0, "exit 7", 0);
    EXPECT_FALSE(failed.ok());
    EXPECT_EQ(failed.exitCode, 7);
    EXPECT_FALSE(failed.timedOut);

    const RunStatus slow = backend.run(0, "sleep 30", 1);
    EXPECT_FALSE(slow.ok());
    EXPECT_TRUE(slow.timedOut);
}

TEST(ShellQuote, PathsWithSpacesAndQuotesSurviveTheShell)
{
    // A worker command against a queue directory that holds spaces and
    // a single quote, quoted once more as one word: both layers must
    // decode back to the original argument.
    const std::string qdir = "/sweeps/queue dir/it's";
    const std::string worker_cmd =
        "./confluence_worker --queue " + shellQuote(qdir);
    EXPECT_EQ(worker_cmd,
              "./confluence_worker --queue "
              "'/sweeps/queue dir/it'\\''s'");
    // eval re-parses the quoted command exactly as /bin/sh -c would,
    // and $3 must be the original queue dir.
    const RunStatus status = runLocalCommand(
        "eval set -- " + shellQuote(worker_cmd) + "; test \"$3\" = " +
            shellQuote(qdir),
        10);
    EXPECT_TRUE(status.ok()) << "sh would not see the original queue dir";
}

// ---------------------------------------------------------------------------
// Regression history
// ---------------------------------------------------------------------------

TEST(RegressionHistory, AppendsAndComparesExactGeomeans)
{
    const std::string path = tmpPath("history.jsonl");
    std::remove(path.c_str());

    HistoryEntry first;
    first.tag = "commit-a";
    first.geomeans = {{"confluence", 1.2175843611061371}};
    HistoryEntry second;
    second.tag = "commit-b";
    second.geomeans = {{"confluence", 1.2175843611061371 * 0.9}};

    {
        RegressionHistory history(path);
        // compare() gates a candidate against the newest stored entry
        // *before* it is appended, so a failed gate leaves the
        // baseline untouched.
        EXPECT_TRUE(history.compare(first).empty());
        history.append(first);
        EXPECT_TRUE(history.deltas().empty());
        const auto gated = history.compare(second);
        ASSERT_EQ(gated.size(), 1u);
        EXPECT_NEAR(gated[0].delta, -0.1, 1e-12);
        history.append(second);
        const auto deltas = history.deltas();
        ASSERT_EQ(deltas.size(), 1u);
        EXPECT_EQ(deltas[0].kind, "confluence");
        EXPECT_NEAR(deltas[0].delta, -0.1, 1e-12);
    }

    // Reloaded from disk, geomeans are bit-exact (stored as IEEE-754
    // bit patterns), so equal results give a delta of exactly zero.
    RegressionHistory back(path);
    ASSERT_EQ(back.entries().size(), 2u);
    EXPECT_EQ(back.entries()[0].geomeans[0].geomean,
              first.geomeans[0].geomean);
    EXPECT_EQ(back.entries()[1].geomeans[0].geomean,
              second.geomeans[0].geomean);
    std::remove(path.c_str());
}

TEST(RegressionHistory, RejectsTagsTheStoreCannotReparse)
{
    const std::string path = tmpPath("history_badtag.jsonl");
    std::remove(path.c_str());
    HistoryEntry entry;
    entry.tag = "v1\"rc";
    entry.geomeans = {{"confluence", 1.0}};
    EXPECT_EXIT(
        {
            RegressionHistory history(path);
            history.append(entry);
        },
        ::testing::ExitedWithCode(1), "cannot hold");
}
