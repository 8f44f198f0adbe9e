/**
 * @file Tests for the deterministic fault-injection subsystem: plan
 * spec parse/encode round trips, pure per-(site, hit) decisions, pin
 * overrides, faultWrite's short/torn/ENOSPC semantics, and — the part
 * that matters — the degraded-not-dead behaviour of every instrumented
 * durability path: the result cache and regression history surviving
 * write failures, the queue log skipping torn records, a failed
 * completion publish re-pending its task at once as one strike, poison
 * tasks landing in quarantine, and injected clock skew flowing into
 * lease deadlines.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "death_test_style.hh"
#include "dispatch/history.hh"
#include "dispatch/result_cache.hh"
#include "fault/fault.hh"
#include "queue/backend.hh"
#include "queue/queue.hh"
#include "sweepio/codec.hh"
#include "sweepio/queue_codec.hh"

using namespace cfl;
using namespace cfl::fault;
using namespace cfl::queue;
namespace fs = std::filesystem;

namespace
{

std::string
tmpPath(const std::string &name)
{
    const std::string path = ::testing::TempDir() + "fault_" + name;
    fs::remove_all(path);
    return path;
}

FaultPlan
parsed(const std::string &spec)
{
    FaultPlan plan;
    std::string error;
    EXPECT_TRUE(FaultPlan::parse(spec, &plan, &error)) << error;
    return plan;
}

/** A pin-only plan: fire @p kind at hit @p hit of @p site. */
FaultPlan
pinPlan(const std::string &site, std::uint64_t hit, Kind kind,
        std::int64_t arg = 0, bool has_arg = false)
{
    FaultPlan plan;
    plan.pins.push_back({site, hit, kind, has_arg, arg});
    return plan;
}

RunScale
quickScale()
{
    RunScale scale;
    scale.timingWarmupInsts = 800'000;
    scale.timingMeasureInsts = 400'000;
    scale.timingCores = 1;
    return scale;
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

sweepio::TaskRecord
makeTask(const std::string &id)
{
    sweepio::TaskRecord task;
    task.id = id;
    task.command = "true";
    return task;
}

std::atomic<std::uint64_t> g_fakeNowMs{0};

std::uint64_t
fakeNow()
{
    return g_fakeNowMs.load();
}

} // namespace

// ---------------------------------------------------------------------------
// Plan spec: parse, encode, errors
// ---------------------------------------------------------------------------

TEST(FaultPlanSpec, ParsesEveryField)
{
    const FaultPlan plan = parsed(
        "seed=42;rate=0.25;kinds=short-write,die;"
        "sites=queue.,cache.flush;pin=queue.done.write@3:eio;"
        "pin=sweep.result.publish@0:die:7;log=/tmp/f.log;"
        "die-exit=9;skew-cap-ms=1234");
    EXPECT_EQ(plan.seed, 42u);
    EXPECT_DOUBLE_EQ(plan.rate, 0.25);
    ASSERT_EQ(plan.kinds.size(), 2u);
    EXPECT_EQ(plan.kinds[0], Kind::ShortWrite);
    EXPECT_EQ(plan.kinds[1], Kind::Die);
    ASSERT_EQ(plan.sitePrefixes.size(), 2u);
    EXPECT_EQ(plan.sitePrefixes[0], "queue.");
    ASSERT_EQ(plan.pins.size(), 2u);
    EXPECT_EQ(plan.pins[0].site, "queue.done.write");
    EXPECT_EQ(plan.pins[0].hit, 3u);
    EXPECT_EQ(plan.pins[0].kind, Kind::Eio);
    EXPECT_FALSE(plan.pins[0].hasArg);
    EXPECT_TRUE(plan.pins[1].hasArg);
    EXPECT_EQ(plan.pins[1].arg, 7);
    EXPECT_EQ(plan.logPath, "/tmp/f.log");
    EXPECT_EQ(plan.dieExit, 9);
    EXPECT_EQ(plan.skewCapMs, 1234);
}

TEST(FaultPlanSpec, EncodeParsesBackToAnEqualPlan)
{
    // The chaos driver builds plans programmatically and ships them
    // through the environment, so encode() must survive parse().
    const FaultPlan plan = parsed(
        "seed=7;rate=0.031415;kinds=enospc,rename-fail,clock-skew;"
        "sites=queue.,worker.;pin=queue.lease.write@2:short-write:99;"
        "log=/tmp/x.log;skew-cap-ms=5000");
    const FaultPlan back = parsed(plan.encode());
    EXPECT_EQ(back.encode(), plan.encode());
    EXPECT_EQ(back.seed, plan.seed);
    EXPECT_DOUBLE_EQ(back.rate, plan.rate);
    EXPECT_EQ(back.kinds, plan.kinds);
    EXPECT_EQ(back.sitePrefixes, plan.sitePrefixes);
    ASSERT_EQ(back.pins.size(), 1u);
    EXPECT_EQ(back.pins[0].arg, 99);
    // Same decisions on both sides of the round trip.
    for (std::uint64_t hit = 0; hit < 64; ++hit) {
        const Decision a = plan.decide("queue.done.write", hit);
        const Decision b = back.decide("queue.done.write", hit);
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.arg, b.arg);
    }
}

TEST(FaultPlanSpec, RejectsMalformedSpecs)
{
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::parse("rate=2.0", &plan, &error));
    EXPECT_FALSE(FaultPlan::parse("kinds=exploding", &plan, &error));
    EXPECT_FALSE(FaultPlan::parse("pin=no-at-sign", &plan, &error));
    EXPECT_FALSE(FaultPlan::parse("pin=site@x:die", &plan, &error));
    EXPECT_FALSE(FaultPlan::parse("frobnicate=1", &plan, &error));
    EXPECT_FALSE(error.empty());
}

TEST(FaultPlanSpec, KindSlugsRoundTrip)
{
    for (const Kind kind :
         {Kind::ShortWrite, Kind::Enospc, Kind::Eio, Kind::RenameFail,
          Kind::Die, Kind::Kill, Kind::ClockSkew}) {
        const auto back = kindFromSlug(kindSlug(kind));
        ASSERT_TRUE(back.has_value()) << kindSlug(kind);
        EXPECT_EQ(*back, kind);
    }
    EXPECT_FALSE(kindFromSlug("none-of-the-above").has_value());
}

// ---------------------------------------------------------------------------
// decide(): purity, rates, prefixes, pins
// ---------------------------------------------------------------------------

TEST(FaultDecide, IsPureAndSeedSensitive)
{
    const FaultPlan a = parsed("seed=1;rate=0.5;kinds=eio");
    const FaultPlan b = parsed("seed=2;rate=0.5;kinds=eio");
    bool differs = false;
    for (std::uint64_t hit = 0; hit < 256; ++hit) {
        EXPECT_EQ(a.decide("queue.done.write", hit).kind,
                  a.decide("queue.done.write", hit).kind);
        if (a.decide("queue.done.write", hit).kind !=
            b.decide("queue.done.write", hit).kind)
            differs = true;
    }
    EXPECT_TRUE(differs); // different seeds, different schedules
}

TEST(FaultDecide, RateBoundariesAndPrefixFilter)
{
    const FaultPlan never = parsed("seed=3;rate=0;kinds=eio");
    const FaultPlan always =
        parsed("seed=3;rate=1;kinds=eio;sites=queue.");
    for (std::uint64_t hit = 0; hit < 64; ++hit) {
        EXPECT_EQ(never.decide("queue.done.write", hit).kind,
                  Kind::None);
        EXPECT_EQ(always.decide("queue.done.write", hit).kind,
                  Kind::Eio);
        // Site outside every configured prefix: the rate never fires.
        EXPECT_EQ(always.decide("cache.flush.write", hit).kind,
                  Kind::None);
    }
}

TEST(FaultDecide, PinsOverrideTheRateAndDefaultTheirArgs)
{
    FaultPlan plan = parsed("seed=3;rate=1;kinds=eio;die-exit=11;"
                            "skew-cap-ms=400;"
                            "pin=queue.done.write@2:die;"
                            "pin=queue.clock@0:clock-skew");
    // Hit 2 fires the pinned death (with the plan's die-exit), even
    // though the rate would have fired EIO.
    const Decision die = plan.decide("queue.done.write", 2);
    EXPECT_EQ(die.kind, Kind::Die);
    EXPECT_EQ(die.arg, 11);
    // The pinned skew defaults into [-cap, +cap].
    const Decision skew = plan.decide("queue.clock", 0);
    EXPECT_EQ(skew.kind, Kind::ClockSkew);
    EXPECT_GE(skew.arg, -400);
    EXPECT_LE(skew.arg, 400);
}

// ---------------------------------------------------------------------------
// faultWrite semantics on a real descriptor
// ---------------------------------------------------------------------------

TEST(FaultWrite, ShortWriteLandsAProperPrefix)
{
    ScopedPlanForTesting scoped(
        pinPlan("test.write", 0, Kind::ShortWrite, 7, true));
    const std::string path = tmpPath("short.bin");
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    const std::string data = "0123456789";
    const ssize_t n =
        faultWrite(fd, data.data(), data.size(), "test.write");
    ASSERT_GT(n, 0);
    ASSERT_LT(n, static_cast<ssize_t>(data.size()));
    // A later hit of the same site is clean: the full write lands.
    EXPECT_EQ(faultWrite(fd, data.data(), data.size(), "test.write"),
              static_cast<ssize_t>(data.size()));
    ::close(fd);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), static_cast<std::size_t>(n) + data.size());
    EXPECT_EQ(bytes.substr(0, static_cast<std::size_t>(n)),
              data.substr(0, static_cast<std::size_t>(n)));
}

TEST(FaultWrite, EnospcTearsThenFailsAndEioLandsNothing)
{
    ScopedPlanForTesting scoped(
        pinPlan("test.enospc", 0, Kind::Enospc, 3, true));
    const std::string path = tmpPath("enospc.bin");
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    ASSERT_GE(fd, 0);
    const std::string data = "abcdefgh";
    errno = 0;
    EXPECT_EQ(faultWrite(fd, data.data(), data.size(), "test.enospc"),
              -1);
    EXPECT_EQ(errno, ENOSPC);
    ::close(fd);
    // The torn prefix (if any) is shorter than the full record.
    EXPECT_LT(fs::file_size(path), data.size());

    clearPlan();
    installPlan(pinPlan("test.eio", 0, Kind::Eio));
    const int fd2 = ::open(path.c_str(), O_WRONLY | O_TRUNC, 0644);
    errno = 0;
    EXPECT_EQ(faultWrite(fd2, data.data(), data.size(), "test.eio"), -1);
    EXPECT_EQ(errno, EIO);
    ::close(fd2);
    EXPECT_EQ(fs::file_size(path), 0u); // EIO lands nothing
    clearPlan();
}

TEST(FaultWrite, FiredFaultsAppendToThePlanLog)
{
    const std::string log = tmpPath("fired.log");
    FaultPlan plan = pinPlan("test.logged", 1, Kind::Eio);
    plan.logPath = log;
    {
        ScopedPlanForTesting scoped(plan);
        char byte = 'x';
        faultWrite(STDERR_FILENO, &byte, 1, "test.logged"); // hit 0
        errno = 0;
        EXPECT_EQ(faultWrite(STDERR_FILENO, &byte, 1, "test.logged"),
                  -1);
    }
    std::ifstream in(log);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("site=test.logged"), std::string::npos);
    EXPECT_NE(line.find("hit=1"), std::string::npos);
    EXPECT_NE(line.find("kind=eio"), std::string::npos);
    EXPECT_FALSE(std::getline(in, line)); // hit 0 fired nothing
}

TEST(FaultCheckpoint, PinnedDeathExitsWithThePlanExitCode)
{
    EXPECT_EXIT(
        {
            installPlan(pinPlan("test.die", 0, Kind::Die, 23, true));
            checkpoint("test.die");
        },
        ::testing::ExitedWithCode(23), "");
    // A pin with no arg dies with the plan's default die-exit 4 —
    // confluence_sweep's documented injected-fault exit code.
    EXPECT_EXIT(
        {
            installPlan(pinPlan("sweep.result.publish", 0, Kind::Die));
            checkpoint("sweep.result.publish");
        },
        ::testing::ExitedWithCode(4), "");
}

// ---------------------------------------------------------------------------
// Result cache: write failures degrade, torn records skip on reload
// ---------------------------------------------------------------------------

TEST(FaultCache, EnospcOnFlushDegradesInsteadOfDying)
{
    const std::string store = tmpPath("cache_enospc.jsonl");
    dispatch::ResultCache cache(store, "v1");
    cache.insert(someOutcome(FrontendKind::Baseline, WorkloadId::DssQry));

    {
        ScopedPlanForTesting scoped(
            pinPlan("cache.flush.write", 0, Kind::Enospc, 0, true));
        cache.flush();
    }
    EXPECT_TRUE(cache.degraded());
    // In-memory lookups still serve the outcome the store lost.
    EXPECT_NE(cache.lookup({FrontendKind::Baseline, WorkloadId::DssQry,
                            quickScale()},
                           sweepPointSeed(FrontendKind::Baseline,
                                          WorkloadId::DssQry)),
              nullptr);
    // Later inserts/flushes are quiet no-ops, not crashes.
    cache.insert(
        someOutcome(FrontendKind::Confluence, WorkloadId::DssQry));
    cache.flush();

    // A fresh cache sees whatever prefix (possibly nothing) landed —
    // and must not crash loading it.
    dispatch::ResultCache reload(store, "v1");
    EXPECT_EQ(reload.lookup({FrontendKind::Confluence,
                             WorkloadId::DssQry, quickScale()},
                            sweepPointSeed(FrontendKind::Confluence,
                                           WorkloadId::DssQry)),
              nullptr);
}

TEST(FaultCache, TornStoreLineIsSkippedOnReload)
{
    const std::string store = tmpPath("cache_torn.jsonl");
    {
        dispatch::ResultCache cache(store, "v1");
        cache.insert(
            someOutcome(FrontendKind::Baseline, WorkloadId::DssQry));
        cache.flush(); // clean first record
        cache.insert(
            someOutcome(FrontendKind::Confluence, WorkloadId::DssQry));
        ScopedPlanForTesting scoped(
            pinPlan("cache.flush.write", 0, Kind::ShortWrite, 12, true));
        cache.flush(); // torn second record
    }
    dispatch::ResultCache reload(store, "v1");
    EXPECT_NE(reload.lookup({FrontendKind::Baseline, WorkloadId::DssQry,
                             quickScale()},
                            sweepPointSeed(FrontendKind::Baseline,
                                           WorkloadId::DssQry)),
              nullptr);
    EXPECT_EQ(reload.lookup({FrontendKind::Confluence,
                             WorkloadId::DssQry, quickScale()},
                            sweepPointSeed(FrontendKind::Confluence,
                                           WorkloadId::DssQry)),
              nullptr);
}

TEST(FaultHistory, AppendFailureKeepsTheEntryInMemory)
{
    const std::string store = tmpPath("history_eio.jsonl");
    dispatch::RegressionHistory history(store);
    dispatch::HistoryEntry entry;
    entry.tag = "run-1";
    entry.geomeans.emplace_back("confluence", 1.25);

    ScopedPlanForTesting scoped(
        pinPlan("history.append.write", 0, Kind::Eio));
    history.append(entry);
    EXPECT_TRUE(history.degraded());
    ASSERT_EQ(history.entries().size(), 1u);
    EXPECT_EQ(history.entries().back().tag, "run-1");
    // Nothing (or a torn prefix) persisted: a reload has no entry.
    dispatch::RegressionHistory reload(store);
    EXPECT_TRUE(reload.entries().empty());
}

// ---------------------------------------------------------------------------
// Queue: torn log appends, completion failure, quarantine, skew
// ---------------------------------------------------------------------------

TEST(FaultQueue, TornLogAppendNeverWedgesTheQueue)
{
    const std::string dir = tmpPath("torn_log");
    WorkQueue queue(dir);
    queue.enqueue(makeTask("task-a")); // no plan active: clean
    {
        // Hits count only while a plan is active, so task-b's append
        // is this plan's hit 0.
        ScopedPlanForTesting scoped(
            pinPlan("queue.log.append", 0, Kind::ShortWrite, 9, true));
        queue.enqueue(makeTask("task-b")); // torn record
    }
    queue.enqueue(makeTask("task-c")); // and the log keeps going

    // The log is an audit trail, not the source of truth: all three
    // tasks are pending and claimable regardless of the torn line.
    EXPECT_EQ(queue.pendingCount(), 3u);
    for (const char *id : {"task-a", "task-b", "task-c"}) {
        const auto claim = queue.claim("w", 60);
        ASSERT_TRUE(claim.has_value());
        EXPECT_EQ(claim->task.id, id);
    }
    // The log reader skips the torn record instead of dying.
    std::ifstream in(dir + "/tasks.jsonl");
    std::string line;
    std::vector<std::string> ids;
    while (std::getline(in, line)) {
        sweepio::QueueLogRecord record;
        if (sweepio::tryDecode(line, &record) &&
            record.op == "enqueue")
            ids.push_back(record.task.id);
    }
    EXPECT_EQ(ids, (std::vector<std::string>{"task-a", "task-c"}));
}

TEST(FaultQueue, FailedCompletionPublishRependsAtOnce)
{
    // Neither a failed done-record write nor a failed rename loses the
    // task or holds it for a lease: while the lease is ours, the task
    // goes back to pending/ at once, logged as one reclaim (strike).
    const std::pair<const char *, Kind> faults[] = {
        {"queue.done.write", Kind::Eio},
        {"queue.done.rename", Kind::RenameFail},
    };
    for (const auto &[site, kind] : faults) {
        SCOPED_TRACE(site);
        g_fakeNowMs = 1'000'000;
        const std::string dir = tmpPath(std::string("done_fail_") + site);
        WorkQueue queue(dir);
        queue.setClockForTesting(&fakeNow);
        queue.enqueue(makeTask("task-a"));

        auto claim = queue.claim("w1", 10);
        ASSERT_TRUE(claim.has_value());
        {
            ScopedPlanForTesting scoped(pinPlan(site, 0, kind));
            queue.complete(*claim, 0);
        }
        EXPECT_FALSE(queue.doneRecord("task-a").has_value());
        EXPECT_EQ(queue.claimedCount(), 0u);

        // Claimable again with no clock advance.
        auto again = queue.claim("w2", 10);
        ASSERT_TRUE(again.has_value());
        queue.complete(*again, 0);
        const auto done = queue.doneRecord("task-a");
        ASSERT_TRUE(done.has_value());
        EXPECT_EQ(done->owner, "w2");
        std::size_t reclaims = 0;
        for (const sweepio::QueueLogRecord &record : queue.readLog())
            reclaims += record.op == "reclaim";
        EXPECT_EQ(reclaims, 1u);
    }
}

TEST(FaultQueue, FailedCompletionPublishLeavesALostLeaseAlone)
{
    // w1's lease ran out and w2 holds the task now: w1's failed
    // publish must leave w2's claim and lease as they are.
    g_fakeNowMs = 1'000'000;
    WorkQueue queue(tmpPath("done_fail_lost_lease"));
    queue.setClockForTesting(&fakeNow);
    queue.enqueue(makeTask("task-a"));
    auto stale = queue.claim("w1", 10);
    ASSERT_TRUE(stale.has_value());
    g_fakeNowMs += 11'000;
    EXPECT_EQ(queue.reclaimExpired(), 1u);
    auto fresh = queue.claim("w2", 10);
    ASSERT_TRUE(fresh.has_value());
    {
        ScopedPlanForTesting scoped(
            pinPlan("queue.done.rename", 0, Kind::RenameFail));
        queue.complete(*stale, 0);
    }
    EXPECT_EQ(queue.claimedCount(), 1u);
    EXPECT_EQ(queue.pendingCount(), 0u);
    EXPECT_TRUE(queue.heartbeat(*fresh, 10));
    queue.complete(*fresh, 0);
    EXPECT_EQ(queue.doneRecord("task-a")->owner, "w2");
}

TEST(FaultQueue, RepeatedlyReclaimedTaskIsQuarantined)
{
    g_fakeNowMs = 1'000'000;
    const std::string dir = tmpPath("quarantine");
    WorkQueue queue(dir);
    queue.setClockForTesting(&fakeNow);
    queue.setQuarantineAfter(2);
    queue.enqueue(makeTask("poison"));

    // Strike 1: claim, die (lease expires), reclaim re-pends.
    ASSERT_TRUE(queue.claim("w1", 10).has_value());
    g_fakeNowMs += 11'000;
    EXPECT_EQ(queue.reclaimExpired(), 1u);
    EXPECT_EQ(queue.quarantinedCount(), 0u);

    // Strike 2: the reclaim quarantines instead of re-pending.
    ASSERT_TRUE(queue.claim("w2", 10).has_value());
    g_fakeNowMs += 11'000;
    queue.reclaimExpired();
    EXPECT_EQ(queue.quarantinedCount(), 1u);
    EXPECT_TRUE(queue.isQuarantined("poison"));
    EXPECT_EQ(queue.pendingCount(), 0u);
    EXPECT_EQ(queue.claimedCount(), 0u);
    EXPECT_EQ(queue.claim("w3", 10), std::nullopt);

    // The quarantine wrote its forensic context and audit record.
    bool have_why = false;
    for (const auto &entry :
         fs::directory_iterator(dir + "/quarantine"))
        if (entry.path().extension() == ".why")
            have_why = true;
    EXPECT_TRUE(have_why);
    std::ifstream in(dir + "/tasks.jsonl");
    std::string line;
    bool have_record = false;
    while (std::getline(in, line)) {
        sweepio::QueueLogRecord record;
        if (sweepio::tryDecode(line, &record) &&
            record.op == "quarantine" && record.task.id == "poison")
            have_record = true;
    }
    EXPECT_TRUE(have_record);
}

TEST(FaultQueue, BackendSurfacesQuarantineAsExitSix)
{
    // Real clock: a worker thread claims the task with a 1s lease and
    // never completes it; the backend's wait loop reclaims the expired
    // lease, quarantines on the first strike, and gives up with the
    // documented no-retry exit code instead of waiting forever.
    WorkQueue queue(tmpPath("backend_quarantine"));
    queue.setQuarantineAfter(1);
    QueueBackend::Options opts;
    opts.slots = 1;
    opts.pollMs = 20;
    QueueBackend backend(queue, opts);

    std::thread claimer([&] {
        while (true) {
            if (queue.claim("doomed-worker", 1).has_value())
                return;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
    });
    const dispatch::RunStatus status =
        backend.run(0, "true --out /dev/null", 30);
    claimer.join();
    EXPECT_EQ(status.exitCode, kExitQuarantined);
    EXPECT_EQ(queue.quarantinedCount(), 1u);
}

TEST(FaultQueue, InjectedClockSkewShiftsLeaseDeadlines)
{
    g_fakeNowMs = 1'000'000;
    ScopedPlanForTesting scoped(
        pinPlan("queue.clock", 0, Kind::ClockSkew, -5000, true));
    WorkQueue queue(tmpPath("skew"));
    queue.setClockForTesting(&fakeNow);
    queue.enqueue(makeTask("task-a"));
    const auto claim = queue.claim("w", 10);
    ASSERT_TRUE(claim.has_value());
    // This process's queue clock runs 5s slow, and the lease deadline
    // it writes inherits that skew.
    EXPECT_EQ(claim->deadlineMs, 1'000'000u - 5'000u + 10'000u);
}
