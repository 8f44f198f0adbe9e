/**
 * @file Tests for the persistent work queue: claim mutual exclusion
 * under racing threads (the lease + atomic-rename protocol), FIFO
 * ordering across instances, lease-expiry reclamation on a fake clock,
 * torn-append log recovery, double-completion idempotence, task files
 * of an older naming being fatal, QueueBackend scheduling and timeouts
 * through real worker loops, and the headline crash contract — a
 * coordinator killed mid-dispatch and restarted merges a result
 * byte-identical to the single-process run with no shard evaluated
 * twice.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "death_test_style.hh"
#include "dispatch/backend.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/result_cache.hh"
#include "queue/backend.hh"
#include "queue/queue.hh"
#include "sweepio/codec.hh"
#include "sweepio/queue_codec.hh"
#include "sweepio/shard.hh"

using namespace cfl;
using namespace cfl::queue;
namespace fs = std::filesystem;

namespace
{

/** Fresh queue directory for one test. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "queue_" + name;
    fs::remove_all(dir);
    return dir;
}

sweepio::TaskRecord
makeTask(const std::string &id, const std::string &command = "true",
         const std::string &result = "")
{
    sweepio::TaskRecord task;
    task.id = id;
    task.command = command;
    task.result = result;
    return task;
}

/** Settable wall clock shared by every queue in a test. */
std::atomic<std::uint64_t> g_fakeNowMs{0};

std::uint64_t
fakeNow()
{
    return g_fakeNowMs.load();
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

std::vector<SweepPoint>
goldenPoints()
{
    std::vector<SweepPoint> points;
    for (const FrontendKind kind :
         {FrontendKind::Baseline, FrontendKind::Confluence})
        for (const WorkloadId wl :
             {WorkloadId::DssQry, WorkloadId::WebFrontend})
            points.push_back({kind, wl, quickScale()});
    return points;
}

} // namespace

// ---------------------------------------------------------------------------
// Lifecycle basics
// ---------------------------------------------------------------------------

TEST(WorkQueue, ClaimsAreFifoAndLifecycleRoundTrips)
{
    WorkQueue queue(freshDir("fifo"));
    EXPECT_EQ(queue.claim("w", 60), std::nullopt);

    queue.enqueue(makeTask("task-a", "run a", "a.out"));
    queue.enqueue(makeTask("task-b", "run b"));
    EXPECT_EQ(queue.pendingCount(), 2u);

    auto first = queue.claim("w", 60);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->task.id, "task-a"); // enqueue order, not id order
    EXPECT_EQ(first->task.command, "run a");
    EXPECT_EQ(first->task.result, "a.out");
    EXPECT_EQ(queue.pendingCount(), 1u);
    EXPECT_EQ(queue.claimedCount(), 1u);

    EXPECT_EQ(queue.doneRecord("task-a"), std::nullopt);
    queue.complete(*first, 0);
    const auto done = queue.doneRecord("task-a");
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->exitCode, 0u);
    EXPECT_EQ(done->owner, "w");
    EXPECT_EQ(queue.claimedCount(), 0u);

    auto second = queue.claim("w", 60);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->task.id, "task-b");
    queue.complete(*second, 7);
    EXPECT_EQ(queue.doneRecord("task-b")->exitCode, 7u);

    // The audit log remembers the whole story.
    std::size_t enqueues = 0, dones = 0;
    for (const sweepio::QueueLogRecord &record : queue.readLog()) {
        enqueues += record.op == "enqueue";
        dones += record.op == "done";
    }
    EXPECT_EQ(enqueues, 2u);
    EXPECT_EQ(dones, 2u);
}

TEST(WorkQueue, CancelPendingWithdrawsOnlyUnclaimedTasks)
{
    WorkQueue queue(freshDir("cancel"));
    queue.enqueue(makeTask("keep"));
    queue.enqueue(makeTask("drop1"));
    queue.enqueue(makeTask("drop2"));

    auto claim = queue.claim("w", 60);
    ASSERT_TRUE(claim.has_value());
    EXPECT_EQ(claim->task.id, "keep");

    EXPECT_EQ(queue.cancelPending(), 2u);
    EXPECT_EQ(queue.pendingCount(), 0u);
    EXPECT_EQ(queue.claimedCount(), 1u); // the claimed task survives
    EXPECT_EQ(queue.claim("w2", 60), std::nullopt);
    queue.complete(*claim, 0);
}

TEST(WorkQueue, StopMarkerIsSharedAcrossInstances)
{
    const std::string dir = freshDir("stop");
    WorkQueue coordinator(dir);
    WorkQueue worker(dir); // a second process in real life
    EXPECT_FALSE(worker.stopRequested());
    coordinator.requestStop();
    EXPECT_TRUE(worker.stopRequested());
    // A new dispatch into the same directory withdraws the request, so
    // freshly started workers do not drain and exit mid-run.
    coordinator.clearStop();
    EXPECT_FALSE(worker.stopRequested());
}

// ---------------------------------------------------------------------------
// Mutual exclusion: 8 racing threads, every task claimed exactly once
// ---------------------------------------------------------------------------

TEST(WorkQueue, AtomicClaimIsMutuallyExclusiveUnderRacingThreads)
{
    const std::string dir = freshDir("race");
    WorkQueue setup(dir);
    constexpr unsigned kTasks = 24, kThreads = 8;
    for (unsigned i = 0; i < kTasks; ++i)
        setup.enqueue(makeTask("task-" + std::to_string(i)));

    std::mutex mutex;
    std::map<std::string, unsigned> claims; // id -> times claimed
    std::atomic<unsigned> completed{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread opens the directory itself, like a separate
            // worker process would.
            WorkQueue queue(dir);
            const std::string owner = "w" + std::to_string(t);
            while (completed.load() < kTasks) {
                auto claim = queue.claim(owner, 60);
                if (!claim) {
                    std::this_thread::yield();
                    continue;
                }
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    ++claims[claim->task.id];
                }
                queue.complete(*claim, 0);
                ++completed;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Exactly one claim per task: no double claims, none lost.
    EXPECT_EQ(claims.size(), kTasks);
    for (const auto &[id, count] : claims)
        EXPECT_EQ(count, 1u) << id << " was claimed " << count
                             << " times";
    EXPECT_EQ(setup.pendingCount(), 0u);
    EXPECT_EQ(setup.claimedCount(), 0u);
}

// ---------------------------------------------------------------------------
// Lease expiry and reclamation
// ---------------------------------------------------------------------------

TEST(WorkQueue, ExpiredLeaseIsReclaimedAndReclaimable)
{
    const std::string dir = freshDir("lease");
    g_fakeNowMs = 1'000'000;
    WorkQueue queue(dir);
    queue.setClockForTesting(&fakeNow);

    queue.enqueue(makeTask("slow-task"));
    auto dead = queue.claim("dead-worker", 10); // 10s lease
    ASSERT_TRUE(dead.has_value());

    // While the lease is live, nothing is claimable or reclaimable.
    EXPECT_EQ(queue.claim("other", 10), std::nullopt);
    EXPECT_EQ(queue.reclaimExpired(), 0u);

    // Heartbeats push the deadline out.
    g_fakeNowMs += 8'000;
    EXPECT_TRUE(queue.heartbeat(*dead, 10));
    g_fakeNowMs += 8'000; // past the original deadline, inside renewed
    EXPECT_EQ(queue.reclaimExpired(), 0u);

    // The worker dies: no more heartbeats, the lease runs out.
    g_fakeNowMs += 11'000;
    EXPECT_EQ(queue.reclaimExpired(), 1u);
    EXPECT_EQ(queue.pendingCount(), 1u);

    auto retry = queue.claim("healthy-worker", 10);
    ASSERT_TRUE(retry.has_value());
    EXPECT_EQ(retry->task.id, "slow-task");
    // The dead worker's heartbeat now reports the lease as lost.
    EXPECT_FALSE(queue.heartbeat(*dead, 10));
    queue.complete(*retry, 0);
    EXPECT_EQ(queue.doneRecord("slow-task")->owner, "healthy-worker");
}

TEST(WorkQueue, ReclaimPassReadsTheLogOnce)
{
    // One torn log line and three expired claims: the pass reads the
    // log once, so the torn line is warned about once, and every
    // strike count (and the quarantine it decides) comes from that read.
    const std::string dir = freshDir("reclaim_once");
    g_fakeNowMs = 1'000'000;
    WorkQueue queue(dir);
    queue.setClockForTesting(&fakeNow);
    queue.setQuarantineAfter(3);
    for (const char *id : {"a", "b", "c"})
        queue.enqueue(makeTask(id));
    // Earlier strikes: a twice, b once, c never.
    for (const std::size_t claims : {2, 1}) {
        for (std::size_t i = 0; i < claims; ++i)
            ASSERT_TRUE(queue.claim("dead", 10).has_value());
        g_fakeNowMs += 11'000;
        EXPECT_EQ(queue.reclaimExpired(), claims);
    }
    {
        std::ofstream log(dir + "/tasks.jsonl", std::ios::app);
        log << "{\"op\":\"recl\n";
    }
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(queue.claim("dead", 10).has_value());
    g_fakeNowMs += 11'000;

    ::testing::internal::CaptureStderr();
    EXPECT_EQ(queue.reclaimExpired(), 2u);
    const std::string err = ::testing::internal::GetCapturedStderr();
    std::size_t warnings = 0;
    for (std::size_t at = err.find("skipping unparseable line");
         at != std::string::npos;
         at = err.find("skipping unparseable line", at + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << err;

    // a's third strike quarantines it; b and c go back with 2 and 1.
    EXPECT_TRUE(queue.isQuarantined("a"));
    EXPECT_EQ(queue.pendingCount(), 2u);
    std::map<std::string, std::size_t> strikes;
    for (const sweepio::QueueLogRecord &record : queue.readLog())
        if (record.op == "reclaim")
            ++strikes[record.task.id];
    EXPECT_EQ(strikes, (std::map<std::string, std::size_t>{
                           {"a", 2}, {"b", 2}, {"c", 1}}));
}

TEST(WorkQueue, TornLeaseIsStolenOnceALeaseDurationOld)
{
    // A claimer that died between creating its lease (O_EXCL) and
    // writing it leaves an empty lease file on a pending task.
    const std::string dir = freshDir("torn_lease");
    WorkQueue queue(dir);
    queue.enqueue(makeTask("torn"));
    const std::string lease = dir + "/leases/torn.lease";
    std::ofstream(lease).close();
    ASSERT_TRUE(fs::exists(lease));

    // Fresh, it may be a live claim not yet written: skipped.
    EXPECT_EQ(queue.claim("w", 10), std::nullopt);
    EXPECT_EQ(queue.pendingCount(), 1u);
    EXPECT_TRUE(fs::exists(lease));

    // Older than the 10 s lease duration, it is debris: stolen.
    fs::last_write_time(lease, fs::file_time_type::clock::now() -
                                   std::chrono::seconds(11));
    auto claim = queue.claim("w", 10);
    ASSERT_TRUE(claim.has_value());
    EXPECT_EQ(claim->task.id, "torn");
    EXPECT_EQ(queue.pendingCount(), 0u);
    queue.complete(*claim, 0);
    EXPECT_EQ(queue.doneRecord("torn")->owner, "w");
}

TEST(WorkQueue, HeartbeatsKeepLongTaskAliveFarPastOriginalLease)
{
    // Regression guard for the worker's wall-clock heartbeat loop: a
    // task whose runtime is many multiples of the lease must never be
    // reclaimed while its worker heartbeats on schedule. This is the
    // confluence_worker cadence (heartbeat at half the lease) on a
    // fake clock, run out to 10x the original deadline.
    const std::string dir = freshDir("longtask");
    g_fakeNowMs = 1'000'000;
    WorkQueue queue(dir);
    queue.setClockForTesting(&fakeNow);

    queue.enqueue(makeTask("long-task"));
    auto claim = queue.claim("steady-worker", 10); // 10s lease
    ASSERT_TRUE(claim.has_value());
    const std::uint64_t original_deadline = claim->deadlineMs;

    for (unsigned beat = 0; beat < 20; ++beat) {
        g_fakeNowMs += 5'000; // half the lease per heartbeat
        EXPECT_EQ(queue.reclaimExpired(), 0u)
            << "reclaimed under a live heartbeat, beat " << beat;
        EXPECT_EQ(queue.claim("thief", 10), std::nullopt)
            << "claimable under a live heartbeat, beat " << beat;
        ASSERT_TRUE(queue.heartbeat(*claim, 10))
            << "lease lost despite on-schedule heartbeats, beat "
            << beat;
    }
    // 100s of fake time have passed on a 10s lease.
    EXPECT_GT(g_fakeNowMs, original_deadline + 80'000);
    EXPECT_GT(claim->deadlineMs, original_deadline);
    EXPECT_EQ(queue.claimedCount(), 1u);
    EXPECT_EQ(queue.pendingCount(), 0u);

    queue.complete(*claim, 0);
    EXPECT_EQ(queue.doneRecord("long-task")->owner, "steady-worker");
    EXPECT_EQ(queue.claimedCount(), 0u);
}

// ---------------------------------------------------------------------------
// Double completion is a no-op
// ---------------------------------------------------------------------------

TEST(WorkQueue, SecondCompletionOfATaskIsANoOp)
{
    const std::string dir = freshDir("twice");
    g_fakeNowMs = 1'000'000;
    WorkQueue queue(dir);
    queue.setClockForTesting(&fakeNow);

    queue.enqueue(makeTask("dup-task"));
    auto stale = queue.claim("slow-worker", 10);
    ASSERT_TRUE(stale.has_value());

    // The slow worker stalls past its lease; the task is reclaimed and
    // re-run by a healthy worker, which completes first.
    g_fakeNowMs += 11'000;
    ASSERT_EQ(queue.reclaimExpired(), 1u);
    auto fresh = queue.claim("fast-worker", 10);
    ASSERT_TRUE(fresh.has_value());
    queue.complete(*fresh, 0);

    // Now the stale worker finally finishes the same task: nothing
    // changes — the first completion record stands, and the fast
    // worker's live state is untouched.
    queue.complete(*stale, 0);
    const auto done = queue.doneRecord("dup-task");
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->owner, "fast-worker");

    std::size_t done_records = 0;
    for (const sweepio::QueueLogRecord &record : queue.readLog())
        done_records += record.op == "done";
    EXPECT_EQ(done_records, 1u);
    EXPECT_EQ(queue.pendingCount(), 0u);
    EXPECT_EQ(queue.claimedCount(), 0u);

    // And completing the very same claim twice is equally harmless.
    queue.complete(*fresh, 0);
    EXPECT_EQ(queue.doneRecord("dup-task")->owner, "fast-worker");
}

TEST(WorkQueue, TaskCompletedAfterReclaimIsRetiredNotRerun)
{
    const std::string dir = freshDir("late");
    g_fakeNowMs = 1'000'000;
    WorkQueue queue(dir);
    queue.setClockForTesting(&fakeNow);

    queue.enqueue(makeTask("late-task"));
    auto stale = queue.claim("slow-worker", 10);
    ASSERT_TRUE(stale.has_value());
    g_fakeNowMs += 11'000;
    ASSERT_EQ(queue.reclaimExpired(), 1u); // back to pending

    // The slow worker finishes *before* anyone re-claims: the task is
    // now pending AND done. A claimer must retire it, not run it.
    queue.complete(*stale, 0);
    EXPECT_EQ(queue.pendingCount(), 1u);
    EXPECT_EQ(queue.claim("other-worker", 10), std::nullopt);
    EXPECT_EQ(queue.pendingCount(), 0u); // retired by the claim scan
    EXPECT_EQ(queue.doneRecord("late-task")->owner, "slow-worker");
}

// ---------------------------------------------------------------------------
// Claim order and status snapshots
// ---------------------------------------------------------------------------

TEST(WorkQueue, ClaimOrderIsDeterministicAcrossInstances)
{
    // FIFO is a pure function of the directory state, so a *fresh*
    // instance (a separate worker process in real life) claims the
    // writer's tasks in enqueue order, not in id or name order.
    const std::string dir = freshDir("deterministic");
    const std::vector<std::string> ids = {"zeta", "alpha", "m-3",
                                          "m-10", "beta", "0"};
    {
        WorkQueue setup(dir);
        for (const std::string &id : ids)
            setup.enqueue(makeTask(id));
    }
    WorkQueue observer(dir);
    for (const std::string &want : ids) {
        auto claim = observer.claim("probe", 60);
        ASSERT_TRUE(claim.has_value());
        EXPECT_EQ(claim->task.id, want);
        observer.complete(*claim, 0);
    }
    EXPECT_EQ(observer.claim("probe", 60), std::nullopt);
}

TEST(WorkQueue, StatusSnapshotReportsCountsStopAndLeases)
{
    const std::string dir = freshDir("status");
    g_fakeNowMs = 1'000'000;
    WorkQueue queue(dir);
    queue.setClockForTesting(&fakeNow);

    queue.enqueue(makeTask("s1"));
    queue.enqueue(makeTask("s2"));
    queue.enqueue(makeTask("s3"));
    queue.enqueue(makeTask("s4"));

    auto claim = queue.claim("w1", 60); // s1: first enqueued
    ASSERT_TRUE(claim.has_value());
    ASSERT_EQ(claim->task.id, "s1");
    ASSERT_TRUE(queue.cancelTask("s4"));
    g_fakeNowMs += 2'000;

    sweepio::QueueStatusRecord st = queue.status();
    EXPECT_EQ(st.atMs, g_fakeNowMs.load());
    EXPECT_FALSE(st.stop);
    EXPECT_EQ(st.pending, 2u);
    EXPECT_EQ(st.claimed, 1u);
    EXPECT_EQ(st.done, 0u);
    EXPECT_EQ(st.cancelled, 1u);
    EXPECT_EQ(st.quarantined, 0u);
    ASSERT_EQ(st.leases.size(), 1u);
    EXPECT_EQ(st.leases[0].id, "s1");
    EXPECT_EQ(st.leases[0].owner, "w1");
    EXPECT_EQ(st.leases[0].heartbeatAgeMs, 2'000u);
    EXPECT_EQ(st.leases[0].remainingMs, 58'000u);

    // Heartbeats refresh the lease age the snapshot reports.
    ASSERT_TRUE(queue.heartbeat(*claim, 60));
    g_fakeNowMs += 500;
    st = queue.status();
    ASSERT_EQ(st.leases.size(), 1u);
    EXPECT_EQ(st.leases[0].heartbeatAgeMs, 500u);

    queue.complete(*claim, 0);
    queue.requestStop();
    st = queue.status();
    EXPECT_TRUE(st.stop);
    EXPECT_EQ(st.done, 1u);
    EXPECT_EQ(st.claimed, 0u);
    EXPECT_TRUE(st.leases.empty());

    // The snapshot round-trips through its wire format unchanged.
    const sweepio::QueueStatusRecord wire =
        sweepio::decode<sweepio::QueueStatusRecord>(sweepio::encode(st));
    EXPECT_EQ(sweepio::encode(wire), sweepio::encode(st));
}

TEST(WorkQueue, TaskFileOfAnOlderNamingIsFatal)
{
    // A task file in the naming an older build used (a sort-key
    // prefix before the seq, a submitter field after it) must not be
    // silently skipped: nothing would ever claim, count or cancel it.
    // Each death-test child re-runs this setup from scratch, so the
    // queue is opened afresh inside every statement.
    const std::string dir = freshDir("old_name");
    WorkQueue(dir).enqueue(makeTask("fresh"));
    const std::string old_name = "p09990-000000000001-default-legacy.task";
    std::ofstream(dir + "/pending/" + old_name)
        << R"({"id":"legacy","seq":1,"command":"true","result":""})"
        << '\n';
    // Files without the .task suffix stay foreign and ignored.
    std::ofstream(dir + "/pending/notes.txt") << "not a task\n";

    const std::string message = "pending/" + old_name +
                                ".* drain or delete the queue directory";
    EXPECT_EXIT(WorkQueue(dir).claim("w", 60),
                ::testing::ExitedWithCode(1), message);
    EXPECT_EXIT(WorkQueue(dir).pendingCount(),
                ::testing::ExitedWithCode(1), message);
    EXPECT_EXIT(WorkQueue(dir).status(), ::testing::ExitedWithCode(1),
                message);
    EXPECT_EXIT(WorkQueue(dir).cancelPending(),
                ::testing::ExitedWithCode(1), message);

    // Rid of the stray file, the queue works again.
    fs::remove(dir + "/pending/" + old_name);
    WorkQueue queue(dir);
    EXPECT_EQ(queue.pendingCount(), 1u);
    auto claim = queue.claim("w", 60);
    ASSERT_TRUE(claim.has_value());
    EXPECT_EQ(claim->task.id, "fresh");
    queue.complete(*claim, 0);
}

// ---------------------------------------------------------------------------
// Torn-append recovery
// ---------------------------------------------------------------------------

TEST(WorkQueue, TornLogLinesAreSkippedAndSequencingSurvives)
{
    const std::string dir = freshDir("torn");
    {
        WorkQueue queue(dir);
        queue.enqueue(makeTask("t0"));
        queue.enqueue(makeTask("t1"));
    }
    {
        // A process killed mid-append leaves a torn trailing line.
        std::ofstream log(dir + "/tasks.jsonl", std::ios::app);
        log << "{\"op\":\"enqueue\",\"task\":{\"id\":\"t2\",\"se";
    }

    WorkQueue back(dir);
    std::size_t enqueues = 0;
    for (const sweepio::QueueLogRecord &record : back.readLog())
        enqueues += record.op == "enqueue";
    EXPECT_EQ(enqueues, 2u); // the torn record is skipped, not fatal

    // Sequencing resumes after the surviving records, so new tasks
    // sort after the old ones in claim order.
    const sweepio::TaskRecord stored = back.enqueue(makeTask("t3"));
    EXPECT_EQ(stored.seq, 2u);
    auto claim = back.claim("w", 60);
    ASSERT_TRUE(claim.has_value());
    EXPECT_EQ(claim->task.id, "t0");
}

// ---------------------------------------------------------------------------
// Command-line flag extraction (queue-dir paths with spaces/quotes)
// ---------------------------------------------------------------------------

TEST(WorkQueue, ShellExtractFlagValueUndoesShellQuoting)
{
    using dispatch::shellQuote;
    EXPECT_EQ(shellExtractFlagValue("sweep --points a.jsonl --out b.jsonl",
                                    "--out"),
              "b.jsonl");
    EXPECT_EQ(shellExtractFlagValue("sweep --points a.jsonl", "--out"),
              "");
    // The last occurrence wins, like the shell's own option parsing.
    EXPECT_EQ(shellExtractFlagValue("run --out first --out second",
                                    "--out"),
              "second");
    // shellQuote round trip, including spaces and embedded quotes —
    // the shapes a queue dir like "/sweeps/run dir/it's" produces.
    for (const std::string path :
         {"/plain/path.jsonl", "/queue dir/with space.jsonl",
          "/it's/a 'quoted' path.jsonl", "odd\"double\"quotes"}) {
        const std::string command = "'/bin/confluence_sweep' --points " +
                                    shellQuote("/spec dir/s.jsonl") +
                                    " --out " + shellQuote(path);
        EXPECT_EQ(shellExtractFlagValue(command, "--out"), path)
            << command;
        EXPECT_EQ(shellExtractFlagValue(command, "--points"),
                  "/spec dir/s.jsonl");
    }
    // A flag-shaped substring *inside* a quoted value must not count
    // as an occurrence — a queue dir literally named "a --out b".
    const std::string tricky =
        "sweep --points " + shellQuote("/spec.jsonl") + " --out " +
        shellQuote("/tmp/a --out b/work/shard0.out.jsonl");
    EXPECT_EQ(shellExtractFlagValue(tricky, "--out"),
              "/tmp/a --out b/work/shard0.out.jsonl");
    EXPECT_EQ(shellExtractFlagValue(tricky, "--points"), "/spec.jsonl");
}

// ---------------------------------------------------------------------------
// QueueBackend: the dispatcher's scheduling against real worker loops
// ---------------------------------------------------------------------------

namespace
{

/** An in-process stand-in for confluence_worker: claims tasks and
 *  actually runs their commands through /bin/sh. */
class WorkerLoop
{
  public:
    WorkerLoop(const std::string &dir, std::string owner)
        : queue_(dir), owner_(std::move(owner)),
          thread_([this] { run(); })
    {
    }

    ~WorkerLoop()
    {
        stop_ = true;
        thread_.join();
    }

  private:
    void run()
    {
        while (!stop_) {
            auto claim = queue_.claim(owner_, 60);
            if (!claim) {
                queue_.reclaimExpired();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
                continue;
            }
            const dispatch::RunStatus status =
                dispatch::runLocalCommand(claim->task.command, 0);
            queue_.complete(*claim, status.exitCode);
        }
    }

    WorkQueue queue_;
    std::string owner_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace

TEST(QueueBackend, DispatchesRetriesAndReportsExitCodesThroughTheQueue)
{
    const std::string dir = freshDir("backend");
    WorkQueue queue(dir);
    QueueBackend::Options qopts;
    qopts.slots = 3;
    qopts.pollMs = 5;
    QueueBackend backend(queue, qopts);
    EXPECT_EQ(backend.workers(), 3u);

    const std::string marker = dir + "/ran-once";
    std::vector<dispatch::ShardJob> jobs;
    jobs.push_back({0, "true"});
    jobs.push_back({1, "exit 7"});
    // Fails the first attempt, succeeds the second — the dispatcher's
    // retry flows through a *fresh* queue task.
    jobs.push_back({2, "test -e " + dispatch::shellQuote(marker) +
                           " || { touch " + dispatch::shellQuote(marker) +
                           "; exit 9; }"});

    dispatch::RetryPolicy policy;
    policy.maxAttempts = 2;

    WorkerLoop w1(dir, "w1"), w2(dir, "w2");
    const std::vector<dispatch::ShardRun> runs =
        dispatchShards(backend, jobs, policy);

    ASSERT_EQ(runs.size(), 3u);
    EXPECT_TRUE(runs[0].ok);
    EXPECT_FALSE(runs[1].ok);
    EXPECT_EQ(runs[1].lastExit, 7);
    EXPECT_EQ(runs[1].attempts, 2u);
    EXPECT_TRUE(runs[2].ok);
    EXPECT_EQ(runs[2].attempts, 2u);
}

TEST(QueueBackend, UnclaimedTaskTimesOutAndIsCancelled)
{
    // No worker serves the queue: run() gives up at its timeout,
    // withdraws the still-pending task and reports a SIGKILL-style exit.
    const std::string dir = freshDir("backend_timeout");
    WorkQueue queue(dir);
    QueueBackend::Options qopts;
    qopts.slots = 1;
    qopts.pollMs = 5;
    QueueBackend backend(queue, qopts);

    const auto t0 = std::chrono::steady_clock::now();
    const dispatch::RunStatus status = backend.run(0, "true", 1);
    EXPECT_GE(std::chrono::steady_clock::now() - t0,
              std::chrono::milliseconds(900));
    EXPECT_TRUE(status.timedOut);
    EXPECT_EQ(status.exitCode, 137);
    EXPECT_EQ(queue.pendingCount(), 0u);
    EXPECT_EQ(queue.claimedCount(), 0u);
    EXPECT_EQ(queue.status().cancelled, 1u);
}

// ---------------------------------------------------------------------------
// The headline contract: coordinator killed mid-dispatch, restarted,
// byte-identical merge, no shard evaluated twice.
// ---------------------------------------------------------------------------

namespace
{

/**
 * An in-process confluence_worker that *evaluates* sweep shards: it
 * parses the spec/result paths out of the claimed command, runs the
 * shard on the real engine, appends outcomes to the shared result
 * cache (its own cache instance, like a separate process), and
 * completes. Counts every evaluated point so the test can prove no
 * point ran twice across the kill/resume boundary.
 */
class SweepWorker
{
  public:
    SweepWorker(const std::string &dir, const std::string &cache_store,
                std::atomic<std::size_t> &evaluated)
        : queue_(dir), cache_(cache_store, "v1"), evaluated_(evaluated)
    {
    }

    /** Claim and evaluate at most one task; false when none pending. */
    bool evaluateOne()
    {
        auto claim = queue_.claim("sweep-worker", 600);
        if (!claim)
            return false;
        evaluate(*claim);
        return true;
    }

    void startDraining()
    {
        thread_ = std::thread([this] {
            while (!stop_) {
                auto claim = queue_.claim("sweep-worker", 600);
                if (!claim) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(2));
                    continue;
                }
                evaluate(*claim);
            }
        });
    }

    void stopDraining()
    {
        stop_ = true;
        if (thread_.joinable())
            thread_.join();
    }

    ~SweepWorker() { stopDraining(); }

  private:
    void evaluate(TaskClaim &claim)
    {
        const std::string spec =
            shellExtractFlagValue(claim.task.command, "--points");
        const std::vector<SweepPoint> points =
            sweepio::readPoints(spec);
        const SystemConfig config =
            makeSystemConfig(points.front().scale.timingCores);
        SweepEngine engine(1);
        const SweepResult result =
            runTimingSweep(points, config, engine);
        sweepio::writeResult(claim.task.result, result);
        // Cache before completing: once a task reads as done, its
        // outcomes are durable — the property the resumed coordinator
        // relies on.
        for (const SweepOutcome &o : result.points)
            cache_.insert(o);
        cache_.flush();
        evaluated_ += result.points.size();
        queue_.complete(claim, 0);
    }

    WorkQueue queue_;
    dispatch::ResultCache cache_;
    std::atomic<std::size_t> &evaluated_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

} // namespace

TEST(QueueDispatch, KilledCoordinatorResumesByteIdenticalWithoutRework)
{
    const std::string dir = freshDir("resume");
    const std::string store = dir + "-cache.jsonl";
    fs::remove(store.c_str());
    const std::string work = dir + "/work";

    const std::vector<SweepPoint> points = goldenPoints();
    const SystemConfig config = makeSystemConfig(1);

    // The single-process reference everything must match byte for byte.
    SweepEngine engine(2);
    const SweepResult reference =
        runTimingSweep(points, config, engine);

    std::atomic<std::size_t> evaluated{0};

    // --- Coordinator #1, killed mid-dispatch -------------------------
    // Reconstruct exactly what a SIGKILLed `confluence_dispatch
    // --backend queue` leaves behind: both shard tasks enqueued, the
    // first completed by a worker (its outcomes already durable in the
    // shared cache), the second still pending, and no merged output
    // written.
    {
        WorkQueue queue(dir);
        fs::create_directories(work);
        for (unsigned shard = 0; shard < 2; ++shard) {
            const std::string spec =
                work + "/shard" + std::to_string(shard) + ".spec.jsonl";
            const std::string result = work + "/shard" +
                                       std::to_string(shard) +
                                       ".result.jsonl";
            sweepio::writePoints(
                spec, sweepio::shardPoints(points, shard, 2));
            sweepio::TaskRecord task;
            task.id = "run1-shard" + std::to_string(shard);
            task.command = "confluence_sweep --points " +
                           dispatch::shellQuote(spec) + " --out " +
                           dispatch::shellQuote(result);
            task.result = result;
            queue.enqueue(task);
        }
        SweepWorker worker(dir, store, evaluated);
        ASSERT_TRUE(worker.evaluateOne()); // shard 0 completes...
        ASSERT_EQ(queue.pendingCount(), 1u); // ...shard 1 never runs
        ASSERT_EQ(evaluated.load(), 2u);
    }

    // --- Coordinator #2: reconcile, then dispatch the remainder ------
    WorkQueue queue(dir);
    queue.cancelPending(); // the stale task; its points re-partition
    ASSERT_EQ(queue.claimedCount(), 0u); // nothing in flight to await

    // The cache opens *after* reconcile, so it sees the dead run's
    // completed shard.
    dispatch::ResultCache cache(store, "v1");
    QueueBackend::Options qopts;
    qopts.slots = 2;
    qopts.pollMs = 5;
    QueueBackend backend(queue, qopts);

    dispatch::DispatchOptions opts;
    opts.sweepBin = "confluence_sweep"; // never executed: SweepWorker
                                        // evaluates in-process
    opts.workDir = work;
    opts.cacheWriteBack = false; // queue mode: workers own the cache

    SweepWorker worker(dir, store, evaluated);
    worker.startDraining();
    dispatch::DispatchStats stats;
    const SweepResult merged = dispatch::runDispatchedSweep(
        points, backend, opts, &cache, &stats);
    worker.stopDraining();

    // Byte-identical to the single-process run...
    EXPECT_EQ(sweepio::encodeResult(merged),
              sweepio::encodeResult(reference));
    // ...with the dead coordinator's work served from the cache...
    EXPECT_EQ(stats.cachedPoints, 2u);
    EXPECT_EQ(stats.evaluatedPoints, 2u);
    // ...and no point evaluated twice across the kill/resume boundary:
    // 4 points, 4 evaluations, 4 store lines.
    EXPECT_EQ(evaluated.load(), points.size());
    std::size_t store_lines = 0;
    std::ifstream in(store);
    for (std::string line; std::getline(in, line);)
        store_lines += !line.empty();
    EXPECT_EQ(store_lines, points.size());
}
