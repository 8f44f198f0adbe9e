/**
 * @file
 * Filesystem-backed persistent FIFO work queue.
 *
 * A queue is a directory (shared between the coordinator and every
 * worker — one machine, or a fleet over a shared filesystem) whose
 * state is carried entirely by atomic filesystem operations, so any
 * participant can crash at any instruction and the queue stays
 * consistent:
 *
 *   tasks.jsonl   append-only audit log (enqueue/cancel/reclaim/done),
 *                 one single-write() JSONL record per event; a torn
 *                 trailing line is skipped with a warning on load
 *   pending/      one task file per claimable task, published by
 *                 tmp-write + rename; the file name is
 *                 <seq as 12 digits>-<id>.task, so a name sort is the
 *                 claim order
 *   leases/       <id>.lease — owner + wall-clock deadline. A claim
 *                 takes the lease with O_CREAT|O_EXCL (two workers can
 *                 never both create it) and then moves the task file
 *                 pending/ -> claimed/ with an atomic rename, so two
 *                 workers can never hold the same task. Heartbeats
 *                 extend the deadline by atomic lease replacement.
 *   claimed/      task files currently owned by a live lease
 *   done/         <id>.done — terminal DoneRecord, published by
 *                 tmp-write + rename; completion is idempotent (a
 *                 second completion of the same task is a no-op)
 *   cancelled/    task files withdrawn by the coordinator
 *   quarantine/   poison tasks — reclaimed (i.e. they killed or
 *                 stalled their worker) quarantineAfter() times — plus
 *                 an <id>.why file recording the fault context
 *   stop          marker file: workers drain and exit cleanly
 *
 * Claims go in enqueue order (FIFO by seq), a pure function of the
 * pending/ directory, so any instance claims the same next task. A
 * file under a task directory whose name ends in ".task" but does not
 * parse (a directory written by an older build) is fatal: skipping it
 * would leave a task nobody claims, counts or cancels.
 *
 * A lease past its deadline (its worker died or stalled) is reclaimed:
 * the lease file is atomically stolen (renamed away, so exactly one
 * reclaimer wins), and the task file moves claimed/ -> pending/ for
 * the next worker — unless that task has already burned through its
 * strike budget, in which case it moves to quarantine/ instead of
 * poisoning the fleet forever. Because completed outcomes also flow
 * into the content-addressed result cache (dispatch/result_cache.hh),
 * a coordinator can be SIGKILLed at any point and a fresh one resumes
 * from the queue + cache without losing — or repeating — any work.
 *
 * Environment: CONFLUENCE_QUEUE_DIR — defaultDir() (default
 * ".confluence-queue"); CONFLUENCE_QUARANTINE_AFTER — quarantine
 * strike budget (default 3, 0 disables).
 *
 * Every durability-critical write and rename here runs through the
 * fault-injection layer (fault/fault.hh) under a stable "queue.*"
 * site name, and injected failures take the *soft* path wherever one
 * exists: a failed done-record write re-pends the task at once (as a
 * reclaim, one strike), a failed log append degrades the audit
 * trail but never the queue, a failed lease write abandons that claim
 * attempt. See the chaos harness (tools/confluence_chaos) for the
 * invariants this buys.
 *
 * Caveats for multi-host use: lease deadlines are wall-clock unix
 * time, so fleet clocks must agree to within a fraction of the lease;
 * pick a lease comfortably above the heartbeat interval and rely on
 * heartbeats — with them, expiry means worker death, not slowness.
 */

#ifndef CFL_QUEUE_QUEUE_HH
#define CFL_QUEUE_QUEUE_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sweepio/queue_codec.hh"

namespace cfl::queue
{

/** A successfully claimed task, the handle for heartbeat/complete. */
struct TaskClaim
{
    sweepio::TaskRecord task;
    std::string fileName;        ///< task file name under claimed/
    std::string owner;
    std::uint64_t deadlineMs = 0; ///< current lease deadline
};

class WorkQueue
{
  public:
    /** Open (creating if needed) the queue at @p dir. */
    explicit WorkQueue(std::string dir);
    ~WorkQueue();

    WorkQueue(const WorkQueue &) = delete;
    WorkQueue &operator=(const WorkQueue &) = delete;

    /** $CONFLUENCE_QUEUE_DIR, or ".confluence-queue" when unset. */
    static std::string defaultDir();

    const std::string &dir() const { return dir_; }

    // --- coordinator side -------------------------------------------------

    /**
     * Publish @p task (seq is assigned here; the id must not collide
     * with any live or completed task). Returns the stored record.
     * Thread-safe, like every method on this class.
     */
    sweepio::TaskRecord enqueue(sweepio::TaskRecord task);

    /** Withdraw every unclaimed task; returns how many. Tasks already
     *  claimed are untouched (their workers are running). */
    std::size_t cancelPending();

    /** Withdraw one unclaimed task by id; false if it was not pending
     *  (already claimed, done, or never enqueued). */
    bool cancelTask(const std::string &id);

    std::size_t pendingCount() const;
    std::size_t claimedCount() const;

    // --- worker side ------------------------------------------------------

    /**
     * Claim the oldest claimable task (lowest seq) for @p lease_sec as
     * @p owner, or nullopt when nothing is claimable. Also clears
     * expired leases left on pending tasks by claimers that died
     * mid-claim.
     */
    std::optional<TaskClaim> claim(const std::string &owner,
                                   unsigned lease_sec);

    /**
     * Extend @p claim's lease by @p lease_sec from now. Returns false
     * if the lease was lost (expired and reclaimed) — the caller's
     * work may be re-run elsewhere, but completing it stays safe:
     * completion is idempotent and outcomes are deterministic.
     */
    bool heartbeat(TaskClaim &claim, unsigned lease_sec);

    /**
     * Record that @p claim's command exited with @p exit_code and
     * release the claim. Idempotent: if the task is already done (a
     * double completion after a lease was reclaimed), nothing is
     * recorded again and only this claim's lease state is cleaned up.
     * If the done record cannot be published while the lease is still
     * ours and live, the task goes back to pending/ at once, logged as
     * a reclaim (one strike), and the lease is dropped.
     */
    void complete(const TaskClaim &claim, int exit_code);

    /** Terminal record of task @p id, or nullopt while it is live. */
    std::optional<sweepio::DoneRecord>
    doneRecord(const std::string &id) const;

    /**
     * Re-pend every claimed task whose lease expired (or vanished
     * mid-reclaim), and clean up claims whose done record exists but
     * whose completer died before releasing. A task reclaimed for the
     * quarantineAfter()-th time is moved to quarantine/ (with an
     * <id>.why context file) instead of pending/. Returns how many
     * tasks went back to pending/.
     */
    std::size_t reclaimExpired();

    // --- status -----------------------------------------------------------

    /**
     * Point-in-time snapshot: task counts per state, stop flag, and
     * active leases with heartbeat age and remaining time. Built from
     * one pass over the directories — racing workers can skew
     * individual numbers by a task, never corrupt them.
     */
    sweepio::QueueStatusRecord status() const;

    // --- quarantine -------------------------------------------------------

    /** Strike budget: a task reclaimed this many times is quarantined
     *  instead of re-pended. 0 disables quarantine entirely. */
    void setQuarantineAfter(unsigned strikes)
    {
        quarantineAfter_ = strikes;
    }
    unsigned quarantineAfter() const { return quarantineAfter_; }

    std::size_t quarantinedCount() const;
    bool isQuarantined(const std::string &id) const;

    // --- shutdown ---------------------------------------------------------

    /** Ask every worker on this queue to drain and exit. */
    void requestStop();
    bool stopRequested() const;
    /** Withdraw a previous stop request — a coordinator reusing a
     *  stopped queue directory must clear the marker, or freshly
     *  started workers would drain and exit mid-dispatch. */
    void clearStop();

    // --- log --------------------------------------------------------------

    /** Every parseable log record, torn lines skipped with a warning. */
    std::vector<sweepio::QueueLogRecord> readLog() const;

    // --- test hooks -------------------------------------------------------

    using ClockFn = std::uint64_t (*)();
    /** Replace the wall clock (unix ms) for lease-expiry tests. */
    void setClockForTesting(ClockFn clock) { clock_ = clock; }
    /** The queue wall clock: real (or test) unix ms, shifted by any
     *  injected "queue.clock" skew (clamped at 0). */
    std::uint64_t nowMs() const;

  private:
    std::string logPath() const;
    std::string leasePath(const std::string &id) const;
    std::string donePath(const std::string &id) const;
    std::string uniqueTmpPath(const std::string &stem);
    void appendLog(const sweepio::QueueLogRecord &record);
    std::optional<sweepio::LeaseRecord>
    readLease(const std::string &id) const;
    /** Atomically take an expired lease out of play; false if raced. */
    bool stealLease(const std::string &id);

    /** Where requeue() moved a claimed task. */
    enum class Requeued
    {
        None,       ///< the move failed; the task is still claimed
        Pending,
        Quarantine,
    };
    /** Move claimed task file @p name back to pending/ with a reclaim
     *  log record, or to quarantine/ when @p strikes reaches
     *  quarantineAfter(); @p last_owner goes into the .why file. */
    Requeued requeue(const std::string &name, const std::string &id,
                     std::size_t strikes, const std::string &last_owner);
    /** Give back a claim whose completion could not be published. */
    void repend(const TaskClaim &claim);
    /** Each task id's reclaim records in the log. */
    std::map<std::string, std::size_t> reclaimCounts() const;

    std::string dir_;
    ClockFn clock_ = nullptr;
    unsigned quarantineAfter_ = 3;
    mutable std::mutex mutex_; ///< guards nextSeq_, logFd_, tmpCounter_
    std::uint64_t nextSeq_ = 0;
    int logFd_ = -1;           ///< tasks.jsonl, opened once per run
    std::uint64_t tmpCounter_ = 0;
};

/**
 * The value of @p flag in the /bin/sh command line @p command, with
 * shellQuote()-style single quoting undone — how queue machinery
 * recovers the spec/result paths embedded in a task's command (e.g.
 * "--out"). Returns "" when the flag is absent. The *last* occurrence
 * wins, matching how the shell's own option parsing would behave for
 * repeated flags.
 */
std::string shellExtractFlagValue(const std::string &command,
                                  const std::string &flag);

} // namespace cfl::queue

#endif // CFL_QUEUE_QUEUE_HH
