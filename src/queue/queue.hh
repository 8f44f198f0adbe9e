/**
 * @file
 * Filesystem-backed persistent multi-tenant work queue.
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
 *   tenants.jsonl append-only tenant config (weight + quota records;
 *                 the last record per tenant wins), written by
 *                 setTenant() and read on every scheduling decision so
 *                 config changes apply without restarting anything
 *   pending/      one task file per claimable task, published by
 *                 tmp-write + rename; the file *name* encodes
 *                 (priority, seq, tenant, id) so every scheduling
 *                 input comes from one directory scan
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
 *   stats.jsonl   result-cache hit/miss counters coordinators report
 *                 after dispatching, surfaced by status()
 *   stop          marker file: workers drain and exit cleanly
 *   queues/<name>/  named sub-queues, each a full queue of this same
 *                 shape — WorkQueue(dir, name) opens one
 *
 * Claim policy (deterministic given the directory state, so tests pin
 * it exactly):
 *
 *   1. strict priority — the highest pending priority tier wins;
 *   2. weighted round-robin across the tenants present in that tier —
 *      the tenant with the lowest served/weight ratio wins, where
 *      "served" counts the tenant's done log records plus its
 *      currently claimed tasks, and ratio ties break to the
 *      lexicographically smallest tenant;
 *   3. FIFO by enqueue seq within the chosen tenant.
 *
 * Per-tenant submission quotas bound live (pending + claimed) tasks:
 * tryEnqueue() refuses past the quota so a flooding tenant backs up in
 * its own submitter, not in everyone's queue. (The check reads a
 * directory snapshot, so N racing submitters can overshoot by at most
 * N-1 — a bound on burst, not a hard ceiling.)
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
 * exists: a failed done-record write leaves the claim held (lease
 * expiry re-runs the task), a failed log append degrades the audit
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

/** Task priority bounds: the priority embeds in sortable task file
 *  names as a fixed-width key, so the range is clamped symmetric. */
inline constexpr std::int64_t kMinPriority = -9999;
inline constexpr std::int64_t kMaxPriority = 9999;

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
    /**
     * Open (creating if needed) the queue at @p dir — or, with a
     * non-empty @p name, the named sub-queue @p dir/queues/@p name.
     * Named queues are fully independent: separate tasks, tenants,
     * leases, and stop markers.
     */
    explicit WorkQueue(std::string dir, std::string name = "");
    ~WorkQueue();

    WorkQueue(const WorkQueue &) = delete;
    WorkQueue &operator=(const WorkQueue &) = delete;

    /** $CONFLUENCE_QUEUE_DIR, or ".confluence-queue" when unset. */
    static std::string defaultDir();

    /** Valid queue name: [A-Za-z0-9_.-]+, at most 64 chars. */
    static bool validQueueName(const std::string &name);
    /** Valid tenant id: [A-Za-z0-9_.]+ (no '-': task file names use
     *  '-' as the field separator), at most 64 chars. */
    static bool validTenantName(const std::string &tenant);

    /** This queue's own directory (the root, or queues/<name>). */
    const std::string &dir() const { return dir_; }
    /** The queue name; "" for the root queue. */
    const std::string &name() const { return name_; }

    // --- coordinator side -------------------------------------------------

    /**
     * Publish @p task (seq is assigned here; the id must not collide
     * with any live or completed task; an empty tenant becomes
     * "default"; the tenant id and priority range are validated).
     * Quotas are NOT enforced here — use tryEnqueue() for that.
     * Returns the stored record. Thread-safe, like every method on
     * this class.
     */
    sweepio::TaskRecord enqueue(sweepio::TaskRecord task);

    /**
     * enqueue(), but refused (nullopt, nothing published) when the
     * task's tenant is at its submission quota — its live (pending +
     * claimed) task count has reached tenantConfig().quota.
     */
    std::optional<sweepio::TaskRecord>
    tryEnqueue(sweepio::TaskRecord task);

    /** Record (or update) @p tenant's scheduling config: a weighted-
     *  round-robin @p weight (>= 1) and a submission @p quota (0 =
     *  unlimited). Appends to tenants.jsonl; the last record wins. */
    void setTenant(const std::string &tenant, std::uint64_t weight,
                   std::uint64_t quota);
    /** @p tenant's current config; defaults (weight 1, quota 0) when
     *  it was never configured. */
    sweepio::TenantRecord tenantConfig(const std::string &tenant) const;

    /** Withdraw every unclaimed task; returns how many. Tasks already
     *  claimed are untouched (their workers are running). */
    std::size_t cancelPending();

    /** Withdraw one unclaimed task by id; false if it was not pending
     *  (already claimed, done, or never enqueued). */
    bool cancelTask(const std::string &id);

    std::size_t pendingCount() const;
    std::size_t claimedCount() const;
    /** Live (pending + claimed) tasks of @p tenant — what quotas
     *  bound. */
    std::size_t liveCount(const std::string &tenant) const;

    // --- worker side ------------------------------------------------------

    /**
     * Claim the next task per the policy above (priority, then
     * weighted round-robin across tenants, then FIFO) for
     * @p lease_sec as @p owner, or nullopt when nothing is claimable.
     * Also clears expired leases left on pending tasks by claimers
     * that died mid-claim.
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
     * Point-in-time snapshot: pending depth per (tenant, priority),
     * active leases with heartbeat age, terminal counts, stop flag,
     * and the last coordinator-reported cache counters. Built from
     * one pass over the directories — racing workers can skew
     * individual numbers by a task, never corrupt them.
     */
    sweepio::QueueStatusRecord status() const;

    /** Report result-cache counters (appended to stats.jsonl; the
     *  newest record is what status() surfaces). Best-effort: a
     *  failed append degrades the stats, never the queue. */
    void recordCacheStats(std::uint64_t hits, std::uint64_t misses);

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
    std::string tenantsPath() const;
    std::string statsPath() const;
    std::string leasePath(const std::string &id) const;
    std::string donePath(const std::string &id) const;
    std::string uniqueTmpPath(const std::string &stem);
    void appendLog(const sweepio::QueueLogRecord &record);
    /** Single-write O_APPEND of one line; warns and returns false on
     *  failure. Site names the fault-injection point. */
    bool appendLine(const std::string &path, const std::string &line,
                    const char *site);
    std::optional<sweepio::LeaseRecord>
    readLease(const std::string &id) const;
    /** Atomically take an expired lease out of play; false if raced. */
    bool stealLease(const std::string &id);
    /** How many times task @p id has been reclaimed (from the log). */
    std::size_t reclaimCount(const std::string &id) const;
    /** Validate + default the caller-settable task fields. */
    void normalizeTask(sweepio::TaskRecord &task) const;
    /** Publish an already-normalized task. */
    sweepio::TaskRecord enqueueNormalized(sweepio::TaskRecord task);
    /** tenants.jsonl, last record per tenant winning. */
    std::map<std::string, sweepio::TenantRecord> readTenants() const;
    /** Completed-or-claimed task count per tenant — the weighted-
     *  round-robin "served" measure. */
    std::map<std::string, std::uint64_t> servedCounts() const;

    std::string dir_;
    std::string name_;
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
