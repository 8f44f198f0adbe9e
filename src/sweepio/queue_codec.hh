/**
 * @file
 * Line-oriented JSON codecs for the persistent work queue (src/queue).
 *
 * Several record shapes travel through the queue directory, all encoded
 * as single JSONL lines through the shared MiniJsonParser dialect
 * (json.hh) so a torn trailing line — a process killed mid-append —
 * degrades to a skip-with-warning in tolerant loaders instead of
 * wedging the store:
 *
 *   TaskRecord   — one unit of claimable work: a unique id, a FIFO
 *                  sequence number, the shell command a worker runs,
 *                  the submitting tenant, an integer priority, and
 *                  (optionally) the result file whose outcomes the
 *                  worker folds into the result cache afterwards;
 *   LeaseRecord  — who holds a claimed task, since when, and until
 *                  when (wall-clock unix milliseconds — lease expiry
 *                  must be comparable across hosts);
 *   DoneRecord   — how a task ended (exit status, completing owner,
 *                  tenant — the tenant feeds the fair-share claim
 *                  policy's served counts);
 *   TenantRecord — one tenant's scheduling config: weighted-round-
 *                  robin weight and submission quota (tenants.jsonl,
 *                  append-only, last record per tenant wins);
 *   QueueStatusRecord — a point-in-time snapshot of the whole queue
 *                  (depth per tenant/priority, active leases with
 *                  heartbeat age, terminal counts, cache hit stats),
 *                  what `confluence_dispatch --queue-status` emits.
 *
 * The queue's tasks.jsonl log multiplexes task/done records as
 * QueueLogRecord lines tagged with an op ("enqueue", "cancel",
 * "reclaim", "quarantine", "done"), giving every queue directory an
 * auditable, greppable history.
 *
 * Unlike the sweep codec, the strings here (shell commands, file
 * paths, owners) are user-influenced, so encoding escapes '"' and '\\'
 * via escapeJsonString() — the only escapes the parser accepts back.
 * Every decode has a tryDecode variant for loaders that must survive a
 * torn line.
 */

#ifndef CFL_SWEEPIO_QUEUE_CODEC_HH
#define CFL_SWEEPIO_QUEUE_CODEC_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cfl::sweepio
{

/** One claimable unit of work. */
struct TaskRecord
{
    std::string id;       ///< unique task id (digest + attempt suffix)
    std::uint64_t seq = 0; ///< enqueue order; ties claim FIFO by seq
    std::string command;  ///< shell command the claiming worker runs
    /** Result file (confluence_sweep --out) whose outcomes the worker
     *  appends to the result cache after a clean exit; "" = none. */
    std::string result;
    /** Submitting tenant ([A-Za-z0-9_.], no '-'); feeds the quota and
     *  the weighted-round-robin claim policy. */
    std::string tenant = "default";
    /** Claim priority: higher claims strictly first (queue.hh clamps
     *  the range so it can embed in sortable task file names). */
    std::int64_t priority = 0;
};

/** Ownership of one claimed task. */
struct LeaseRecord
{
    std::string id;    ///< task id this lease covers
    std::string owner; ///< claiming worker's identity
    /** Lease deadline, wall-clock unix milliseconds; a lease past its
     *  deadline may be reclaimed by anyone. */
    std::uint64_t deadlineMs = 0;
    /** When this lease (or its latest heartbeat renewal) was written,
     *  wall-clock unix ms; 0 on records from older writers. Status
     *  snapshots report now - sinceMs as the heartbeat age. */
    std::uint64_t sinceMs = 0;
};

/** Terminal state of one task. */
struct DoneRecord
{
    std::string id;
    std::string owner;           ///< worker that completed the task
    std::uint64_t exitCode = 0;  ///< command exit; 128+sig for signals
    std::string tenant = "default"; ///< submitting tenant
};

/** One tenant's scheduling configuration. */
struct TenantRecord
{
    std::string tenant;
    /** Weighted-round-robin share: a weight-2 tenant is served twice
     *  as often as a weight-1 tenant at the same priority. */
    std::uint64_t weight = 1;
    /** Max live (pending + claimed) tasks this tenant may have
     *  enqueued at once; 0 = unlimited. */
    std::uint64_t quota = 0;
};

/** One line of the queue's tasks.jsonl audit log. */
struct QueueLogRecord
{
    /** "enqueue" (task holds the full record), "cancel" / "reclaim" /
     *  "quarantine" (only task.id is meaningful), or "done" (done
     *  holds the record; task.id mirrors done.id). */
    std::string op;
    TaskRecord task;
    DoneRecord done;
};

/** Pending depth of one (tenant, priority) bucket. */
struct QueueTenantDepth
{
    std::string tenant;
    std::int64_t priority = 0;
    std::uint64_t pending = 0;
};

/** One active lease, as seen by a status snapshot. */
struct QueueLeaseStatus
{
    std::string id;
    std::string owner;
    std::string tenant;
    /** ms since the lease was last written (claim or heartbeat); 0
     *  when the lease predates heartbeat timestamps. */
    std::uint64_t heartbeatAgeMs = 0;
    /** ms until the lease expires; 0 when already reclaim-eligible. */
    std::uint64_t remainingMs = 0;
};

/** Result-cache counters as last reported by a coordinator. */
struct QueueCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t atMs = 0; ///< when they were recorded (unix ms)
};

/** Point-in-time queue snapshot (confluence_dispatch --queue-status). */
struct QueueStatusRecord
{
    std::string queue;      ///< queue name; "" = the root (default) queue
    std::uint64_t atMs = 0; ///< snapshot wall clock, unix ms
    bool stop = false;      ///< stop marker present: workers draining
    std::uint64_t pending = 0;
    std::uint64_t claimed = 0;
    std::uint64_t done = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t quarantined = 0;
    std::vector<QueueTenantDepth> depths; ///< pending per tenant/priority
    std::vector<QueueLeaseStatus> leases; ///< active (claimed) leases
    QueueCacheStats cache;
};

std::string encodeTask(const TaskRecord &task);
TaskRecord decodeTask(const std::string &line);
bool tryDecodeTask(const std::string &line, TaskRecord *out);

std::string encodeLease(const LeaseRecord &lease);
LeaseRecord decodeLease(const std::string &line);
bool tryDecodeLease(const std::string &line, LeaseRecord *out);

std::string encodeDone(const DoneRecord &done);
DoneRecord decodeDone(const std::string &line);
bool tryDecodeDone(const std::string &line, DoneRecord *out);

std::string encodeTenant(const TenantRecord &tenant);
TenantRecord decodeTenant(const std::string &line);
bool tryDecodeTenant(const std::string &line, TenantRecord *out);

std::string encodeQueueCacheStats(const QueueCacheStats &stats);
QueueCacheStats decodeQueueCacheStats(const std::string &line);
bool tryDecodeQueueCacheStats(const std::string &line,
                              QueueCacheStats *out);

std::string encodeQueueStatus(const QueueStatusRecord &status);
QueueStatusRecord decodeQueueStatus(const std::string &line);
bool tryDecodeQueueStatus(const std::string &line,
                          QueueStatusRecord *out);

std::string encodeQueueLog(const QueueLogRecord &record);
QueueLogRecord decodeQueueLog(const std::string &line);
bool tryDecodeQueueLog(const std::string &line, QueueLogRecord *out);

} // namespace cfl::sweepio

#endif // CFL_SWEEPIO_QUEUE_CODEC_HH
