/**
 * @file
 * Record schemas of the persistent work queue (src/queue).
 *
 * Every record in a queue directory is one JSONL line through the
 * generic record codec (record.hh), so a torn trailing line (a process
 * killed mid-append) degrades to a skip-with-warning in tolerant
 * loaders instead of wedging the store: task files (TaskRecord), lease
 * files (LeaseRecord, wall-clock unix ms so expiry compares across
 * hosts), done files (DoneRecord), the append-only tasks.jsonl audit
 * log (QueueLogRecord), and the snapshot that
 * `confluence_dispatch --queue-status` prints (QueueStatusRecord).
 *
 * The strings here (shell commands, file paths, owners) are
 * user-influenced; the string codec escapes '"' and '\\' via
 * escapeJsonString(), the only escapes the lexer accepts back.
 */

#ifndef CFL_SWEEPIO_QUEUE_CODEC_HH
#define CFL_SWEEPIO_QUEUE_CODEC_HH

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sweepio/record.hh"

namespace cfl::sweepio
{

/** One claimable unit of work. */
struct TaskRecord
{
    std::string id;       ///< unique task id (digest + attempt suffix)
    std::uint64_t seq = 0; ///< enqueue order; tasks are claimed by seq
    std::string command;  ///< shell command the claiming worker runs
    /** Result file (confluence_sweep --out) whose outcomes the worker
     *  appends to the result cache after a clean exit; "" = none. */
    std::string result;
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
     *  wall-clock unix ms. Status snapshots report now - sinceMs as the
     *  heartbeat age. */
    std::uint64_t sinceMs = 0;
};

/** Terminal state of one task. */
struct DoneRecord
{
    std::string id;
    std::string owner;           ///< worker that completed the task
    std::uint64_t exitCode = 0;  ///< command exit; 128+sig for signals
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

/** One active lease, as seen by a status snapshot. */
struct QueueLeaseStatus
{
    std::string id;
    std::string owner;
    /** ms since the lease was last written (claim or heartbeat). */
    std::uint64_t heartbeatAgeMs = 0;
    /** ms until the lease expires; 0 when already reclaim-eligible. */
    std::uint64_t remainingMs = 0;
};

/** Point-in-time queue snapshot (confluence_dispatch --queue-status). */
struct QueueStatusRecord
{
    std::uint64_t atMs = 0; ///< snapshot wall clock, unix ms
    bool stop = false;      ///< stop marker present: workers draining
    std::uint64_t pending = 0;
    std::uint64_t claimed = 0;
    std::uint64_t done = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t quarantined = 0;
    std::vector<QueueLeaseStatus> leases; ///< active (claimed) leases
};

template <>
struct Schema<TaskRecord>
{
    static constexpr const char *context = "queue record";
    static constexpr auto fields = std::tuple{
        Field{"id", &TaskRecord::id},
        Field{"seq", &TaskRecord::seq},
        Field{"command", &TaskRecord::command},
        Field{"result", &TaskRecord::result},
    };
};

template <>
struct Schema<LeaseRecord>
{
    static constexpr const char *context = "queue record";
    static constexpr auto fields = std::tuple{
        Field{"id", &LeaseRecord::id},
        Field{"owner", &LeaseRecord::owner},
        Field{"deadline_ms", &LeaseRecord::deadlineMs},
        Field{"since_ms", &LeaseRecord::sinceMs},
    };
};

template <>
struct Schema<DoneRecord>
{
    static constexpr const char *context = "queue record";
    static constexpr auto fields = std::tuple{
        Field{"id", &DoneRecord::id},
        Field{"owner", &DoneRecord::owner},
        Field{"exit", &DoneRecord::exitCode},
    };
};

/** A done line names its task only inside the DoneRecord; decoding
 *  mirrors that id into task.id, as for every other op. */
template <>
struct Schema<QueueLogRecord>
{
    static constexpr const char *context = "queue record";
    static constexpr auto taskId =
        Field{"id", [](auto &r) -> auto & { return r.task.id; }};
    static constexpr auto fields = std::tuple{Tagged{
        "op", &QueueLogRecord::op,
        When{"enqueue", Field{"task", &QueueLogRecord::task}},
        When{"done", Field{"done", &QueueLogRecord::done}},
        When{"cancel", taskId}, When{"reclaim", taskId},
        When{"quarantine", taskId}}};

    static void decoded(QueueLogRecord &r)
    {
        if (r.op == "done")
            r.task.id = r.done.id;
    }
};

template <>
struct Schema<QueueLeaseStatus>
{
    static constexpr auto fields = std::tuple{
        Field{"id", &QueueLeaseStatus::id},
        Field{"owner", &QueueLeaseStatus::owner},
        Field{"hb_age_ms", &QueueLeaseStatus::heartbeatAgeMs},
        Field{"remaining_ms", &QueueLeaseStatus::remainingMs},
    };
};

template <>
struct Schema<QueueStatusRecord>
{
    static constexpr const char *context = "queue record";
    static constexpr auto fields = std::tuple{
        Field{"at_ms", &QueueStatusRecord::atMs},
        Field{"stop", &QueueStatusRecord::stop},
        Field{"pending", &QueueStatusRecord::pending},
        Field{"claimed", &QueueStatusRecord::claimed},
        Field{"done", &QueueStatusRecord::done},
        Field{"cancelled", &QueueStatusRecord::cancelled},
        Field{"quarantined", &QueueStatusRecord::quarantined},
        Field{"leases", &QueueStatusRecord::leases},
    };
};

} // namespace cfl::sweepio

#endif // CFL_SWEEPIO_QUEUE_CODEC_HH
