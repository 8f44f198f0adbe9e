#include "queue/queue.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/strings.hh"
#include "fault/fault.hh"

namespace cfl::queue
{

namespace fs = std::filesystem;
using sweepio::DoneRecord;
using sweepio::LeaseRecord;
using sweepio::QueueLogRecord;
using sweepio::TaskRecord;

namespace
{

constexpr const char *kTaskSuffix = ".task";
constexpr std::size_t kSeqDigits = 12;

/** What a task file name encodes. */
struct TaskFileInfo
{
    std::string name; ///< full file name
    std::string id;
};

/** "<seq as 12 digits>-<id>.task": an ascending name sort is FIFO. */
std::string
taskFileName(const TaskRecord &task)
{
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "%012llu-",
                  static_cast<unsigned long long>(task.seq));
    return std::string(prefix) + task.id + kTaskSuffix;
}

/**
 * Decode the task file name @p name found in @p dir (see taskFileName);
 * nullopt for a file that is not a task (no ".task" suffix). A ".task"
 * name that does not parse — one written by an older build — is fatal:
 * skipping it would leave a task that is never claimed, counted or
 * cancelled.
 */
std::optional<TaskFileInfo>
parseTaskFileName(const std::string &dir, const std::string &name)
{
    const std::size_t suffix_len = std::strlen(kTaskSuffix);
    if (name.size() <= suffix_len ||
        name.compare(name.size() - suffix_len, std::string::npos,
                     kTaskSuffix) != 0)
        return std::nullopt;
    const std::string stem = name.substr(0, name.size() - suffix_len);
    if (stem.size() <= kSeqDigits + 1 || stem[kSeqDigits] != '-' ||
        !std::all_of(stem.begin(), stem.begin() + kSeqDigits,
                     [](char c) { return c >= '0' && c <= '9'; }))
        cfl_fatal("queue task file \"%s/%s\" is not named "
                  "<seq>-<id>.task (written by an older build?); drain "
                  "or delete the queue directory", dir.c_str(),
                  name.c_str());
    return TaskFileInfo{name, stem.substr(kSeqDigits + 1)};
}

/** Every task file under @p dir, in claim order: the fixed-width seq
 *  prefix makes that name order. */
std::vector<TaskFileInfo>
scanTaskFiles(const std::string &dir)
{
    std::vector<TaskFileInfo> infos;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        if (std::optional<TaskFileInfo> info = parseTaskFileName(
                dir, entry.path().filename().string()))
            infos.push_back(std::move(*info));
    }
    if (ec)
        cfl_fatal("cannot scan queue directory \"%s\": %s", dir.c_str(),
                  ec.message().c_str());
    std::sort(infos.begin(), infos.end(),
              [](const TaskFileInfo &a, const TaskFileInfo &b) {
                  return a.name < b.name;
              });
    return infos;
}

bool
hasTaskFile(const std::string &dir, const std::string &id)
{
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec)) {
        const std::optional<TaskFileInfo> info =
            parseTaskFileName(dir, entry.path().filename().string());
        if (info && info->id == id)
            return true;
    }
    return false;
}

std::size_t
countTaskFiles(const std::string &dir)
{
    std::size_t count = 0;
    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir, ec))
        if (parseTaskFileName(dir, entry.path().filename().string()))
            ++count;
    return ec ? 0 : count;
}

/** Write @p text to @p path in one pass through the fault layer as
 *  @p site; false on any (real or injected) failure, with whatever
 *  partial file landed left in place for the caller to clean up. */
bool
tryWriteFile(const std::string &path, const std::string &text,
             const char *site)
{
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
        cfl_warn("cannot create \"%s\": %s", path.c_str(),
                 std::strerror(errno));
        return false;
    }
    const ssize_t written =
        fault::faultWrite(fd, text.data(), text.size(), site);
    const int close_err = ::close(fd);
    return written == static_cast<ssize_t>(text.size()) &&
           close_err == 0;
}

/** tryWriteFile() for sites with no soft failure path. */
void
writeFileOrDie(const std::string &path, const std::string &text,
               const char *site)
{
    if (!tryWriteFile(path, text, site))
        cfl_fatal("failed writing \"%s\"", path.c_str());
}

/** Atomic rename; true on success, false on ENOENT (lost a race),
 *  fatal() on anything else. */
bool
tryRename(const std::string &from, const std::string &to)
{
    if (::rename(from.c_str(), to.c_str()) == 0)
        return true;
    if (errno == ENOENT)
        return false;
    cfl_fatal("cannot rename \"%s\" to \"%s\": %s", from.c_str(),
              to.c_str(), std::strerror(errno));
}

/** tryRename() with an injectable failure under @p site. An injected
 *  failure behaves like losing the race: false, nothing moved. */
bool
faultTryRename(const std::string &from, const std::string &to,
               const char *site)
{
    if (fault::renameShouldFail(site))
        return false;
    return tryRename(from, to);
}

/** Modification time of @p path in wall-clock ms; nullopt if absent. */
std::optional<std::uint64_t>
mtimeMs(const std::string &path)
{
    std::error_code ec;
    const fs::file_time_type mtime = fs::last_write_time(path, ec);
    if (ec)
        return std::nullopt;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::file_clock::to_sys(mtime).time_since_epoch())
            .count());
}

/** Slurp @p path; nullopt if it cannot be opened. */
std::optional<std::string>
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return std::nullopt;
    std::string line;
    std::getline(in, line);
    return line;
}

} // namespace

WorkQueue::WorkQueue(std::string dir) : dir_(std::move(dir))
{
    for (const char *sub : {"", "/pending", "/claimed", "/leases",
                            "/done", "/cancelled", "/quarantine",
                            "/tmp"}) {
        std::error_code ec;
        fs::create_directories(dir_ + sub, ec);
        if (ec)
            cfl_fatal("cannot create queue directory \"%s%s\": %s",
                      dir_.c_str(), sub, ec.message().c_str());
    }
    if (const char *after = std::getenv("CONFLUENCE_QUARANTINE_AFTER");
        after != nullptr && *after != '\0')
        quarantineAfter_ =
            parseUnsignedFlag("CONFLUENCE_QUARANTINE_AFTER", after);
    // Resume sequence numbering past everything the log remembers, so a
    // restarted coordinator's task files sort after the survivors'.
    for (const QueueLogRecord &record : readLog())
        if (record.op == "enqueue")
            nextSeq_ = std::max(nextSeq_, record.task.seq + 1);
}

WorkQueue::~WorkQueue()
{
    if (logFd_ >= 0)
        ::close(logFd_);
}

std::string
WorkQueue::defaultDir()
{
    const char *dir = std::getenv("CONFLUENCE_QUEUE_DIR");
    return (dir != nullptr && *dir != '\0') ? dir : ".confluence-queue";
}

std::uint64_t
WorkQueue::nowMs() const
{
    std::uint64_t base;
    if (clock_ != nullptr) {
        base = clock_();
    } else {
        base = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
    }
    // Injected clock skew models a fleet machine whose wall clock
    // disagrees — leases expire early (positive skew: everyone else's
    // leases look old) or persist late (negative skew).
    const std::int64_t skew = fault::clockSkewMs();
    if (skew < 0 && base < static_cast<std::uint64_t>(-skew))
        return 0;
    return base + static_cast<std::uint64_t>(skew);
}

std::string
WorkQueue::logPath() const
{
    return dir_ + "/tasks.jsonl";
}

std::string
WorkQueue::leasePath(const std::string &id) const
{
    return dir_ + "/leases/" + id + ".lease";
}

std::string
WorkQueue::donePath(const std::string &id) const
{
    return dir_ + "/done/" + id + ".done";
}

std::string
WorkQueue::uniqueTmpPath(const std::string &stem)
{
    std::uint64_t n;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        n = tmpCounter_++;
    }
    return dir_ + "/tmp/" + stem + "." + std::to_string(::getpid()) +
           "." + std::to_string(n);
}

void
WorkQueue::appendLog(const QueueLogRecord &record)
{
    const std::string line = sweepio::encode(record) + "\n";
    std::lock_guard<std::mutex> lock(mutex_);
    // One descriptor per run, opened lazily; every record goes down in
    // a single O_APPEND write() so concurrent appenders (coordinator +
    // N worker processes) interleave at line granularity, not byte.
    // The log is an audit trail plus a seq/strike memory; the
    // queue's *state* lives in the task/lease/done files. So append
    // failures degrade (warn, retry the open next time) instead of
    // killing the process — a torn line is skipped on load, a lost
    // line costs history, never consistency.
    if (logFd_ < 0) {
        logFd_ = ::open(logPath().c_str(),
                        O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
        if (logFd_ < 0) {
            cfl_warn("cannot open queue log \"%s\": %s",
                     logPath().c_str(), std::strerror(errno));
            return;
        }
    }
    const ssize_t written = fault::faultWrite(
        logFd_, line.data(), line.size(), "queue.log.append");
    if (written != static_cast<ssize_t>(line.size())) {
        cfl_warn("failed appending to queue log \"%s\": %s",
                 logPath().c_str(), std::strerror(errno));
        // Re-sync: a torn record left the log mid-line, which would
        // corrupt the *next* record too. Terminating the debris (best
        // effort — the disk may still be failing) confines the damage
        // to this one line.
        if (written > 0 && line[written - 1] != '\n')
            (void)!::write(logFd_, "\n", 1);
    }
}

std::vector<QueueLogRecord>
WorkQueue::readLog() const
{
    // A torn line (a process killed mid-append) loses that one record,
    // never the queue; a fresh queue has no log yet.
    std::vector<QueueLogRecord> records;
    sweepio::loadRecords<QueueLogRecord>(
        logPath(), "queue log",
        [&](QueueLogRecord &&record, const std::string &) {
            records.push_back(std::move(record));
        });
    return records;
}

TaskRecord
WorkQueue::enqueue(TaskRecord task)
{
    cfl_assert(!task.id.empty(), "a task needs an id");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        task.seq = nextSeq_++;
    }
    // Reject id reuse up front: done/lease lookups are by id, so a
    // second live task under the same id would alias the first — the
    // completed copy's done record would silently retire the other.
    if (fs::exists(donePath(task.id)) ||
        fs::exists(leasePath(task.id)) ||
        hasTaskFile(dir_ + "/pending", task.id) ||
        hasTaskFile(dir_ + "/claimed", task.id))
        cfl_fatal("task id \"%s\" is already in use in queue \"%s\"",
                  task.id.c_str(), dir_.c_str());

    QueueLogRecord record;
    record.op = "enqueue";
    record.task = task;
    appendLog(record); // log the intent first, then publish

    // Publication failures here stay fatal: an enqueue has no caller
    // to retry it softly, and a restarted coordinator re-enqueues
    // under a fresh run nonce without colliding with this debris.
    const std::string tmp = uniqueTmpPath("enqueue-" + task.id);
    writeFileOrDie(tmp, sweepio::encode(task) + "\n",
                   "queue.task.write");
    if (!faultTryRename(tmp, dir_ + "/pending/" + taskFileName(task),
                        "queue.task.rename"))
        cfl_fatal("lost enqueue rename for task \"%s\"",
                  task.id.c_str());
    return task;
}

std::size_t
WorkQueue::cancelPending()
{
    std::size_t count = 0;
    for (const TaskFileInfo &info : scanTaskFiles(dir_ + "/pending")) {
        if (!faultTryRename(dir_ + "/pending/" + info.name,
                            dir_ + "/cancelled/" + info.name,
                            "queue.cancel.rename"))
            continue; // a worker claimed it first; that attempt runs
        QueueLogRecord record;
        record.op = "cancel";
        record.task.id = info.id;
        appendLog(record);
        ++count;
    }
    return count;
}

bool
WorkQueue::cancelTask(const std::string &id)
{
    for (const TaskFileInfo &info : scanTaskFiles(dir_ + "/pending")) {
        if (info.id != id)
            continue;
        if (!faultTryRename(dir_ + "/pending/" + info.name,
                            dir_ + "/cancelled/" + info.name,
                            "queue.cancel.rename"))
            return false;
        QueueLogRecord record;
        record.op = "cancel";
        record.task.id = id;
        appendLog(record);
        return true;
    }
    return false;
}

std::size_t
WorkQueue::pendingCount() const
{
    return countTaskFiles(dir_ + "/pending");
}

std::size_t
WorkQueue::claimedCount() const
{
    return countTaskFiles(dir_ + "/claimed");
}

std::optional<LeaseRecord>
WorkQueue::readLease(const std::string &id) const
{
    const std::optional<std::string> line =
        readFirstLine(leasePath(id));
    if (!line)
        return std::nullopt;
    LeaseRecord lease;
    if (!sweepio::tryDecode(*line, &lease))
        return std::nullopt; // unreadable == expired: reclaimable
    return lease;
}

bool
WorkQueue::stealLease(const std::string &id)
{
    // Renaming the lease away is the atomic part: exactly one stealer
    // wins, everyone else sees ENOENT and backs off.
    const std::string tmp = uniqueTmpPath("steal-" + id);
    if (!tryRename(leasePath(id), tmp))
        return false;
    ::unlink(tmp.c_str());
    return true;
}

std::optional<TaskClaim>
WorkQueue::claim(const std::string &owner, unsigned lease_sec)
{
    cfl_assert(lease_sec >= 1, "a lease needs a positive duration");
    for (const TaskFileInfo &info : scanTaskFiles(dir_ + "/pending")) {
        const std::string &name = info.name;
        const std::string &id = info.id;
        const std::string lease_path = leasePath(id);

        // Re-pended by a reclaim, then completed anyway by the stale
        // worker: the work is done and durable, so retire the task
        // instead of running it a second time.
        if (fs::exists(donePath(id))) {
            tryRename(dir_ + "/pending/" + name,
                      dir_ + "/cancelled/" + name);
            continue;
        }

        // A lease on a *pending* task is a claim in progress — or the
        // debris of a claimer that died between lease and rename.
        // Live: skip. Expired: steal it out of the way. One that does
        // not decode may have been created (O_EXCL) and not yet
        // written, so it stays live until its file is a lease
        // duration old.
        std::optional<std::uint64_t> deadline_ms;
        if (const std::optional<LeaseRecord> stale = readLease(id))
            deadline_ms = stale->deadlineMs;
        else if (const std::optional<std::uint64_t> mtime =
                     mtimeMs(lease_path))
            deadline_ms =
                *mtime + static_cast<std::uint64_t>(lease_sec) * 1000;
        if (deadline_ms && (*deadline_ms > nowMs() || !stealLease(id)))
            continue;

        // Step 1 of the claim: the lease, taken exclusively. O_EXCL
        // guarantees two workers never both hold it.
        const int fd = ::open(lease_path.c_str(),
                              O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                              0644);
        if (fd < 0) {
            if (errno == EEXIST)
                continue; // raced: someone else is claiming this task
            cfl_fatal("cannot create lease \"%s\": %s",
                      lease_path.c_str(), std::strerror(errno));
        }
        LeaseRecord lease;
        lease.id = id;
        lease.owner = owner;
        lease.sinceMs = nowMs();
        lease.deadlineMs =
            lease.sinceMs +
            static_cast<std::uint64_t>(lease_sec) * 1000;
        const std::string text = sweepio::encode(lease) + "\n";
        const ssize_t written = fault::faultWrite(
            fd, text.data(), text.size(), "queue.lease.write");
        const int close_err = ::close(fd);
        if (written != static_cast<ssize_t>(text.size()) ||
            close_err != 0) {
            // Abandon this attempt and unlink the torn lease at once:
            // left behind, it would hold the task for a lease
            // duration before any worker steals it.
            cfl_warn("failed writing lease \"%s\": %s",
                     lease_path.c_str(), std::strerror(errno));
            ::unlink(lease_path.c_str());
            continue;
        }

        // Step 2: move the task under the lease. Only the lease holder
        // renames, so there is no competing mover; ENOENT means the
        // coordinator cancelled (or a reclaim re-pended it under a new
        // name) between our scan and now — drop the lease and move on.
        if (!faultTryRename(dir_ + "/pending/" + name,
                            dir_ + "/claimed/" + name,
                            "queue.claim.rename")) {
            ::unlink(lease_path.c_str());
            continue;
        }

        const std::optional<std::string> line =
            readFirstLine(dir_ + "/claimed/" + name);
        TaskRecord task;
        if (!line || !sweepio::tryDecode(*line, &task))
            cfl_fatal("claimed task file \"%s\" is unreadable",
                      name.c_str());
        TaskClaim out;
        out.task = std::move(task);
        out.fileName = name;
        out.owner = owner;
        out.deadlineMs = lease.deadlineMs;
        return out;
    }
    return std::nullopt;
}

bool
WorkQueue::heartbeat(TaskClaim &claim, unsigned lease_sec)
{
    const std::optional<LeaseRecord> current =
        readLease(claim.task.id);
    if (!current || current->owner != claim.owner)
        return false; // expired and reclaimed out from under us
    // Refuse to renew a lease that has already expired: it is
    // reclaim-eligible, so a steal + re-claim may be happening right
    // now, and renewing would overwrite the new owner's fresh lease.
    // An unexpired lease cannot be stolen, which makes the replacement
    // below race-free.
    if (current->deadlineMs <= nowMs())
        return false;
    LeaseRecord fresh;
    fresh.id = claim.task.id;
    fresh.owner = claim.owner;
    fresh.sinceMs = nowMs();
    fresh.deadlineMs =
        fresh.sinceMs + static_cast<std::uint64_t>(lease_sec) * 1000;
    // A renewal failure is reported as a lost lease: the old lease
    // stays valid until its deadline, after which reclaim re-pends the
    // task — the caller abandons it either way, so no work is lost or
    // doubled.
    const std::string tmp = uniqueTmpPath("lease-" + claim.task.id);
    if (!tryWriteFile(tmp, sweepio::encode(fresh) + "\n",
                      "queue.lease.renew.write")) {
        ::unlink(tmp.c_str());
        return false;
    }
    if (!faultTryRename(tmp, leasePath(claim.task.id),
                        "queue.lease.renew.rename")) {
        ::unlink(tmp.c_str());
        return false;
    }
    claim.deadlineMs = fresh.deadlineMs;
    return true;
}

void
WorkQueue::complete(const TaskClaim &claim, int exit_code)
{
    const std::string done_path = donePath(claim.task.id);
    if (!fs::exists(done_path)) {
        DoneRecord done;
        done.id = claim.task.id;
        done.owner = claim.owner;
        done.exitCode = static_cast<std::uint64_t>(
            exit_code < 0 ? 255 : exit_code);
        const std::string tmp =
            uniqueTmpPath("done-" + claim.task.id);
        // A completion that cannot be published is NOT fatal, and it
        // must not simply release the claim: the task goes back to
        // pending/ at once (repend()) and another worker re-runs the
        // (deterministic) command. The only cost of a failed publish
        // is repeated work.
        if (!tryWriteFile(tmp, sweepio::encode(done) + "\n",
                          "queue.done.write")) {
            cfl_warn("cannot record completion of task \"%s\"; "
                     "re-pending it", claim.task.id.c_str());
            ::unlink(tmp.c_str());
            repend(claim);
            return;
        }
        // Atomic publish; if a twin completion (reclaimed lease, both
        // workers finished) races us, last-rename-wins and either
        // record is a valid terminal state for a deterministic task.
        if (!faultTryRename(tmp, done_path, "queue.done.rename")) {
            cfl_warn("lost completion rename for task \"%s\"; "
                     "re-pending it", claim.task.id.c_str());
            ::unlink(tmp.c_str());
            repend(claim);
            return;
        }
        QueueLogRecord record;
        record.op = "done";
        record.done = done;
        record.task.id = done.id;
        appendLog(record);
    }
    // Release only what we still own: after a reclaim, the claimed
    // file and lease belong to the later claimant, not to us.
    const std::optional<LeaseRecord> lease = readLease(claim.task.id);
    if (lease && lease->owner == claim.owner) {
        ::unlink((dir_ + "/claimed/" + claim.fileName).c_str());
        ::unlink(leasePath(claim.task.id).c_str());
    }
}

std::optional<DoneRecord>
WorkQueue::doneRecord(const std::string &id) const
{
    const std::optional<std::string> line =
        readFirstLine(donePath(id));
    if (!line)
        return std::nullopt;
    DoneRecord done;
    if (!sweepio::tryDecode(*line, &done))
        return std::nullopt; // done files are rename-published; treat
                             // the impossible as "not done yet"
    return done;
}

void
WorkQueue::repend(const TaskClaim &claim)
{
    // Logged as a reclaim, so the strike count advances as if the
    // lease had run out. The log is read before the lease check, so
    // that, as in heartbeat(), nothing slow sits between the check and
    // requeue()'s rename.
    const std::string &id = claim.task.id;
    const std::size_t strikes = reclaimCounts()[id] + 1;
    // Only while the lease is ours and live: an unexpired lease cannot
    // be stolen, so no reclaimer or later claimant races the moves
    // below. Otherwise the task belongs to lease expiry or to its new
    // owner, as after a worker death.
    const std::optional<LeaseRecord> lease = readLease(id);
    if (!lease || lease->owner != claim.owner ||
        lease->deadlineMs <= nowMs())
        return;
    // A failed move leaves the lease to expire.
    if (requeue(claim.fileName, id, strikes, claim.owner) !=
        Requeued::None)
        ::unlink(leasePath(id).c_str());
}

std::size_t
WorkQueue::reclaimExpired()
{
    std::size_t count = 0;
    // Each task's reclaims so far, from one read of the log, taken
    // when this pass first finds an expired claim.
    std::optional<std::map<std::string, std::size_t>> reclaims;
    for (const TaskFileInfo &info : scanTaskFiles(dir_ + "/claimed")) {
        const std::string &name = info.name;
        const std::string &id = info.id;

        // A claim whose done record exists is finished; its completer
        // died between publishing done/ and releasing. Just release.
        if (fs::exists(donePath(id))) {
            ::unlink((dir_ + "/claimed/" + name).c_str());
            ::unlink(leasePath(id).c_str());
            continue;
        }

        const std::optional<LeaseRecord> lease = readLease(id);
        if (lease && lease->deadlineMs > nowMs())
            continue; // live worker
        // Expired (or mid-reclaim crash left no lease at all): steal
        // the lease if there is one, then re-pend the task.
        if (lease && !stealLease(id))
            continue; // a heartbeat or another reclaimer raced us

        if (!reclaims)
            reclaims = reclaimCounts();
        if (requeue(name, id, (*reclaims)[id] + 1,
                    lease ? lease->owner
                          : "<no lease: mid-claim crash>") ==
            Requeued::Pending)
            ++count;
    }
    return count;
}

WorkQueue::Requeued
WorkQueue::requeue(const std::string &name, const std::string &id,
                   std::size_t strikes, const std::string &last_owner)
{
    // Poison-task quarantine: this is the task's Nth strike — each one
    // means a worker died, stalled or could not publish holding it.
    // Past the budget, park it in quarantine/ with its context instead
    // of feeding it to (and killing) workers forever.
    if (quarantineAfter_ != 0 && strikes >= quarantineAfter_) {
        // A failed move (raced or injected) leaves it for a later pass.
        if (!faultTryRename(dir_ + "/claimed/" + name,
                            dir_ + "/quarantine/" + name,
                            "queue.quarantine.rename"))
            return Requeued::None;
        std::string why = "task " + id + " quarantined after " +
                          std::to_string(strikes) +
                          " reclaims (each one a worker death, a stall "
                          "or a failed completion)\n" +
                          "last owner: " + last_owner + "\n";
        if (const std::optional<std::string> line =
                readFirstLine(dir_ + "/quarantine/" + name))
            why += "task record: " + *line + "\n";
        // Context is best-effort: losing the .why file never loses
        // the quarantine itself (that is the rename above).
        (void)tryWriteFile(dir_ + "/quarantine/" + id + ".why", why,
                           "queue.quarantine.write");
        QueueLogRecord record;
        record.op = "quarantine";
        record.task.id = id;
        appendLog(record);
        cfl_warn("quarantined poison task \"%s\" after %zu "
                 "reclaims (see %s/quarantine/%s.why)", id.c_str(),
                 strikes, dir_.c_str(), id.c_str());
        return Requeued::Quarantine;
    }

    if (!faultTryRename(dir_ + "/claimed/" + name,
                        dir_ + "/pending/" + name,
                        "queue.reclaim.rename"))
        return Requeued::None;
    QueueLogRecord record;
    record.op = "reclaim";
    record.task.id = id;
    appendLog(record);
    return Requeued::Pending;
}

std::map<std::string, std::size_t>
WorkQueue::reclaimCounts() const
{
    std::map<std::string, std::size_t> counts;
    for (const QueueLogRecord &record : readLog())
        if (record.op == "reclaim")
            ++counts[record.task.id];
    return counts;
}

sweepio::QueueStatusRecord
WorkQueue::status() const
{
    sweepio::QueueStatusRecord st;
    st.atMs = nowMs();
    st.stop = stopRequested();

    const std::vector<TaskFileInfo> claimed =
        scanTaskFiles(dir_ + "/claimed");
    st.pending = pendingCount();
    st.claimed = claimed.size();
    st.cancelled = countTaskFiles(dir_ + "/cancelled");
    st.quarantined = quarantinedCount();

    std::error_code ec;
    for (const fs::directory_entry &entry :
         fs::directory_iterator(dir_ + "/done", ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 5 &&
            name.compare(name.size() - 5, std::string::npos, ".done") ==
                0)
            ++st.done;
    }

    for (const TaskFileInfo &info : claimed) {
        const std::optional<LeaseRecord> lease = readLease(info.id);
        if (!lease)
            continue; // released or mid-reclaim; the next pass settles
        sweepio::QueueLeaseStatus ls;
        ls.id = info.id;
        ls.owner = lease->owner;
        if (lease->sinceMs != 0 && st.atMs > lease->sinceMs)
            ls.heartbeatAgeMs = st.atMs - lease->sinceMs;
        if (lease->deadlineMs > st.atMs)
            ls.remainingMs = lease->deadlineMs - st.atMs;
        st.leases.push_back(std::move(ls));
    }
    return st;
}

std::size_t
WorkQueue::quarantinedCount() const
{
    return countTaskFiles(dir_ + "/quarantine");
}

bool
WorkQueue::isQuarantined(const std::string &id) const
{
    return hasTaskFile(dir_ + "/quarantine", id);
}

void
WorkQueue::requestStop()
{
    writeFileOrDie(dir_ + "/stop", "stop\n", "queue.stop.write");
}

bool
WorkQueue::stopRequested() const
{
    return fs::exists(dir_ + "/stop");
}

void
WorkQueue::clearStop()
{
    ::unlink((dir_ + "/stop").c_str());
}

std::string
shellExtractFlagValue(const std::string &command, const std::string &flag)
{
    // Tokenize the way /bin/sh would split this command line: spaces
    // outside quotes separate words, single quotes span literally, and
    // a backslash outside quotes escapes the next character (the only
    // place shellQuote() emits one is the '\'' embedded-quote idiom).
    // Matching the flag against whole *words* keeps a flag-shaped
    // substring inside some quoted path from ever counting.
    std::vector<std::string> words;
    std::string word;
    bool in_word = false, in_quotes = false;
    for (std::size_t i = 0; i < command.size(); ++i) {
        const char c = command[i];
        if (in_quotes) {
            if (c == '\'')
                in_quotes = false;
            else
                word += c;
            continue;
        }
        if (c == '\'') {
            in_quotes = true;
            in_word = true;
            continue;
        }
        if (c == '\\' && i + 1 < command.size()) {
            word += command[++i];
            in_word = true;
            continue;
        }
        if (c == ' ') {
            if (in_word)
                words.push_back(std::move(word));
            word.clear();
            in_word = false;
            continue;
        }
        word += c;
        in_word = true;
    }
    if (in_word)
        words.push_back(std::move(word));

    // The last occurrence wins, like the shell's own option parsing.
    std::string value;
    for (std::size_t i = 0; i + 1 < words.size(); ++i)
        if (words[i] == flag)
            value = words[i + 1];
    return value;
}

} // namespace cfl::queue
