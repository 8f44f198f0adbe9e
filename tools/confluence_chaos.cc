/**
 * @file
 * Chaos harness: drive coordinator + worker sweeps under hundreds of
 * seeded random fault schedules and assert the stack's durability
 * invariants survive every one of them.
 *
 * Each schedule is one complete distributed sweep — a queue-backend
 * `confluence_dispatch` coordinator plus a small fleet of
 * `confluence_worker` daemons — where every process runs under a
 * CONFLUENCE_FAULT_PLAN derived deterministically from the schedule
 * seed (fault/fault.hh): short and torn writes, ENOSPC, EIO, failed
 * renames, sudden process death, and lease-clock skew, injected at the
 * durability-critical sites in src/queue, src/dispatch and the worker.
 * Dead workers are respawned (fresh plan incarnation); a dead or hung
 * coordinator is restarted, exactly as an operator would restart it.
 *
 * After each schedule the harness asserts:
 *   1. the merged result is byte-identical to the fault-free
 *      reference;
 *   2. the queue is drainable — no wedged claims, every leftover task
 *      reclaimable or cancellable;
 *   3. a clean re-dispatch (no faults) exits 0 and reproduces the
 *      reference bytes again; when no cache faults fired it must also
 *      report cache_misses=0 / evaluated_points=0 (no shard's work was
 *      lost), and when *no* fault fired at all the cache must hold
 *      exactly one entry per point (no shard evaluated twice).
 *
 * Shard evaluation is stubbed: workers run this binary's --serve-ref
 * mode (via a generated serve.sh wrapper) which answers each shard
 * from the reference result instead of simulating, so a schedule takes
 * milliseconds of compute and the interesting work is all control
 * plane. Every instrumented queue/dispatch/cache path still runs for
 * real.
 *
 * Modes:
 *
 *   confluence_chaos --points spec.jsonl --ref ref.jsonl
 *       --dispatch-bin PATH --worker-bin PATH [--sweep-bin PATH]
 *       [--schedules N] [--seed S] [--work-dir DIR] [--workers N]
 *       [--slots N] [--shards N] [--rate F] [--lease SEC]
 *       [--max-restarts N] [--timeout SEC] [--keep]
 *     Run N schedules (seeds S..S+N-1), then auto-replay one fired
 *     schedule to prove plans reproduce their fault sequence exactly.
 *
 *   confluence_chaos --replay SEED ... (same flags)
 *     Run schedule SEED twice in a serial configuration and assert the
 *     two runs fire the byte-identical fault sequence.
 *
 *   confluence_chaos --serve-ref ref.jsonl --points spec.jsonl
 *       [--shard i/N] --out out.jsonl
 *     The worker-side stub: answer the spec's points from the
 *     reference result (passing the "sweep.result.publish" fault site
 *     on the way out, like the real sweep).
 *
 * Exit codes: 0 all schedules ok (or quarantined) and replay
 * reproduced; 1 any schedule failed an invariant or replay diverged;
 * 2 usage.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/strings.hh"
#include "fault/fault.hh"
#include "queue/queue.hh"
#include "sweepio/codec.hh"
#include "sweepio/shard.hh"

using namespace cfl;
namespace fs = std::filesystem;

namespace
{

constexpr int kExitUsage = 2;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s --points spec.jsonl --ref ref.jsonl\n"
        "     --dispatch-bin PATH --worker-bin PATH [--sweep-bin PATH]\n"
        "     [--schedules N] [--seed S] [--work-dir DIR] [--workers N]\n"
        "     [--slots N] [--shards N] [--rate F] [--lease SEC]\n"
        "     [--max-restarts N] [--timeout SEC] [--replay SEED] "
        "[--keep]\n"
        "     [--status-out FILE]\n"
        "  %s --serve-ref ref.jsonl --points spec.jsonl [--shard i/N]\n"
        "     --out out.jsonl\n"
        "exit codes: 0 all schedules ok and replay reproduced, 1 any\n"
        "  invariant violated, 2 usage\n",
        argv0, argv0);
    std::exit(kExitUsage);
}

// ---------------------------------------------------------------------
// --serve-ref: the stub sweep the workers run.
// ---------------------------------------------------------------------

int
serveRef(const std::string &ref_path, const std::string &spec_path,
         const std::string &shard_spec, const std::string &out_path)
{
    const SweepResult ref = sweepio::readResult(ref_path);
    std::map<std::string, const SweepOutcome *> by_point;
    for (const SweepOutcome &o : ref.points)
        by_point[sweepio::encode(o.point)] = &o;

    std::vector<SweepPoint> points = sweepio::readPoints(spec_path);
    if (!shard_spec.empty())
        points = sweepio::shardPoints(points,
                                      sweepio::parseShardSpec(shard_spec));

    SweepResult result;
    result.points.reserve(points.size());
    for (const SweepPoint &p : points) {
        const auto it = by_point.find(sweepio::encode(p));
        if (it == by_point.end())
            cfl_fatal("point %s is not in the reference result %s",
                      sweepio::encode(p).c_str(), ref_path.c_str());
        result.points.push_back(*it->second);
    }

    // Same pre-publish fault site as the real sweep, so schedules can
    // kill a "shard" after evaluation but before its result exists.
    fault::checkpoint("sweep.result.publish");
    sweepio::writeResult(out_path, result);
    return 0;
}

// ---------------------------------------------------------------------
// Driver plumbing.
// ---------------------------------------------------------------------

struct ChaosOptions
{
    std::string specPath, refPath;
    std::string dispatchBin, workerBin, sweepBin;
    std::string workDir = "chaos-work";
    unsigned schedules = 100;
    std::uint64_t seed = 1;
    unsigned workers = 2;
    unsigned slots = 4;
    unsigned shards = 4;
    double rate = 0.05;
    unsigned leaseSec = 2;
    unsigned maxRestarts = 10;
    unsigned timeoutSec = 30;
    bool keep = false;
    std::string statusOut; ///< append a queue-status line per schedule
};

pid_t
spawnShell(const std::string &cmd)
{
    const pid_t pid = ::fork();
    if (pid < 0)
        cfl_fatal("fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        ::execl("/bin/sh", "sh", "-c", cmd.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

/** waitpid + decode: exit code, or 128+signal, or -1 while running
 *  (WNOHANG mode). */
int
decodeStatus(int status)
{
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return -1;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::string();
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::size_t
countLines(const std::string &path)
{
    const std::string bytes = readFileBytes(path);
    return static_cast<std::size_t>(
        std::count(bytes.begin(), bytes.end(), '\n'));
}

/** Pull "key=<unsigned>" out of a stats line; nullopt if absent. */
std::optional<std::uint64_t>
statField(const std::string &text, const std::string &key)
{
    const std::string needle = key + "=";
    const std::size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return std::nullopt;
    return std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
}

/** One fired-fault log line, parsed back out of a plan's log file. */
struct FiredFault
{
    std::string site;
    std::string kind;
};

std::vector<FiredFault>
parseFaultLogs(const std::string &dir)
{
    std::vector<FiredFault> fired;
    if (!fs::exists(dir))
        return fired;
    std::vector<std::string> paths;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("faults-", 0) == 0)
            paths.push_back(entry.path().string());
    }
    std::sort(paths.begin(), paths.end());
    for (const std::string &path : paths) {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            // "fault site=<s> hit=<n> kind=<k> arg=<a>"
            FiredFault f;
            const std::size_t sp = line.find("site=");
            const std::size_t kp = line.find("kind=");
            if (sp == std::string::npos || kp == std::string::npos)
                continue;
            f.site = line.substr(sp + 5, line.find(' ', sp + 5) - sp - 5);
            f.kind = line.substr(kp + 5, line.find(' ', kp + 5) - kp - 5);
            fired.push_back(f);
        }
    }
    return fired;
}

/** Map of fault-log file name -> exact bytes, for replay comparison. */
std::map<std::string, std::string>
faultLogBytes(const std::string &dir)
{
    std::map<std::string, std::string> logs;
    if (!fs::exists(dir))
        return logs;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("faults-", 0) == 0)
            logs[name] = readFileBytes(entry.path().string());
    }
    return logs;
}

/** The fault kinds a schedule draws from, derived from its seed. */
std::vector<fault::Kind>
scheduleKinds(std::uint64_t sched_seed)
{
    Rng rng(hashCombine(0xC4A05u, sched_seed));
    std::vector<fault::Kind> kinds;
    const struct { fault::Kind kind; double p; } menu[] = {
        {fault::Kind::ShortWrite, 0.6}, {fault::Kind::Enospc, 0.6},
        {fault::Kind::Eio, 0.6},        {fault::Kind::RenameFail, 0.6},
        {fault::Kind::Die, 0.5},        {fault::Kind::Kill, 0.3},
        {fault::Kind::ClockSkew, 0.3},
    };
    for (const auto &entry : menu)
        if (rng.nextBool(entry.p))
            kinds.push_back(entry.kind);
    if (kinds.empty())
        kinds.push_back(fault::Kind::Die);
    return kinds;
}

double
scheduleRate(std::uint64_t sched_seed, double max_rate)
{
    Rng rng(hashCombine(0xC4A7Eu, sched_seed));
    return 0.01 + rng.nextDouble() * std::max(0.0, max_rate - 0.01);
}

/** Build one process's CONFLUENCE_FAULT_PLAN spec. Role ids keep the
 *  coordinator's decision stream independent of every worker's. */
std::string
planSpec(std::uint64_t sched_seed, unsigned role_id, unsigned incarnation,
         const std::vector<fault::Kind> &kinds, double rate,
         const std::string &log_path)
{
    std::string kinds_csv;
    for (const fault::Kind k : kinds) {
        if (!kinds_csv.empty())
            kinds_csv += ",";
        kinds_csv += fault::kindSlug(k);
    }
    const std::uint64_t seed = hashCombine(
        sched_seed, hashCombine(role_id, incarnation));
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "seed=%llu;rate=%.6f;kinds=%s;"
                  "sites=queue.,cache.,dispatch.,worker.;"
                  "skew-cap-ms=5000;log=%s",
                  static_cast<unsigned long long>(seed), rate,
                  kinds_csv.c_str(), log_path.c_str());
    return buf;
}

struct ScheduleResult
{
    std::string outcome = "FAILED"; ///< ok | quarantined | FAILED
    std::string reason;
    unsigned coordinatorAttempts = 0;
    std::vector<FiredFault> fired;
};

struct WorkerSlot
{
    pid_t pid = -1;
    unsigned incarnation = 0;
};

class ScheduleRunner
{
  public:
    ScheduleRunner(const ChaosOptions &opts, std::uint64_t sched_seed,
                   std::string dir, unsigned worker_count, unsigned slots)
        : opts_(opts), seed_(sched_seed), dir_(std::move(dir)),
          workerCount_(worker_count), slots_(slots),
          kinds_(scheduleKinds(sched_seed)),
          rate_(scheduleRate(sched_seed, opts.rate))
    {
    }

    ScheduleResult run();

    const std::string &dir() const { return dir_; }

  private:
    static constexpr unsigned kMaxRespawns = 60;
    static constexpr unsigned kCoordinatorRoleId = 999;

    std::string workerCmd(unsigned index, unsigned incarnation) const;
    std::string coordinatorCmd(unsigned attempt) const;
    void superviseWorkers(std::vector<WorkerSlot> &fleet);
    void killWorkers(std::vector<WorkerSlot> &fleet);
    bool drainQueue(std::string *why);
    bool cleanVerify(const std::string &ref_bytes, bool expect_no_eval,
                     std::string *why);

    const ChaosOptions &opts_;
    std::uint64_t seed_;
    std::string dir_;
    unsigned workerCount_, slots_;
    std::vector<fault::Kind> kinds_;
    double rate_;
    unsigned respawns_ = 0;
};

std::string
ScheduleRunner::workerCmd(unsigned index, unsigned incarnation) const
{
    const std::string log =
        dir_ + "/faults-w" + std::to_string(index) + "-i" +
        std::to_string(incarnation) + ".log";
    const std::string plan =
        planSpec(seed_, index, incarnation, kinds_, rate_, log);
    return "exec env 'CONFLUENCE_FAULT_PLAN=" + plan + "' '" +
           opts_.workerBin + "' --queue '" + dir_ + "/queue' --owner " +
           "chaos-w" + std::to_string(index) + "-i" +
           std::to_string(incarnation) + " --lease " +
           std::to_string(opts_.leaseSec) + " --poll-ms 25 --cache '" +
           dir_ + "/cache.jsonl' >> '" + dir_ + "/worker-" +
           std::to_string(index) + ".log' 2>&1";
}

std::string
ScheduleRunner::coordinatorCmd(unsigned attempt) const
{
    const std::string log =
        dir_ + "/faults-c-i" + std::to_string(attempt) + ".log";
    const std::string plan = planSpec(seed_, kCoordinatorRoleId, attempt,
                                      kinds_, rate_, log);
    return "exec env 'CONFLUENCE_FAULT_PLAN=" + plan + "' '" +
           opts_.dispatchBin + "' --points '" + opts_.specPath +
           "' --out '" + dir_ + "/merged.jsonl' --backend queue " +
           "--queue-dir '" + dir_ + "/queue' --workers " +
           std::to_string(slots_) + " --shards " +
           std::to_string(opts_.shards) + " --sweep-bin '" +
           opts_.sweepBin + "' --cache '" + dir_ + "/cache.jsonl' " +
           "--work-dir '" + dir_ + "/work' --timeout 20 --retries 4 " +
           "--backoff-ms 25 >> '" + dir_ + "/coordinator.log' 2>&1";
}

void
ScheduleRunner::superviseWorkers(std::vector<WorkerSlot> &fleet)
{
    for (unsigned i = 0; i < fleet.size(); ++i) {
        WorkerSlot &slot = fleet[i];
        if (slot.pid < 0)
            continue;
        int status = 0;
        if (::waitpid(slot.pid, &status, WNOHANG) != slot.pid)
            continue; // still running
        // A worker died (injected death, or a fatal site) — respawn a
        // fresh incarnation, like a process supervisor would. The cap
        // only guards against a pathological schedule spinning.
        slot.pid = -1;
        if (respawns_ >= kMaxRespawns)
            continue;
        ++respawns_;
        slot.incarnation += 1;
        slot.pid = spawnShell(workerCmd(i, slot.incarnation));
    }
}

void
ScheduleRunner::killWorkers(std::vector<WorkerSlot> &fleet)
{
    for (WorkerSlot &slot : fleet) {
        if (slot.pid < 0)
            continue;
        ::kill(slot.pid, SIGKILL);
        int status = 0;
        ::waitpid(slot.pid, &status, 0);
        slot.pid = -1;
    }
}

bool
ScheduleRunner::drainQueue(std::string *why)
{
    queue::WorkQueue queue(dir_ + "/queue");
    using Clock = std::chrono::steady_clock;
    // Leases written by skewed workers can sit up to skew-cap past
    // their nominal expiry; the deadline comfortably covers that.
    const auto deadline =
        Clock::now() + std::chrono::seconds(
                           std::max(10u, 4 * opts_.leaseSec + 6));
    while (queue.claimedCount() != 0) {
        queue.reclaimExpired();
        if (Clock::now() >= deadline) {
            *why = "queue wedged: " +
                   std::to_string(queue.claimedCount()) +
                   " claim(s) never became reclaimable";
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    // Leftover pending tasks (enqueued by a coordinator attempt that
    // died, or re-pended just now) must all be cancellable.
    queue.cancelPending();
    if (queue.pendingCount() != 0) {
        *why = "queue wedged: " + std::to_string(queue.pendingCount()) +
               " pending task(s) resisted cancellation";
        return false;
    }
    return true;
}

bool
ScheduleRunner::cleanVerify(const std::string &ref_bytes,
                            bool expect_no_eval, std::string *why)
{
    // No fault plan, local backend: if the chaos run left the cache
    // coherent, this re-dispatch is pure cache replay.
    const std::string cmd =
        "exec '" + opts_.dispatchBin + "' --points '" + opts_.specPath +
        "' --out '" + dir_ + "/verify.jsonl' --backend local " +
        "--workers 2 --shards " + std::to_string(opts_.shards) +
        " --sweep-bin '" + opts_.sweepBin + "' --cache '" + dir_ +
        "/cache.jsonl' --work-dir '" + dir_ + "/verify-work' > '" +
        dir_ + "/verify.stdout' 2>> '" + dir_ + "/verify.log'";
    const pid_t pid = spawnShell(cmd);
    int status = 0;
    ::waitpid(pid, &status, 0);
    const int code = decodeStatus(status);
    if (code != 0) {
        *why = "clean verify dispatch exited " + std::to_string(code);
        return false;
    }
    if (readFileBytes(dir_ + "/verify.jsonl") != ref_bytes) {
        *why = "clean verify merge is not byte-identical to the "
               "reference";
        return false;
    }
    if (expect_no_eval) {
        const std::string stats =
            readFileBytes(dir_ + "/verify.stdout");
        const auto misses = statField(stats, "cache_misses");
        const auto evaluated = statField(stats, "evaluated_points");
        if (!misses || !evaluated || *misses != 0 || *evaluated != 0) {
            *why = "cache lost completed work: clean verify reported "
                   "cache_misses=" +
                   std::to_string(misses.value_or(~0ull)) +
                   " evaluated_points=" +
                   std::to_string(evaluated.value_or(~0ull));
            return false;
        }
    }
    return true;
}

ScheduleResult
ScheduleRunner::run()
{
    ScheduleResult result;
    fs::create_directories(dir_);
    { // Creates the queue layout before any child races to.
        queue::WorkQueue queue(dir_ + "/queue");
    }

    std::vector<WorkerSlot> fleet(workerCount_);
    for (unsigned i = 0; i < fleet.size(); ++i)
        fleet[i].pid = spawnShell(workerCmd(i, 0));

    using Clock = std::chrono::steady_clock;
    bool succeeded = false;
    for (unsigned attempt = 0; attempt <= opts_.maxRestarts; ++attempt) {
        result.coordinatorAttempts = attempt + 1;
        const pid_t coord = spawnShell(coordinatorCmd(attempt));
        const auto deadline =
            Clock::now() + std::chrono::seconds(opts_.timeoutSec);
        int code = -1;
        while (true) {
            int status = 0;
            if (::waitpid(coord, &status, WNOHANG) == coord) {
                code = decodeStatus(status);
                break;
            }
            if (Clock::now() >= deadline) {
                ::kill(coord, SIGKILL);
                ::waitpid(coord, &status, 0);
                code = 128 + SIGKILL;
                break;
            }
            superviseWorkers(fleet);
            std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
        if (code == 0) {
            succeeded = true;
            break;
        }
        // A quarantined task can never complete: restarting the
        // coordinator would only feed it more workers. That is the
        // *designed* outcome for a poison schedule — record it and
        // still require the queue to drain below.
        queue::WorkQueue queue(dir_ + "/queue");
        if (queue.quarantinedCount() != 0) {
            result.outcome = "quarantined";
            break;
        }
    }

    killWorkers(fleet);
    result.fired = parseFaultLogs(dir_);

    std::string why;
    if (!succeeded && result.outcome != "quarantined") {
        result.reason = "coordinator never succeeded in " +
                        std::to_string(result.coordinatorAttempts) +
                        " attempt(s)";
        return result;
    }
    if (!drainQueue(&why)) {
        result.outcome = "FAILED";
        result.reason = why;
        return result;
    }
    if (!succeeded) // quarantined, queue drained: designed outcome
        return result;

    const std::string ref_bytes = readFileBytes(opts_.refPath);
    if (readFileBytes(dir_ + "/merged.jsonl") != ref_bytes) {
        result.reason =
            "merged result is not byte-identical to the reference";
        return result;
    }

    bool cache_fault = false, any_fired = !result.fired.empty();
    for (const FiredFault &f : result.fired)
        if (f.site.rfind("cache.", 0) == 0)
            cache_fault = true;
    if (!cleanVerify(ref_bytes, !cache_fault, &why)) {
        result.reason = why;
        return result;
    }
    if (!any_fired) {
        // Nothing fired, so nothing excuses rework: the cache must
        // hold exactly one entry per point.
        const std::size_t lines = countLines(dir_ + "/cache.jsonl");
        const std::size_t points =
            sweepio::readPoints(opts_.specPath).size();
        if (lines != points) {
            result.reason = "shard evaluated twice: " +
                            std::to_string(lines) +
                            " cache entries for " +
                            std::to_string(points) + " points";
            return result;
        }
    }
    result.outcome = "ok";
    return result;
}

/** Run one schedule; prints its one-line verdict. */
ScheduleResult
runSchedule(const ChaosOptions &opts, std::uint64_t sched_seed,
            const std::string &dir, unsigned workers, unsigned slots)
{
    ScheduleRunner runner(opts, sched_seed, dir, workers, slots);
    ScheduleResult result = runner.run();
    if (!opts.statusOut.empty()) {
        // Post-mortem queue snapshot, before the schedule dir is torn
        // down: on a clean schedule every depth is zero, so nonzero
        // numbers in the artifact point straight at the failure.
        queue::WorkQueue queue(dir + "/queue");
        std::ofstream status(opts.statusOut, std::ios::app);
        if (status)
            status << sweepio::encode(queue.status())
                   << "\n";
        else
            cfl_warn("cannot append queue status to \"%s\"",
                     opts.statusOut.c_str());
    }
    std::string kinds_csv;
    for (const fault::Kind k : scheduleKinds(sched_seed)) {
        if (!kinds_csv.empty())
            kinds_csv += ",";
        kinds_csv += fault::kindSlug(k);
    }
    std::printf("chaos schedule seed=%llu outcome=%s attempts=%u "
                "fired=%zu kinds=%s%s%s\n",
                static_cast<unsigned long long>(sched_seed),
                result.outcome.c_str(), result.coordinatorAttempts,
                result.fired.size(), kinds_csv.c_str(),
                result.reason.empty() ? "" : " reason=",
                result.reason.c_str());
    std::fflush(stdout);
    if (result.outcome != "FAILED" && !opts.keep)
        fs::remove_all(dir);
    return result;
}

/**
 * Replay schedule @p sched_seed twice in a serial configuration (one
 * worker, one slot — no cross-process races over claim order) and
 * assert both runs fire the byte-identical fault sequence per process.
 */
bool
runReplay(const ChaosOptions &opts, std::uint64_t sched_seed)
{
    std::map<std::string, std::string> logs[2];
    for (int pass = 0; pass < 2; ++pass) {
        const std::string dir = opts.workDir + "/replay-" +
                                std::to_string(sched_seed) +
                                (pass == 0 ? "-a" : "-b");
        fs::remove_all(dir);
        ScheduleRunner runner(opts, sched_seed, dir, 1, 1);
        const ScheduleResult result = runner.run();
        if (result.outcome == "FAILED") {
            std::printf("chaos replay seed=%llu pass=%d outcome=FAILED "
                        "reason=%s\n",
                        static_cast<unsigned long long>(sched_seed),
                        pass, result.reason.c_str());
            return false;
        }
        logs[pass] = faultLogBytes(dir);
    }
    const bool identical = logs[0] == logs[1];
    std::size_t fired = 0;
    for (const auto &entry : logs[0])
        fired += std::count(entry.second.begin(), entry.second.end(),
                            '\n');
    std::printf("chaos replay seed=%llu fired=%zu identical=%s\n",
                static_cast<unsigned long long>(sched_seed), fired,
                identical ? "yes" : "NO");
    if (identical && !opts.keep) {
        fs::remove_all(opts.workDir + "/replay-" +
                       std::to_string(sched_seed) + "-a");
        fs::remove_all(opts.workDir + "/replay-" +
                       std::to_string(sched_seed) + "-b");
    }
    return identical;
}

/** A schedule qualifies for auto-replay when faults fired but none of
 *  the timing-coupled kinds did: death and skew faults make lease
 *  reclaim race between the coordinator and the worker, so their hit
 *  interleavings are real races, not plan nondeterminism. */
bool
replayCandidate(const ScheduleResult &result)
{
    if (result.fired.empty())
        return false;
    for (const FiredFault &f : result.fired) {
        if (f.kind == "die" || f.kind == "kill" ||
            f.kind == "clock-skew")
            return false;
        if (f.site.rfind("queue.done", 0) == 0 ||
            f.site.rfind("queue.lease.renew", 0) == 0)
            return false;
    }
    return true;
}

std::string
selfPath(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0)
        return std::string(buf, static_cast<std::size_t>(n));
    return argv0;
}

} // namespace

int
main(int argc, char **argv)
{
    ChaosOptions opts;
    std::string serve_ref, shard_spec, out_path;
    std::optional<std::uint64_t> replay_seed;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cfl_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--points")
            opts.specPath = value();
        else if (arg == "--ref")
            opts.refPath = value();
        else if (arg == "--serve-ref")
            serve_ref = value();
        else if (arg == "--shard")
            shard_spec = value();
        else if (arg == "--out")
            out_path = value();
        else if (arg == "--dispatch-bin")
            opts.dispatchBin = value();
        else if (arg == "--worker-bin")
            opts.workerBin = value();
        else if (arg == "--sweep-bin")
            opts.sweepBin = value();
        else if (arg == "--work-dir")
            opts.workDir = value();
        else if (arg == "--schedules")
            opts.schedules = parseUnsignedFlag(arg, value());
        else if (arg == "--seed")
            opts.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--workers")
            opts.workers = parseUnsignedFlag(arg, value());
        else if (arg == "--slots")
            opts.slots = parseUnsignedFlag(arg, value());
        else if (arg == "--shards")
            opts.shards = parseUnsignedFlag(arg, value());
        else if (arg == "--rate")
            opts.rate = std::strtod(value().c_str(), nullptr);
        else if (arg == "--lease")
            opts.leaseSec = parseUnsignedFlag(arg, value());
        else if (arg == "--max-restarts")
            opts.maxRestarts = parseUnsignedFlag(arg, value());
        else if (arg == "--timeout")
            opts.timeoutSec = parseUnsignedFlag(arg, value());
        else if (arg == "--replay")
            replay_seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (arg == "--keep")
            opts.keep = true;
        else if (arg == "--status-out")
            opts.statusOut = value();
        else
            usage(argv[0]);
    }

    if (!serve_ref.empty()) {
        if (opts.specPath.empty() || out_path.empty())
            usage(argv[0]);
        return serveRef(serve_ref, opts.specPath, shard_spec, out_path);
    }

    if (opts.specPath.empty() || opts.refPath.empty() ||
        opts.dispatchBin.empty() || opts.workerBin.empty())
        usage(argv[0]);
    if (opts.workers == 0 || opts.slots == 0 || opts.shards == 0 ||
        opts.leaseSec == 0)
        cfl_fatal("--workers/--slots/--shards/--lease must be >= 1");

    // The driver itself must run fault-free: children get their plans
    // via explicit env prefixes, never by inheritance.
    ::unsetenv("CONFLUENCE_FAULT_PLAN");

    fs::create_directories(opts.workDir);
    opts.specPath = fs::absolute(opts.specPath).string();
    opts.refPath = fs::absolute(opts.refPath).string();
    opts.dispatchBin = fs::absolute(opts.dispatchBin).string();
    opts.workerBin = fs::absolute(opts.workerBin).string();
    opts.workDir = fs::absolute(opts.workDir).string();
    if (!opts.statusOut.empty())
        opts.statusOut = fs::absolute(opts.statusOut).string();

    if (opts.sweepBin.empty()) {
        // Generate the serve.sh stub the dispatcher will invoke in
        // place of confluence_sweep: it forwards each shard call into
        // this binary's --serve-ref mode.
        const std::string serve = opts.workDir + "/serve.sh";
        std::ofstream out(serve);
        out << "#!/bin/sh\nexec '" << selfPath(argv[0])
            << "' --serve-ref '" << opts.refPath << "' \"$@\"\n";
        out.close();
        ::chmod(serve.c_str(), 0755);
        opts.sweepBin = serve;
    } else {
        opts.sweepBin = fs::absolute(opts.sweepBin).string();
    }

    if (replay_seed) {
        const bool ok = runReplay(opts, *replay_seed);
        return ok ? 0 : 1;
    }

    unsigned ok = 0, quarantined = 0, failed = 0;
    std::optional<std::uint64_t> candidate;
    for (unsigned i = 0; i < opts.schedules; ++i) {
        const std::uint64_t s = opts.seed + i;
        const std::string dir =
            opts.workDir + "/s" + std::to_string(s);
        fs::remove_all(dir);
        const ScheduleResult result =
            runSchedule(opts, s, dir, opts.workers, opts.slots);
        if (result.outcome == "ok")
            ++ok;
        else if (result.outcome == "quarantined")
            ++quarantined;
        else
            ++failed;
        if (!candidate && result.outcome == "ok" &&
            replayCandidate(result))
            candidate = s;
    }

    // Prove determinism end to end: one fired schedule, replayed twice,
    // must produce the byte-identical fault sequence.
    bool replay_ok = true;
    long long replayed = -1;
    if (candidate) {
        replayed = static_cast<long long>(*candidate);
        replay_ok = runReplay(opts, *candidate);
    } else {
        std::printf("chaos replay skipped: no schedule fired a "
                    "timing-independent fault mix\n");
    }

    std::printf("chaos summary schedules=%u ok=%u quarantined=%u "
                "failed=%u replay_seed=%lld replay=%s\n",
                opts.schedules, ok, quarantined, failed, replayed,
                replay_ok ? (candidate ? "ok" : "skipped") : "FAILED");
    return (failed == 0 && replay_ok) ? 0 : 1;
}
