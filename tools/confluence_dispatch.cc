/**
 * @file
 * Fault-tolerant sweep dispatcher CLI.
 *
 * Takes a sweep spec (the same JSONL confluence_sweep emits), partitions
 * it into shards, and drives one `confluence_sweep --points` process per
 * shard through a worker backend — a local subprocess pool, or the
 * persistent work queue — with per-shard timeout and bounded retry.
 * Completed outcomes land in a content-addressed result
 * cache keyed on (point, seed base, code version), so re-dispatching a
 * sweep only evaluates points whose key changed; the merged output is
 * byte-identical to the single-process `confluence_sweep --points` run
 * either way.
 *
 * Modes (one per invocation):
 *
 *   confluence_dispatch --points spec.jsonl --out merged.jsonl
 *       [--backend local|queue] [--workers N]
 *       [--queue-dir DIR] [--queue-name NAME]
 *       [--tenant ID] [--priority N] [--tenant-weight W]
 *       [--tenant-quota Q] [--shards M]
 *       [--timeout SEC] [--retries K] [--backoff-ms MS]
 *       [--sweep-bin PATH] [--cache FILE | --no-cache]
 *       [--code-version TAG] [--work-dir DIR]
 *     Dispatch the spec and write the merged result. Failed shards
 *     retry after a capped exponential backoff with deterministic
 *     jitter (--backoff-ms sets the first-retry delay; 0 disables).
 *     Prints one machine-readable stats line to stdout:
 *       dispatch total_points=.. cache_hits=.. cache_misses=..
 *                evaluated_points=.. shards=.. retries=..
 *                attempts=.. backoff_ms=..
 *     --backend queue enqueues cache-miss shards into a persistent
 *     work queue (src/queue; --queue-dir, default $CONFLUENCE_QUEUE_DIR)
 *     that confluence_worker daemons pull from. The coordinator is
 *     restartable: before dispatching it reconciles the queue —
 *     cancels unclaimed tasks from a dead predecessor and waits out
 *     claimed ones (their outcomes land in the result cache) — so a
 *     SIGKILLed coordinator can simply be rerun and produces the same
 *     merged bytes without re-evaluating a single shard.
 *     --queue-name targets a named sub-queue; --tenant / --priority
 *     tag the submitted tasks for the queue's fair-share claim policy
 *     (priority first, then weighted round-robin across tenants, then
 *     FIFO); --tenant-weight / --tenant-quota record the tenant's
 *     scheduling config in the queue before dispatching. After a
 *     queue dispatch the coordinator reports its cache hit/miss
 *     counters into the queue's stats.jsonl for --queue-status.
 *
 *   confluence_dispatch --queue-status [--queue-dir DIR]
 *       [--queue-name NAME] [--serve SEC] [--serve-max N]
 *     Print a machine-readable queue snapshot (one QueueStatusRecord
 *     JSONL line: depth per tenant/priority, active leases with
 *     heartbeat age, quarantine count, cache hit rate) to stdout and
 *     a human-readable summary to stderr. With --serve SEC, refresh
 *     every SEC seconds until the queue's stop marker appears (or
 *     --serve-max N snapshots were printed, for bounded CI runs).
 *
 *   confluence_dispatch --queue-dir DIR [--queue-name NAME]
 *       --stop-workers
 *     Drop the queue's stop marker: every worker daemon drains and
 *     exits 0.
 *
 *   confluence_dispatch --history history.jsonl --result merged.jsonl
 *       --tag TAG [--threshold FRAC]
 *     Report the result's per-design geomean speedups against the
 *     newest history entry, then append them. A design regressed by
 *     more than FRAC (default 0.02) exits 5 *without* appending, so a
 *     regressed run never becomes the next comparison baseline.
 *
 * Environment:
 *   CONFLUENCE_FAULT_PLAN  the unified fault-injection framework
 *       (fault/fault.hh): a seeded, site-indexed schedule of injected
 *       failures, honored by every instrumented site in this process.
 *       CI's two crash injections are pins: dispatch.child.kill@1:eio
 *       SIGKILLs the second shard child (its retry is clean), and
 *       queue.backend.completion@0:kill SIGKILLs this coordinator at
 *       the first observed queue task completion.
 *   CONFLUENCE_QUEUE_DIR  default --queue-dir for the queue backend.
 *   CONFLUENCE_QUARANTINE_AFTER  queue quarantine strike budget.
 *   CONFLUENCE_CACHE_DIR / CONFLUENCE_CODE_VERSION  default cache
 *       location and cache key code-version tag (see --cache /
 *       --code-version).
 *
 * Exit codes: 0 success, 1 fatal error (bad configuration, shard
 * exhausted its retries), 2 usage, 5 regression threshold exceeded;
 * 137 (SIGKILL) when an injected kill fires. A shard whose queue
 * task is quarantined as poison surfaces exit 6 and is not retried.
 */

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"
#include "dispatch/backend.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/history.hh"
#include "dispatch/result_cache.hh"
#include "queue/backend.hh"
#include "queue/queue.hh"
#include "sweepio/codec.hh"

using namespace cfl;

namespace
{

constexpr int kExitUsage = 2;
constexpr int kExitRegression = 5;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s --points spec.jsonl --out merged.jsonl\n"
        "     [--backend local|queue] [--workers N] [--queue-dir DIR]\n"
        "     [--queue-name NAME] [--tenant ID] [--priority N]\n"
        "     [--tenant-weight W] [--tenant-quota Q]\n"
        "     [--shards M] [--timeout SEC] [--retries K]\n"
        "     [--backoff-ms MS] [--sweep-bin PATH]\n"
        "     [--cache FILE | --no-cache]\n"
        "     [--code-version TAG] [--work-dir DIR]\n"
        "  %s --queue-status [--queue-dir DIR] [--queue-name NAME]\n"
        "     [--serve SEC] [--serve-max N]\n"
        "  %s --queue-dir DIR [--queue-name NAME] --stop-workers\n"
        "  %s --history history.jsonl --result merged.jsonl --tag TAG\n"
        "     [--threshold FRAC]\n"
        "exit codes: 0 ok, 1 fatal, 2 usage, 5 regression over "
        "threshold, 6 task quarantined\n",
        argv0, argv0, argv0, argv0);
    std::exit(kExitUsage);
}

/** Parse a (possibly negative) integer flag value; fatal() else. */
std::int64_t
parseSignedFlag(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        cfl_fatal("%s needs an integer, got \"%s\"", flag.c_str(),
                  text.c_str());
    return v;
}

/** Parse a decimal flag value; fatal() on anything else. */
double
parseDouble(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        cfl_fatal("%s needs a number, got \"%s\"", flag.c_str(),
                  text.c_str());
    return v;
}

/** confluence_sweep next to this binary, falling back to $PATH. */
std::string
defaultSweepBin(const char *argv0)
{
    const std::string self = argv0;
    const std::size_t slash = self.rfind('/');
    if (slash == std::string::npos)
        return "confluence_sweep";
    return self.substr(0, slash + 1) + "confluence_sweep";
}

int
historyMode(const std::string &history_path,
            const std::string &result_path, const std::string &tag,
            double threshold)
{
    const SweepResult result = sweepio::readResult(result_path);
    dispatch::RegressionHistory history(history_path);
    const dispatch::HistoryEntry entry =
        dispatch::RegressionHistory::summarize(result, tag);

    // Gate before appending: a regressed run must not become the next
    // comparison baseline, or one CI re-run would launder it green.
    const std::vector<dispatch::RegressionDelta> deltas =
        history.compare(entry);
    bool regressed = false;
    for (const dispatch::RegressionDelta &d : deltas) {
        std::printf("history %s kind=%s prev=%.17g cur=%.17g "
                    "delta=%+.4f%%\n",
                    tag.c_str(), d.kind.c_str(), d.previous, d.current,
                    d.delta * 100.0);
        if (d.delta < -threshold)
            regressed = true;
    }
    if (regressed) {
        std::fprintf(stderr,
                     "FAIL: a design regressed more than %.2f%% vs the "
                     "previous history entry; not recording %s\n",
                     threshold * 100.0, tag.c_str());
        return kExitRegression;
    }
    history.append(entry);
    if (deltas.empty())
        std::printf("history %s: first entry, nothing to compare\n",
                    tag.c_str());
    return 0;
}

void
printStatusHuman(const sweepio::QueueStatusRecord &st,
                 const std::string &dir)
{
    std::fprintf(stderr,
                 "queue %s (%s): pending=%llu claimed=%llu done=%llu "
                 "cancelled=%llu quarantined=%llu stop=%d\n",
                 st.queue.empty() ? "(root)" : st.queue.c_str(),
                 dir.c_str(),
                 static_cast<unsigned long long>(st.pending),
                 static_cast<unsigned long long>(st.claimed),
                 static_cast<unsigned long long>(st.done),
                 static_cast<unsigned long long>(st.cancelled),
                 static_cast<unsigned long long>(st.quarantined),
                 st.stop ? 1 : 0);
    for (const sweepio::QueueTenantDepth &depth : st.depths)
        std::fprintf(stderr,
                     "  depth tenant=%s priority=%lld pending=%llu\n",
                     depth.tenant.c_str(),
                     static_cast<long long>(depth.priority),
                     static_cast<unsigned long long>(depth.pending));
    for (const sweepio::QueueLeaseStatus &lease : st.leases)
        std::fprintf(stderr,
                     "  lease id=%s owner=%s tenant=%s hb_age_ms=%llu "
                     "remaining_ms=%llu\n",
                     lease.id.c_str(), lease.owner.c_str(),
                     lease.tenant.c_str(),
                     static_cast<unsigned long long>(
                         lease.heartbeatAgeMs),
                     static_cast<unsigned long long>(
                         lease.remainingMs));
    const std::uint64_t lookups = st.cache.hits + st.cache.misses;
    std::fprintf(stderr,
                 "  cache hits=%llu misses=%llu hit_rate=%.1f%%\n",
                 static_cast<unsigned long long>(st.cache.hits),
                 static_cast<unsigned long long>(st.cache.misses),
                 lookups == 0 ? 0.0
                              : 100.0 * static_cast<double>(
                                            st.cache.hits) /
                                    static_cast<double>(lookups));
}

/**
 * One QueueStatusRecord JSONL line per snapshot on stdout (the
 * machine-readable contract), a summary on stderr. --serve keeps
 * refreshing until the queue is told to stop; --serve-max bounds the
 * snapshot count so CI can run the serve loop without wedging.
 */
int
queueStatusMode(const std::string &queue_dir,
                const std::string &queue_name, unsigned serve_sec,
                unsigned serve_max)
{
    queue::WorkQueue wq(queue_dir, queue_name);
    unsigned printed = 0;
    while (true) {
        const sweepio::QueueStatusRecord st = wq.status();
        std::printf("%s\n", sweepio::encode(st).c_str());
        std::fflush(stdout);
        printStatusHuman(st, wq.dir());
        ++printed;
        if (serve_sec == 0)
            break; // one-shot
        if (serve_max != 0 && printed >= serve_max)
            break;
        if (st.stop) {
            std::fprintf(stderr, "queue-status: stop marker present, "
                         "exiting serve loop\n");
            break;
        }
        std::this_thread::sleep_for(std::chrono::seconds(serve_sec));
    }
    return 0;
}

/**
 * Bring a queue left behind by a dead coordinator back to a clean
 * slate before dispatching into it: cancel every unclaimed task (this
 * coordinator will re-partition whatever is still missing from the
 * cache), then wait for claimed tasks to finish or expire — their
 * workers fold completed outcomes into the result cache, so the cache
 * opened *after* this returns sees all surviving work. Reclaimed
 * expired tasks are cancelled too, not rerun: their points are simply
 * cache misses for the fresh dispatch.
 */
void
reconcileQueue(queue::WorkQueue &wq)
{
    std::size_t cancelled = wq.cancelPending();
    while (true) {
        wq.reclaimExpired();
        cancelled += wq.cancelPending();
        const std::size_t claimed = wq.claimedCount();
        if (claimed == 0)
            break;
        std::fprintf(stderr,
                     "reconcile: waiting for %zu in-flight task(s) "
                     "from a previous coordinator\n", claimed);
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
    }
    if (cancelled != 0)
        std::fprintf(stderr,
                     "reconcile: cancelled %zu stale pending task(s)\n",
                     cancelled);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string points_path, out_path;
    std::string backend_name = "local";
    unsigned workers = 2;
    std::string queue_dir = queue::WorkQueue::defaultDir();
    std::string queue_name, tenant;
    std::int64_t priority = 0;
    unsigned tenant_weight = 0, tenant_quota = 0;
    bool tenant_weight_set = false, tenant_quota_set = false;
    bool queue_status = false;
    unsigned serve_sec = 0, serve_max = 0;
    bool stop_workers = false;
    unsigned shards = 0, timeout_sec = 0, retries = 2;
    unsigned backoff_ms = 100;
    std::string sweep_bin = defaultSweepBin(argv[0]);
    std::string cache_path = dispatch::ResultCache::defaultStorePath();
    std::string code_version =
        dispatch::ResultCache::defaultCodeVersion();
    bool no_cache = false;
    std::string work_dir;

    std::string history_path, result_path, tag;
    double threshold = 0.02;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cfl_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--points")
            points_path = value();
        else if (arg == "--out")
            out_path = value();
        else if (arg == "--backend")
            backend_name = value();
        else if (arg == "--workers")
            workers = parseUnsignedFlag(arg, value());
        else if (arg == "--queue-dir")
            queue_dir = value();
        else if (arg == "--queue-name")
            queue_name = value();
        else if (arg == "--tenant")
            tenant = value();
        else if (arg == "--priority")
            priority = parseSignedFlag(arg, value());
        else if (arg == "--tenant-weight") {
            tenant_weight = parseUnsignedFlag(arg, value());
            tenant_weight_set = true;
        } else if (arg == "--tenant-quota") {
            tenant_quota = parseUnsignedFlag(arg, value());
            tenant_quota_set = true;
        } else if (arg == "--queue-status")
            queue_status = true;
        else if (arg == "--serve")
            serve_sec = parseUnsignedFlag(arg, value());
        else if (arg == "--serve-max")
            serve_max = parseUnsignedFlag(arg, value());
        else if (arg == "--stop-workers")
            stop_workers = true;
        else if (arg == "--shards")
            shards = parseUnsignedFlag(arg, value());
        else if (arg == "--timeout")
            timeout_sec = parseUnsignedFlag(arg, value());
        else if (arg == "--retries")
            retries = parseUnsignedFlag(arg, value());
        else if (arg == "--backoff-ms")
            backoff_ms = parseUnsignedFlag(arg, value());
        else if (arg == "--sweep-bin")
            sweep_bin = value();
        else if (arg == "--cache")
            cache_path = value();
        else if (arg == "--no-cache")
            no_cache = true;
        else if (arg == "--code-version")
            code_version = value();
        else if (arg == "--work-dir")
            work_dir = value();
        else if (arg == "--history")
            history_path = value();
        else if (arg == "--result")
            result_path = value();
        else if (arg == "--tag")
            tag = value();
        else if (arg == "--threshold")
            threshold = parseDouble(arg, value());
        else
            usage(argv[0]);
    }

    if (queue_status) {
        if (!points_path.empty() || !history_path.empty() ||
            stop_workers)
            usage(argv[0]);
        return queueStatusMode(queue_dir, queue_name, serve_sec,
                               serve_max);
    }
    if (stop_workers) {
        if (!points_path.empty() || !history_path.empty())
            usage(argv[0]);
        queue::WorkQueue wq(queue_dir, queue_name);
        wq.requestStop();
        std::fprintf(stderr, "stop marker dropped in %s; workers will "
                     "drain and exit\n", wq.dir().c_str());
        return 0;
    }
    if (!history_path.empty()) {
        if (result_path.empty() || tag.empty() || !points_path.empty())
            usage(argv[0]);
        return historyMode(history_path, result_path, tag, threshold);
    }
    if (points_path.empty() || out_path.empty())
        usage(argv[0]);

    std::unique_ptr<queue::WorkQueue> wq;
    std::unique_ptr<dispatch::WorkerBackend> backend;
    if (backend_name == "local") {
        if (workers == 0)
            cfl_fatal("--workers must be >= 1");
        backend = std::make_unique<dispatch::LocalBackend>(workers);
    } else if (backend_name == "queue") {
        if (workers == 0)
            cfl_fatal("--workers must be >= 1");
        wq = std::make_unique<queue::WorkQueue>(queue_dir, queue_name);
        // A stale stop marker from a drained earlier run would make
        // fresh workers exit mid-dispatch; this run wants them alive.
        wq->clearStop();
        // Reconcile *before* the cache loads below, so every outcome a
        // previous coordinator's in-flight tasks produce is visible to
        // this run's cache lookups.
        reconcileQueue(*wq);
        // Record this tenant's scheduling config before submitting
        // under it; unspecified fields keep their recorded values.
        if (tenant_weight_set || tenant_quota_set) {
            const std::string effective =
                tenant.empty() ? "default" : tenant;
            sweepio::TenantRecord config =
                wq->tenantConfig(effective);
            if (tenant_weight_set)
                config.weight = tenant_weight;
            if (tenant_quota_set)
                config.quota = tenant_quota;
            wq->setTenant(effective, config.weight, config.quota);
        }
        queue::QueueBackend::Options qopts;
        qopts.slots = workers;
        qopts.tenant = tenant;
        qopts.priority = priority;
        backend = std::make_unique<queue::QueueBackend>(*wq, qopts);
    } else {
        cfl_fatal("unknown backend \"%s\" (local|queue)",
                  backend_name.c_str());
    }

    dispatch::DispatchOptions opts;
    opts.sweepBin = sweep_bin;
    if (!work_dir.empty())
        opts.workDir = work_dir;
    else if (backend_name == "queue")
        opts.workDir = wq->dir() + "/work"; // shared with the workers,
                                            // per named queue
    else
        opts.workDir = out_path + ".work";
    opts.shards = shards;
    opts.retry.maxAttempts = retries + 1;
    opts.retry.timeoutSec = timeout_sec;
    opts.retry.backoffBaseMs = backoff_ms;
    // In queue mode the workers own cache write-back (that is what
    // makes a coordinator kill lossless); everywhere else the
    // coordinator stores fresh outcomes itself.
    opts.cacheWriteBack = backend_name != "queue";

    std::unique_ptr<dispatch::ResultCache> cache;
    if (!no_cache)
        cache = std::make_unique<dispatch::ResultCache>(cache_path,
                                                        code_version);

    const std::vector<SweepPoint> points =
        sweepio::readPoints(points_path);
    dispatch::DispatchStats stats;
    const SweepResult merged = dispatch::runDispatchedSweep(
        points, *backend, opts, cache.get(), &stats);
    sweepio::writeResult(out_path, merged);

    // Feed the queue's status view: --queue-status reports the cache
    // hit rate from the newest coordinator-recorded counters.
    if (wq != nullptr)
        wq->recordCacheStats(cache ? cache->hits() : 0,
                             cache ? cache->misses() : 0);

    for (const dispatch::ShardRun &run : stats.shardRuns)
        if (run.attempts > 1)
            std::fprintf(stderr,
                         "shard %u needed %u attempts (last exit %d)\n",
                         run.shard, run.attempts, run.lastExit);
    std::fprintf(stderr, "dispatched %zu points (%u workers, backend "
                 "%s) into %s\n",
                 merged.points.size(), backend->workers(),
                 backend_name.c_str(), out_path.c_str());
    std::printf("dispatch total_points=%zu cache_hits=%llu "
                "cache_misses=%llu evaluated_points=%zu shards=%u "
                "retries=%u attempts=%u backoff_ms=%llu\n",
                stats.totalPoints,
                static_cast<unsigned long long>(
                    cache ? cache->hits() : 0),
                static_cast<unsigned long long>(
                    cache ? cache->misses() : 0),
                stats.evaluatedPoints, stats.shards, stats.retries,
                stats.attempts,
                static_cast<unsigned long long>(stats.backoffMs));
    return 0;
}
