/**
 * @file
 * Multi-tenant queue load generator.
 *
 * Floods a work queue (src/queue) with N simulated tenants × M small
 * tasks each at a configurable arrival rate, then verifies the service
 * properties the multi-tenant queue promises:
 *
 *   zero loss — every submitted task reaches a done record with the
 *       expected exit status (quarantined or never-finished tasks
 *       count as lost);
 *   drained  — the queue ends with no pending or claimed tasks;
 *   fairness — sampled at the halfway point of completions, the
 *       max/min per-tenant completed-task ratio stays under
 *       --fairness-bound (tenants are configured with equal weights
 *       and quotas, so the weighted-round-robin claim policy should
 *       serve them near-uniformly).
 *
 * Per-tenant throughput/latency stats go to stdout, one machine-
 * readable line per tenant plus a summary line:
 *
 *   loadgen tenant=t0 completed=64 failed=0 throughput_tps=..
 *           latency_mean_ms=.. latency_p95_ms=.. quota_waits=..
 *   loadgen summary tenants=8 tasks=512 completed=.. failed=..
 *           lost=.. drained=1 fairness_ratio=.. fairness_bound=..
 *           elapsed_s=..
 *
 * The generator only submits and observes; the work itself is done by
 * confluence_worker daemons sharing the queue directory — start those
 * first (they idle politely until tasks appear).
 *
 * Usage:
 *   confluence_loadgen [--queue DIR] [--queue-name NAME]
 *       [--tenants N] [--tasks M] [--arrival-ms MS] [--priority P]
 *       [--quota Q] [--weight W] [--command CMD] [--poll-ms MS]
 *       [--timeout SEC] [--fairness-bound X] [--status-out FILE]
 *
 *   --tenants N        simulated tenants t0..t<N-1> (default 4)
 *   --tasks M          tasks per tenant (default 16)
 *   --arrival-ms MS    per-tenant gap between submissions (default 5)
 *   --priority P       priority for every task (default 0)
 *   --quota Q          per-tenant submission quota (default 0 = none);
 *                      submitters wait for headroom, counting the
 *                      waits into quota_waits
 *   --weight W         per-tenant weight (default 1, i.e. equal)
 *   --command CMD      the task command (default "true")
 *   --poll-ms MS       completion poll interval (default 50)
 *   --timeout SEC      overall deadline (default 300; unfinished
 *                      tasks count as lost)
 *   --fairness-bound X fail (exit 7) when the halfway max/min
 *                      completed ratio exceeds X (default 0 = report
 *                      only)
 *   --status-out FILE  append a final --queue-status snapshot line
 *
 * Exit codes: 0 all gates pass, 1 fatal, 2 usage, 7 a gate failed
 * (lost tasks, undrained queue, or fairness bound exceeded).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/logging.hh"
#include "common/strings.hh"
#include "queue/queue.hh"
#include "sweepio/digest.hh"
#include "sweepio/queue_codec.hh"

using namespace cfl;

namespace
{

constexpr int kExitUsage = 2;
constexpr int kExitGateFailed = 7;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s [--queue DIR] [--queue-name NAME] [--tenants N]\n"
        "     [--tasks M] [--arrival-ms MS] [--priority P]\n"
        "     [--quota Q] [--weight W] [--command CMD] [--poll-ms MS]\n"
        "     [--timeout SEC] [--fairness-bound X]\n"
        "     [--status-out FILE]\n"
        "exit codes: 0 all gates pass, 1 fatal, 2 usage, 7 gate "
        "failed (lost tasks, undrained queue, or unfair service)\n",
        argv0);
    std::exit(kExitUsage);
}

using Clock = std::chrono::steady_clock;

struct TaskState
{
    std::string id;
    unsigned tenant = 0;
    bool enqueued = false;
    bool done = false;
    bool failed = false; ///< done with a nonzero exit
    bool lost = false;   ///< quarantined, or unfinished at timeout
    Clock::time_point enqueuedAt;
    double latencyMs = 0; ///< enqueue -> done observed
};

} // namespace

int
main(int argc, char **argv)
{
    std::string queue_dir = queue::WorkQueue::defaultDir();
    std::string queue_name;
    unsigned tenants = 4, tasks_per_tenant = 16;
    unsigned arrival_ms = 5, poll_ms = 50, timeout_sec = 300;
    std::int64_t priority = 0;
    unsigned quota = 0, weight = 1;
    std::string command = "true";
    double fairness_bound = 0.0;
    std::string status_out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cfl_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--queue")
            queue_dir = value();
        else if (arg == "--queue-name")
            queue_name = value();
        else if (arg == "--tenants")
            tenants = parseUnsignedFlag(arg, value());
        else if (arg == "--tasks")
            tasks_per_tenant = parseUnsignedFlag(arg, value());
        else if (arg == "--arrival-ms")
            arrival_ms = parseUnsignedFlag(arg, value());
        else if (arg == "--priority")
            priority = parseSignedFlag(arg, value());
        else if (arg == "--quota")
            quota = parseUnsignedFlag(arg, value());
        else if (arg == "--weight")
            weight = parseUnsignedFlag(arg, value());
        else if (arg == "--command")
            command = value();
        else if (arg == "--poll-ms")
            poll_ms = parseUnsignedFlag(arg, value());
        else if (arg == "--timeout")
            timeout_sec = parseUnsignedFlag(arg, value());
        else if (arg == "--fairness-bound")
            fairness_bound = parseDoubleFlag(arg, value());
        else if (arg == "--status-out")
            status_out = value();
        else
            usage(argv[0]);
    }
    if (tenants == 0 || tasks_per_tenant == 0)
        cfl_fatal("--tenants and --tasks must be >= 1");
    if (poll_ms == 0)
        cfl_fatal("--poll-ms must be >= 1");
    if (weight == 0)
        cfl_fatal("--weight must be >= 1");

    queue::WorkQueue queue(queue_dir, queue_name);
    queue.clearStop(); // a stale stop marker would idle the workers

    // Equal config for every simulated tenant: the fairness gate below
    // is only meaningful when no tenant is entitled to more service.
    std::vector<std::string> tenant_names;
    for (unsigned t = 0; t < tenants; ++t) {
        tenant_names.push_back("t" + std::to_string(t));
        queue.setTenant(tenant_names.back(), weight, quota);
    }

    // Distinguishes this generator run from debris in a reused queue
    // directory (ids must be unique per queue lifetime).
    const std::string nonce =
        sweepio::hexDigest(sweepio::fnv1a64(
            std::to_string(::getpid()) + ":" +
            std::to_string(std::chrono::duration_cast<
                               std::chrono::nanoseconds>(
                               Clock::now().time_since_epoch())
                               .count()))).substr(0, 8);

    const std::size_t total =
        static_cast<std::size_t>(tenants) * tasks_per_tenant;
    std::vector<TaskState> tasks(total);
    std::mutex mu; ///< guards tasks[] and the stats derived from it
    std::vector<std::uint64_t> quota_waits(tenants, 0);
    std::atomic<bool> abort_submit{false};

    std::fprintf(stderr,
                 "loadgen: %u tenant(s) x %u task(s) -> %s (queue "
                 "\"%s\", priority %lld, quota %u, weight %u)\n",
                 tenants, tasks_per_tenant, queue.dir().c_str(),
                 queue_name.empty() ? "(root)" : queue_name.c_str(),
                 static_cast<long long>(priority), quota, weight);

    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::seconds(timeout_sec);

    // One submitter thread per tenant, pacing submissions at the
    // arrival rate; a tenant at its quota waits (counted) rather than
    // dropping — its backlog is its own, not the queue's.
    std::vector<std::thread> submitters;
    for (unsigned t = 0; t < tenants; ++t) {
        submitters.emplace_back([&, t] {
            for (unsigned j = 0; j < tasks_per_tenant; ++j) {
                sweepio::TaskRecord task;
                task.id = "load-" + nonce + "-t" + std::to_string(t) +
                          "-" + std::to_string(j);
                task.command = command;
                task.tenant = tenant_names[t];
                task.priority = priority;
                while (!abort_submit.load()) {
                    if (queue.tryEnqueue(task))
                        break;
                    {
                        std::lock_guard<std::mutex> lock(mu);
                        ++quota_waits[t];
                    }
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(poll_ms));
                }
                if (abort_submit.load())
                    return;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    TaskState &state =
                        tasks[static_cast<std::size_t>(t) *
                                  tasks_per_tenant + j];
                    state.id = task.id;
                    state.tenant = t;
                    state.enqueued = true;
                    state.enqueuedAt = Clock::now();
                }
                if (arrival_ms != 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(arrival_ms));
            }
        });
    }

    // Observe completions. Fairness is sampled once, the first time
    // at least half the total work is complete — mid-flight, where an
    // unfair scheduler would show a starved tenant.
    double fairness_ratio = -1.0; // -1 = never sampled
    bool timed_out = false;
    while (true) {
        std::size_t settled = 0, done_total = 0;
        {
            std::lock_guard<std::mutex> lock(mu);
            for (TaskState &state : tasks) {
                if (state.done || state.lost) {
                    ++settled;
                    if (state.done)
                        ++done_total;
                    continue;
                }
                if (!state.enqueued)
                    continue;
                if (const auto done = queue.doneRecord(state.id)) {
                    state.done = true;
                    state.failed = done->exitCode != 0;
                    state.latencyMs =
                        std::chrono::duration<double, std::milli>(
                            Clock::now() - state.enqueuedAt)
                            .count();
                    ++settled;
                    ++done_total;
                } else if (queue.isQuarantined(state.id)) {
                    state.lost = true;
                    ++settled;
                }
            }
            if (fairness_ratio < 0 && done_total * 2 >= total) {
                std::vector<std::uint64_t> per_tenant(tenants, 0);
                for (const TaskState &state : tasks)
                    if (state.done)
                        ++per_tenant[state.tenant];
                const std::uint64_t lo = *std::min_element(
                    per_tenant.begin(), per_tenant.end());
                const std::uint64_t hi = *std::max_element(
                    per_tenant.begin(), per_tenant.end());
                fairness_ratio =
                    lo == 0 ? 1e9
                            : static_cast<double>(hi) /
                                  static_cast<double>(lo);
            }
        }
        if (settled >= total)
            break;
        if (Clock::now() >= deadline) {
            timed_out = true;
            abort_submit.store(true);
            break;
        }
        // Keep the queue healthy while waiting: a worker that died
        // mid-task must not strand its claim until a daemon notices.
        queue.reclaimExpired();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(poll_ms));
    }
    for (std::thread &thread : submitters)
        thread.join();

    // Let released-but-unreclaimed debris settle, then check drained.
    queue.reclaimExpired();
    const std::size_t leftover_pending = queue.pendingCount();
    const std::size_t leftover_claimed = queue.claimedCount();
    const bool drained =
        leftover_pending == 0 && leftover_claimed == 0;

    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - start).count();

    // Per-tenant stats. Everything below reads tasks[] single-threaded.
    std::size_t completed = 0, failed = 0, lost = 0;
    for (unsigned t = 0; t < tenants; ++t) {
        std::vector<double> latencies;
        std::size_t tenant_completed = 0, tenant_failed = 0;
        for (unsigned j = 0; j < tasks_per_tenant; ++j) {
            const TaskState &state =
                tasks[static_cast<std::size_t>(t) * tasks_per_tenant +
                      j];
            if (state.done) {
                ++tenant_completed;
                latencies.push_back(state.latencyMs);
                if (state.failed)
                    ++tenant_failed;
            } else {
                ++lost; // quarantined or unfinished at timeout
            }
        }
        completed += tenant_completed;
        failed += tenant_failed;
        double mean = 0, p95 = 0;
        if (!latencies.empty()) {
            for (const double l : latencies)
                mean += l;
            mean /= static_cast<double>(latencies.size());
            std::sort(latencies.begin(), latencies.end());
            const std::size_t index = std::min(
                latencies.size() - 1,
                static_cast<std::size_t>(std::ceil(
                    0.95 * static_cast<double>(latencies.size()))) -
                    1);
            p95 = latencies[index];
        }
        std::printf("loadgen tenant=%s completed=%zu failed=%zu "
                    "throughput_tps=%.2f latency_mean_ms=%.1f "
                    "latency_p95_ms=%.1f quota_waits=%llu\n",
                    tenant_names[t].c_str(), tenant_completed,
                    tenant_failed,
                    elapsed_s > 0
                        ? static_cast<double>(tenant_completed) /
                              elapsed_s
                        : 0.0,
                    mean, p95,
                    static_cast<unsigned long long>(quota_waits[t]));
    }

    const bool fairness_ok =
        fairness_bound <= 0.0 ||
        (fairness_ratio >= 0 && fairness_ratio <= fairness_bound);
    const bool ok =
        !timed_out && drained && lost == 0 && failed == 0 &&
        completed == total && fairness_ok;

    std::printf("loadgen summary tenants=%u tasks=%zu completed=%zu "
                "failed=%zu lost=%zu drained=%d fairness_ratio=%.3f "
                "fairness_bound=%.2f elapsed_s=%.1f\n",
                tenants, total, completed, failed, lost,
                drained ? 1 : 0, fairness_ratio, fairness_bound,
                elapsed_s);
    std::fflush(stdout);

    if (!status_out.empty()) {
        std::ofstream out(status_out, std::ios::app);
        if (out)
            out << sweepio::encode(queue.status()) << "\n";
        else
            cfl_warn("cannot write status snapshot to \"%s\"",
                     status_out.c_str());
    }

    if (!ok) {
        std::fprintf(stderr,
                     "loadgen FAILED:%s%s%s%s%s\n",
                     timed_out ? " timed-out" : "",
                     drained ? "" : " queue-not-drained",
                     lost != 0 ? " lost-tasks" : "",
                     failed != 0 ? " failed-tasks" : "",
                     fairness_ok ? "" : " fairness-bound-exceeded");
        if (!drained)
            std::fprintf(stderr,
                         "  leftover: %zu pending, %zu claimed\n",
                         leftover_pending, leftover_claimed);
        return kExitGateFailed;
    }
    std::fprintf(stderr, "loadgen OK: %zu task(s) across %u "
                 "tenant(s), drained, fairness %.3f\n",
                 total, tenants, fairness_ratio);
    return 0;
}
