/**
 * @file
 * Pull-based sweep worker daemon.
 *
 * Where confluence_dispatch *pushes* commands at workers, this daemon
 * *pulls*: it claims tasks from a persistent FIFO work queue
 * (src/queue), oldest first — taking each task's lease exclusively
 * and moving its file with an atomic rename, so no two workers ever
 * run the same shard — executes the task's command (a
 * `confluence_sweep --points` shard), heartbeats the lease while the
 * command runs, folds the shard's outcomes into the content-addressed
 * result cache, and records completion. Because
 * completed work lands in the cache *before* the completion record, a
 * coordinator can be SIGKILLed at any moment and a restarted one
 * resumes from the queue + cache without re-evaluating anything.
 *
 * Workers are anonymous and elastic: start any number on any machines
 * sharing the queue directory (and the cache store), kill them freely
 * — an expired lease is reclaimed by whichever worker next looks.
 *
 * Usage:
 *   confluence_worker [--queue DIR] [--owner NAME] [--lease SEC]
 *                     [--poll-ms MS] [--idle-exit SEC] [--max-tasks N]
 *                     [--cache FILE | --no-cache] [--code-version TAG]
 *
 *   --queue DIR     queue directory (default $CONFLUENCE_QUEUE_DIR or
 *                   ".confluence-queue")
 *   --owner NAME    lease owner identity (default host:pid)
 *   --lease SEC     lease duration per claim/heartbeat (default 60);
 *                   heartbeats fire every SEC/3, so only a dead or
 *                   fully stalled worker ever expires
 *   --poll-ms MS    idle poll interval (default 200)
 *   --idle-exit SEC exit 0 after SEC with nothing to do (default 0 =
 *                   run until stopped)
 *   --max-tasks N   exit 0 after completing N tasks (0 = unlimited)
 *   --cache FILE    result store to append shard outcomes to (default
 *                   $CONFLUENCE_CACHE_DIR/results.jsonl); opened once
 *                   for the daemon's whole life, not once per task
 *   --code-version  cache key tag (default $CONFLUENCE_CODE_VERSION)
 *
 * The daemon exits 0 when the queue's stop marker appears and no work
 * is pending (`confluence_dispatch --stop-workers`, or `touch
 * <queue>/stop`), on --idle-exit, or on --max-tasks; 1 on a fatal
 * error; 2 on usage errors.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "common/strings.hh"
#include "dispatch/backend.hh"
#include "dispatch/result_cache.hh"
#include "fault/fault.hh"
#include "queue/queue.hh"
#include "sweepio/codec.hh"

using namespace cfl;

namespace
{

constexpr int kExitUsage = 2;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  %s [--queue DIR] [--owner NAME] [--lease SEC]\n"
        "     [--poll-ms MS] [--idle-exit SEC]\n"
        "     [--max-tasks N] [--cache FILE | --no-cache]\n"
        "     [--code-version TAG]\n"
        "exit codes: 0 clean shutdown (stop marker, --idle-exit,\n"
        "  --max-tasks), 1 fatal, 2 usage\n",
        argv0);
    std::exit(kExitUsage);
}

std::string
defaultOwner()
{
    char host[256] = "localhost";
    ::gethostname(host, sizeof(host) - 1);
    return std::string(host) + ":" + std::to_string(::getpid());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string queue_dir = queue::WorkQueue::defaultDir();
    std::string owner = defaultOwner();
    unsigned lease_sec = 60, poll_ms = 200, idle_exit_sec = 0;
    unsigned max_tasks = 0;
    std::string cache_path = dispatch::ResultCache::defaultStorePath();
    std::string code_version =
        dispatch::ResultCache::defaultCodeVersion();
    bool no_cache = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cfl_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--queue")
            queue_dir = value();
        else if (arg == "--owner")
            owner = value();
        else if (arg == "--lease")
            lease_sec = parseUnsignedFlag(arg, value());
        else if (arg == "--poll-ms")
            poll_ms = parseUnsignedFlag(arg, value());
        else if (arg == "--idle-exit")
            idle_exit_sec = parseUnsignedFlag(arg, value());
        else if (arg == "--max-tasks")
            max_tasks = parseUnsignedFlag(arg, value());
        else if (arg == "--cache")
            cache_path = value();
        else if (arg == "--no-cache")
            no_cache = true;
        else if (arg == "--code-version")
            code_version = value();
        else
            usage(argv[0]);
    }
    if (lease_sec == 0)
        cfl_fatal("--lease must be >= 1");
    if (poll_ms == 0)
        cfl_fatal("--poll-ms must be >= 1");

    queue::WorkQueue queue(queue_dir);
    // One cache open per daemon run — every completed task reuses this
    // instance (and its single append descriptor) instead of reopening
    // the store per completion.
    std::unique_ptr<dispatch::ResultCache> cache;
    if (!no_cache)
        cache = std::make_unique<dispatch::ResultCache>(cache_path,
                                                        code_version);
    std::fprintf(stderr,
                 "confluence_worker %s: queue %s, lease %us, cache %s\n",
                 owner.c_str(), queue.dir().c_str(), lease_sec,
                 no_cache ? "(off)" : cache_path.c_str());

    using Clock = std::chrono::steady_clock;
    Clock::time_point idle_since = Clock::now();
    unsigned tasks_done = 0;

    while (true) {
        if (std::optional<queue::TaskClaim> claim =
                queue.claim(owner, lease_sec)) {
            std::fprintf(stderr, "worker %s: claimed task %s\n",
                         owner.c_str(), claim->task.id.c_str());
            // Death point for chaos runs: dying here leaves the claim
            // held and the command unrun — pure lease-expiry recovery.
            fault::checkpoint("worker.task.claimed");
            const auto start = Clock::now();

            // Heartbeat from the command's wait loop: every lease/3
            // seconds, so a live worker never expires. A lost lease
            // (we stalled past expiry and the task was reclaimed)
            // aborts the command: the re-claimed attempt is about to
            // write the same result file, and racing it would be
            // worse than throwing our partial work away.
            Clock::time_point last_beat = start;
            const auto beat_every =
                std::chrono::milliseconds(lease_sec * 1000 / 3);
            bool lease_lost = false;
            const dispatch::RunStatus status = dispatch::runLocalCommand(
                claim->task.command, 0, [&] {
                    if (Clock::now() - last_beat < beat_every)
                        return true;
                    last_beat = Clock::now();
                    lease_lost = !queue.heartbeat(*claim, lease_sec);
                    return !lease_lost;
                });
            if (lease_lost) {
                cfl_warn("worker %s lost the lease on task %s (stalled "
                         "past expiry?); aborted the command — the "
                         "task's new owner completes it",
                         owner.c_str(), claim->task.id.c_str());
                idle_since = Clock::now();
                continue;
            }

            int exit_code = status.exitCode;
            if (exit_code == 0 && !claim->task.result.empty() &&
                !std::filesystem::exists(claim->task.result)) {
                cfl_warn("task %s exited 0 but left no result file "
                         "\"%s\"; recording it as failed",
                         claim->task.id.c_str(),
                         claim->task.result.c_str());
                exit_code = 1;
            }
            // Outcomes reach the shared cache *before* the completion
            // record: once a task reads as done, its work is durable.
            if (exit_code == 0 && cache != nullptr &&
                !claim->task.result.empty()) {
                const SweepResult result =
                    sweepio::readResult(claim->task.result);
                for (const SweepOutcome &o : result.points)
                    cache->insert(o);
                cache->flush();
                if (cache->degraded())
                    cfl_warn("worker %s: cache write-back degraded; "
                             "completing tasks without persisting "
                             "their outcomes", owner.c_str());
            }
            queue.complete(*claim, exit_code);
            // Death point between durable completion and the next
            // claim — the window the cache-before-done ordering
            // protects.
            fault::checkpoint("worker.task.completed");

            const std::chrono::duration<double> elapsed =
                Clock::now() - start;
            std::fprintf(stderr,
                         "worker %s: task %s exit %d (%.2fs)\n",
                         owner.c_str(), claim->task.id.c_str(),
                         exit_code, elapsed.count());
            ++tasks_done;
            idle_since = Clock::now();
            if (max_tasks != 0 && tasks_done >= max_tasks) {
                std::fprintf(stderr, "worker %s: completed %u task(s), "
                             "exiting\n", owner.c_str(), tasks_done);
                return 0;
            }
            continue;
        }

        if (queue.reclaimExpired() != 0)
            continue; // reclaimed something: claim it right away
        if (queue.stopRequested() && queue.pendingCount() == 0) {
            std::fprintf(stderr, "worker %s: stop requested, queue "
                         "drained (%u task(s) done), exiting\n",
                         owner.c_str(), tasks_done);
            return 0;
        }
        if (idle_exit_sec != 0 &&
            Clock::now() - idle_since >
                std::chrono::seconds(idle_exit_sec)) {
            std::fprintf(stderr, "worker %s: idle for %us (%u task(s) "
                         "done), exiting\n",
                         owner.c_str(), idle_exit_sec, tasks_done);
            return 0;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
    }
}
