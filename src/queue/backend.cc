#include "queue/backend.hh"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "sweepio/digest.hh"

namespace cfl::queue
{

QueueBackend::QueueBackend(WorkQueue &queue, Options opts)
    : queue_(queue), opts_(opts)
{
    cfl_assert(opts_.slots >= 1, "a backend needs at least one worker");
    cfl_assert(opts_.pollMs >= 1, "poll interval must be positive");
    // Distinguishes this coordinator incarnation from any earlier one
    // that enqueued byte-identical commands into the same queue.
    runNonce_ = sweepio::hexDigest(sweepio::fnv1a64(
        std::to_string(::getpid()) + ":" +
        std::to_string(::time(nullptr)))).substr(0, 8);
}

dispatch::RunStatus
QueueBackend::run(unsigned worker, const std::string &command,
                  unsigned timeout_sec)
{
    cfl_assert(worker < opts_.slots, "worker %u out of range", worker);

    unsigned attempt;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        attempt = attempts_[command]++;
    }
    sweepio::TaskRecord task;
    task.id = sweepio::hexDigest(sweepio::fnv1a64(command)) + "-r" +
              runNonce_ + "-a" + std::to_string(attempt);
    task.command = command;
    task.result = shellExtractFlagValue(command, "--out");
    queue_.enqueue(task);

    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(timeout_sec);
    while (true) {
        if (const auto done = queue_.doneRecord(task.id)) {
            dispatch::RunStatus status;
            status.exitCode = static_cast<int>(done->exitCode);
            // The coordinator-crash injection point: a fault plan
            // pinning a kill here dies after the K-th completion.
            fault::checkpoint("queue.backend.completion");
            return status;
        }
        // Keep the queue healthy while waiting: a worker that died
        // mid-task must not strand its shard until a daemon notices.
        queue_.reclaimExpired();
        // Quarantined during that reclaim (it kept killing workers):
        // this task will never complete, and no other worker should
        // have to die proving it.
        if (queue_.isQuarantined(task.id)) {
            cfl_warn("task \"%s\" was quarantined as poison; giving "
                     "up on it", task.id.c_str());
            dispatch::RunStatus status;
            status.exitCode = kExitQuarantined;
            return status;
        }
        if (timeout_sec != 0 && Clock::now() >= deadline) {
            queue_.cancelTask(task.id);
            dispatch::RunStatus status;
            status.exitCode = 128 + SIGKILL;
            status.timedOut = true;
            return status;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts_.pollMs));
    }
}

} // namespace cfl::queue
