/**
 * @file
 * WorkerBackend adapter over the persistent work queue.
 *
 * The dispatcher (dispatch/dispatcher.hh) pushes commands at a backend;
 * a QueueBackend turns each of those pushes into a *pull*: run()
 * enqueues the command as a persistent task and then waits for some
 * confluence_worker daemon — on this machine or any machine sharing
 * the queue directory — to claim it, run it, and publish its exit
 * status. The coordinator process therefore holds no in-flight child
 * processes at all: SIGKILL it mid-dispatch and every enqueued task
 * keeps flowing through the workers; a fresh coordinator resumes from
 * the queue plus the result cache.
 *
 * Each run() appends one task to the tail of the queue's FIFO.
 * workers() is the number of *coordinator wait slots* (how many tasks
 * the dispatcher keeps enqueued at once), not the worker-daemon count —
 * the daemons are anonymous and scale independently.
 *
 * Task ids are content-addressed on the command plus a per-backend run
 * nonce plus the attempt ordinal. The nonce matters: a restarted
 * coordinator regenerates shard specs under the same file names, so a
 * textually identical command must not alias a stale done record from
 * the previous incarnation.
 *
 * Fault hook for tests/CI: every observed completion passes through
 * the "queue.backend.completion" fault site, so a plan pinning a kill
 * there SIGKILLs the coordinator after the K-th completion — the
 * coordinator-crash injection the queue-sweep CI job restarts from
 * (pin=queue.backend.completion@0:kill dies at the first).
 */

#ifndef CFL_QUEUE_BACKEND_HH
#define CFL_QUEUE_BACKEND_HH

#include <mutex>
#include <string>
#include <unordered_map>

#include "dispatch/backend.hh"
#include "queue/queue.hh"

namespace cfl::queue
{

/** run()'s exit code for a task the queue quarantined as poison: like
 *  the sweep's own "corrupt input" code 3, retrying it elsewhere
 *  cannot help, so RetryPolicy::noRetryExits lists it by default. */
inline constexpr int kExitQuarantined = 6;

class QueueBackend : public dispatch::WorkerBackend
{
  public:
    struct Options
    {
        unsigned slots = 2;   ///< concurrent enqueue/wait slots
        unsigned pollMs = 50; ///< done-record poll interval
    };

    QueueBackend(WorkQueue &queue, Options opts);

    unsigned workers() const override { return opts_.slots; }

    /**
     * Enqueue @p command and block until a worker completes it or
     * @p timeout_sec elapses (0 = wait forever). On timeout the task
     * is cancelled if still unclaimed; a claimed task cannot be
     * stopped remotely, so queue-mode timeouts should comfortably
     * exceed the longest shard (or stay 0 and let leases handle
     * worker death). A task the queue quarantines (it kept killing
     * workers) returns kExitQuarantined instead of completing.
     */
    dispatch::RunStatus run(unsigned worker, const std::string &command,
                            unsigned timeout_sec) override;

  private:
    WorkQueue &queue_;
    Options opts_;
    std::string runNonce_;
    std::mutex mutex_;
    std::unordered_map<std::string, unsigned> attempts_;
};

} // namespace cfl::queue

#endif // CFL_QUEUE_BACKEND_HH
