/**
 * @file
 * Pluggable worker backends for the shard dispatcher.
 *
 * A backend models a fixed pool of workers, each able to run one shell
 * command at a time. The dispatcher (dispatcher.hh) owns scheduling
 * and retry; a backend only has to answer "run this command as worker
 * w and tell me how it exited". LocalBackend makes every worker a
 * subprocess slot on this machine (/bin/sh -c), so a 3-worker local
 * dispatch is three concurrent OS processes; queue/backend.hh adapts
 * the persistent work queue to the same interface.
 */

#ifndef CFL_DISPATCH_BACKEND_HH
#define CFL_DISPATCH_BACKEND_HH

#include <functional>
#include <string>

namespace cfl::dispatch
{

/** How one command invocation ended. */
struct RunStatus
{
    int exitCode = 0;      ///< exit status; 128+sig for a signal death
    bool timedOut = false; ///< killed by the per-shard timeout

    bool ok() const { return !timedOut && exitCode == 0; }
};

/** A fixed pool of workers that run shell commands. */
class WorkerBackend
{
  public:
    virtual ~WorkerBackend() = default;

    /** Number of workers; worker ids are 0 .. workers()-1. */
    virtual unsigned workers() const = 0;

    /**
     * Run @p command as worker @p worker and block until it exits or
     * @p timeout_sec elapses (0 = no timeout). Thread-safe: the
     * dispatcher calls this concurrently from one thread per worker.
     */
    virtual RunStatus run(unsigned worker, const std::string &command,
                          unsigned timeout_sec) = 0;
};

/** @p text wrapped in single quotes, safe for /bin/sh. */
std::string shellQuote(const std::string &text);

/**
 * Run @p command under /bin/sh -c in its own process group, enforcing
 * @p timeout_sec (0 = no timeout) by SIGKILL to the whole group, so
 * the command dies with the shell. The engine under LocalBackend. A
 * non-empty @p poll_tick is invoked every ~20ms while the child runs —
 * the hook confluence_worker uses to heartbeat its queue lease without
 * a second thread. Returning false from the tick aborts the group by
 * SIGKILL (reported as a timeout): the worker's reaction to a lost
 * lease, where racing the re-claimed attempt's writes would be worse
 * than stopping.
 */
RunStatus runLocalCommand(const std::string &command, unsigned timeout_sec,
                          const std::function<bool()> &poll_tick = {});

/** Subprocess slots on the local machine. */
class LocalBackend : public WorkerBackend
{
  public:
    /** @p workers concurrent subprocess slots (>= 1). */
    explicit LocalBackend(unsigned workers);

    unsigned workers() const override { return workers_; }
    RunStatus run(unsigned worker, const std::string &command,
                  unsigned timeout_sec) override;

  private:
    unsigned workers_;
};

} // namespace cfl::dispatch

#endif // CFL_DISPATCH_BACKEND_HH
