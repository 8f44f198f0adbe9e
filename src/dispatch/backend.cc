#include "dispatch/backend.hh"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "fault/fault.hh"

namespace cfl::dispatch
{

std::string
shellQuote(const std::string &text)
{
    std::string out = "'";
    for (const char c : text) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

RunStatus
runLocalCommand(const std::string &command, unsigned timeout_sec,
                const std::function<bool()> &poll_tick)
{
    // An injected spawn fault models fork/exec resource exhaustion:
    // the child never runs, and the caller sees the shell's own
    // "command not found" code and takes its normal retry path.
    if (isIoFault(fault::at("dispatch.spawn").kind)) {
        RunStatus out;
        out.exitCode = 127;
        return out;
    }
    // The child leads its own process group and every kill goes to the
    // group: a shell may fork even a lone command, and killing only
    // the shell would leave the command running, still writing the
    // result file a retry also writes. Both sides call setpgid so the
    // group exists before the first kill, whichever runs first.
    const pid_t pid = ::fork();
    if (pid < 0)
        cfl_fatal("fork failed: %s", std::strerror(errno));
    if (pid == 0) {
        ::setpgid(0, 0);
        ::execl("/bin/sh", "sh", "-c", command.c_str(),
                static_cast<char *>(nullptr));
        // exec failed; 127 is the shell's own "command not found".
        ::_exit(127);
    }
    ::setpgid(pid, pid);
    // An injected child kill models the OOM killer (or an operator)
    // taking out the worker process mid-run: the wait loop below sees
    // an ordinary SIGKILL death (exit 137).
    if (isIoFault(fault::at("dispatch.child.kill").kind))
        ::kill(-pid, SIGKILL);

    using Clock = std::chrono::steady_clock;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::seconds(timeout_sec);
    const bool block = timeout_sec == 0 && !poll_tick;

    int status = 0;
    while (true) {
        const pid_t r = ::waitpid(pid, &status, block ? 0 : WNOHANG);
        if (r == pid)
            break;
        if (r < 0)
            cfl_fatal("waitpid failed: %s", std::strerror(errno));
        const bool expired =
            timeout_sec != 0 && Clock::now() >= deadline;
        if (expired || (poll_tick && !poll_tick())) {
            ::kill(-pid, SIGKILL);
            ::waitpid(pid, &status, 0);
            RunStatus out;
            out.exitCode = 128 + SIGKILL;
            out.timedOut = true;
            return out;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    RunStatus out;
    if (WIFEXITED(status))
        out.exitCode = WEXITSTATUS(status);
    else if (WIFSIGNALED(status))
        out.exitCode = 128 + WTERMSIG(status);
    else
        out.exitCode = -1;
    return out;
}

LocalBackend::LocalBackend(unsigned workers) : workers_(workers)
{
    cfl_assert(workers >= 1, "a backend needs at least one worker");
}

RunStatus
LocalBackend::run(unsigned worker, const std::string &command,
                  unsigned timeout_sec)
{
    cfl_assert(worker < workers_, "worker %u out of range", worker);
    return runLocalCommand(command, timeout_sec);
}

} // namespace cfl::dispatch
