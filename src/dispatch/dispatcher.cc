#include "dispatch/dispatcher.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"
#include "dispatch/result_cache.hh"
#include "sweepio/codec.hh"
#include "sweepio/shard.hh"

namespace cfl::dispatch
{

namespace
{

/** Scheduler-side state of one job. */
struct JobState
{
    const ShardJob *job = nullptr;
    ShardRun run;
    bool inProgress = false;
    bool done = false;
    /** Earliest time the next attempt may start (retry backoff). */
    std::chrono::steady_clock::time_point readyAt{};
};

/** Shared scheduler state; every field is guarded by mutex. */
struct Scheduler
{
    std::mutex mutex;
    std::condition_variable wake;
    std::vector<JobState> jobs;
    std::size_t doneCount = 0;
};

void
workerLoop(Scheduler &sched, WorkerBackend &backend,
           const RetryPolicy &policy, unsigned w)
{
    using Clock = std::chrono::steady_clock;
    while (true) {
        JobState *picked = nullptr;
        {
            std::unique_lock<std::mutex> lock(sched.mutex);
            // A timed wait rather than a pure predicate wait: a job
            // sitting out its backoff delay becomes eligible by clock
            // alone, with no notify to ride in on.
            while (true) {
                if (sched.doneCount == sched.jobs.size())
                    return;
                const Clock::time_point now = Clock::now();
                // Any pending job past its retry backoff will do: every
                // worker of a backend is interchangeable.
                for (JobState &j : sched.jobs) {
                    if (!j.done && !j.inProgress && now >= j.readyAt) {
                        j.inProgress = true;
                        picked = &j;
                        break;
                    }
                }
                if (picked != nullptr)
                    break;
                sched.wake.wait_for(
                    lock, std::chrono::milliseconds(10));
            }
        }

        const RunStatus status =
            backend.run(w, picked->job->command, policy.timeoutSec);

        {
            std::lock_guard<std::mutex> lock(sched.mutex);
            ShardRun &run = picked->run;
            ++run.attempts;
            run.lastExit = status.exitCode;
            run.timedOut = status.timedOut;
            picked->inProgress = false;
            if (status.ok()) {
                run.ok = true;
                picked->done = true;
            } else {
                const bool corrupt =
                    !status.timedOut &&
                    std::find(policy.noRetryExits.begin(),
                              policy.noRetryExits.end(),
                              status.exitCode) !=
                        policy.noRetryExits.end();
                if (corrupt || run.attempts >= policy.maxAttempts) {
                    picked->done = true; // run.ok stays false
                } else {
                    const std::uint64_t delay = backoffDelayMs(
                        policy, run.shard, run.attempts);
                    run.backoffMs += delay;
                    picked->readyAt =
                        Clock::now() +
                        std::chrono::milliseconds(delay);
                }
            }
            if (picked->done)
                ++sched.doneCount;
        }
        sched.wake.notify_all();
    }
}

} // namespace

std::uint64_t
backoffDelayMs(const RetryPolicy &policy, unsigned shard,
               unsigned failures)
{
    if (policy.backoffBaseMs == 0 || failures == 0)
        return 0;
    const unsigned exp = std::min(failures - 1, 20u);
    const std::uint64_t delay =
        std::min<std::uint64_t>(policy.backoffCapMs,
                                std::uint64_t(policy.backoffBaseMs)
                                    << exp);
    // Deterministic jitter into [delay/2, delay): spreads a retry
    // storm without making any schedule irreproducible.
    const std::uint64_t lo = delay - delay / 2;
    if (delay <= lo)
        return delay;
    return lo + hashCombine(policy.backoffSeed,
                            hashCombine(shard, failures)) %
                    (delay - lo);
}

std::vector<ShardRun>
dispatchShards(WorkerBackend &backend, const std::vector<ShardJob> &jobs,
               const RetryPolicy &policy)
{
    cfl_assert(policy.maxAttempts >= 1, "maxAttempts must be >= 1");
    if (jobs.empty())
        return {};

    Scheduler sched;
    sched.jobs.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        sched.jobs[i].job = &jobs[i];
        sched.jobs[i].run.shard = jobs[i].shard;
    }

    std::vector<std::thread> threads;
    threads.reserve(backend.workers());
    for (unsigned w = 0; w < backend.workers(); ++w)
        threads.emplace_back(
            [&, w] { workerLoop(sched, backend, policy, w); });
    for (std::thread &t : threads)
        t.join();

    std::vector<ShardRun> runs;
    runs.reserve(sched.jobs.size());
    for (JobState &j : sched.jobs)
        runs.push_back(std::move(j.run));
    return runs;
}

SweepResult
runDispatchedSweep(const std::vector<SweepPoint> &points,
                   WorkerBackend &backend, const DispatchOptions &opts,
                   ResultCache *cache, DispatchStats *stats)
{
    DispatchStats local;
    DispatchStats &st = stats != nullptr ? *stats : local;
    st = DispatchStats{};
    st.totalPoints = points.size();

    // Phase 1: serve what the cache already holds. cached[i] is the
    // stored outcome of points[i], or nullptr if it must be evaluated.
    std::vector<const SweepOutcome *> cached(points.size(), nullptr);
    std::vector<SweepPoint> misses;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const std::uint64_t seed =
            sweepPointSeed(points[i].kind, points[i].workload);
        if (cache != nullptr)
            cached[i] = cache->lookup(points[i], seed);
        if (cached[i] == nullptr)
            misses.push_back(points[i]);
    }
    st.cachedPoints = points.size() - misses.size();

    // Phase 2: shard the misses and push them through the backend.
    SweepResult fresh;
    if (!misses.empty()) {
        if (opts.sweepBin.empty())
            cfl_fatal("dispatch needs the confluence_sweep binary path");
        const unsigned nshards = static_cast<unsigned>(std::min<std::size_t>(
            opts.shards != 0 ? opts.shards : backend.workers(),
            misses.size()));
        st.shards = nshards;

        std::error_code ec;
        std::filesystem::create_directories(opts.workDir, ec);
        if (ec)
            cfl_fatal("cannot create work directory \"%s\": %s",
                      opts.workDir.c_str(), ec.message().c_str());

        std::vector<ShardJob> jobs;
        std::vector<std::string> result_paths;
        jobs.reserve(nshards);
        result_paths.reserve(nshards);
        for (unsigned k = 0; k < nshards; ++k) {
            const std::string spec_path =
                opts.workDir + "/shard" + std::to_string(k) +
                ".spec.jsonl";
            const std::string result_path =
                opts.workDir + "/shard" + std::to_string(k) +
                ".result.jsonl";
            sweepio::writePoints(spec_path,
                                 sweepio::shardPoints(misses, k, nshards));
            std::remove(result_path.c_str()); // no stale result can leak

            jobs.push_back({k, shellQuote(opts.sweepBin) + " --points " +
                                   shellQuote(spec_path) + " --out " +
                                   shellQuote(result_path)});
            result_paths.push_back(result_path);
        }

        st.shardRuns = dispatchShards(backend, jobs, opts.retry);
        for (const ShardRun &run : st.shardRuns) {
            st.retries += run.attempts - 1;
            st.attempts += run.attempts;
            st.backoffMs += run.backoffMs;
            if (!run.ok)
                cfl_fatal("shard %u failed after %u attempt(s) "
                          "(last exit %d%s)",
                          run.shard, run.attempts, run.lastExit,
                          run.timedOut ? ", timed out" : "");
        }

        // Merge shard results in shard order: shards are contiguous
        // slices of the miss list, so this reproduces its order. The
        // up-front reserve keeps the per-shard merge() calls from
        // reallocating the accumulated vector once per shard.
        fresh.points.reserve(misses.size());
        for (unsigned k = 0; k < nshards; ++k)
            fresh.merge(sweepio::readResult(result_paths[k]));
        if (fresh.points.size() != misses.size())
            cfl_fatal("shard results hold %zu points, expected %zu",
                      fresh.points.size(), misses.size());
        st.evaluatedPoints = fresh.points.size();

        if (cache != nullptr && opts.cacheWriteBack) {
            for (const SweepOutcome &o : fresh.points)
                cache->insert(o);
            cache->flush();
        }
    }

    // Phase 3: reassemble in original submission order — cached and
    // fresh outcomes interleave exactly as the unsharded sweep would
    // have produced them.
    SweepResult result;
    result.points.reserve(points.size());
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepOutcome &o = cached[i] != nullptr
                                    ? *cached[i]
                                    : fresh.points[cursor++];
        cfl_assert(o.point.kind == points[i].kind &&
                       o.point.workload == points[i].workload,
                   "outcome %zu does not match its submitted point", i);
        result.points.push_back(o);
    }
    cfl_assert(cursor == fresh.points.size(),
               "evaluated outcomes left over after reassembly");
    return result;
}

} // namespace cfl::dispatch
