/**
 * @file
 * Fault-tolerant shard dispatcher.
 *
 * Two layers. dispatchShards() is the scheduling core: it drives a set
 * of shard jobs through a WorkerBackend with one scheduling thread per
 * worker, a per-shard timeout, and bounded retry — a failed shard goes
 * back into the pending set and the next free worker takes it. Exit
 * codes listed in RetryPolicy::noRetryExits (confluence_sweep uses 3
 * for a corrupt / duplicate-point shard) fail immediately instead of
 * burning retries: a deterministic rejection will not pass on a retry.
 *
 * runDispatchedSweep() is the sweep driver built on top: it consults a
 * content-addressed ResultCache (result_cache.hh) so only cache-miss
 * points are evaluated at all, partitions the misses into contiguous
 * shard specs (sweepio/shard.hh), runs one `confluence_sweep --points`
 * process per shard through the backend, and reassembles outcomes in
 * original submission order. Because per-point seeds are pure functions
 * of the point coordinates and the codec is integer-only, the merged
 * result is byte-identical to the single-process run — cached, sharded,
 * retried, or not (CI asserts this on every push).
 *
 * Failed attempts back off before retrying: capped exponential delay
 * with deterministic jitter (backoffDelayMs — a pure function of the
 * policy seed, shard, and failure count, so a retry schedule replays
 * exactly). While one shard waits out its backoff, workers pick up
 * other pending shards.
 *
 * Fault injection for tests/CI goes through fault/fault.hh: a plan
 * pinning `dispatch.child.kill@K:eio` SIGKILLs the shard child of this
 * process's (K+1)-th spawn (hits count from 0), and the retry then
 * proceeds clean.
 */

#ifndef CFL_DISPATCH_DISPATCHER_HH
#define CFL_DISPATCH_DISPATCHER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dispatch/backend.hh"
#include "sim/sweep.hh"

namespace cfl::dispatch
{

class ResultCache;

/** One schedulable unit: a shell command producing one shard result. */
struct ShardJob
{
    unsigned shard = 0;       ///< shard index, for reporting/backoff
    std::string command;      ///< the command every attempt runs
};

/** Retry behaviour of dispatchShards(). */
struct RetryPolicy
{
    unsigned maxAttempts = 3; ///< total attempts per shard (>= 1)
    unsigned timeoutSec = 0;  ///< per-attempt wall limit (0 = none)
    /** Exit codes that mark the shard's input corrupt rather than the
     *  infrastructure flaky; such failures are never retried.
     *  Defaults: 3 = confluence_sweep duplicate/corrupt shard input,
     *  6 = the task was quarantined as poison (queue backend). */
    std::vector<int> noRetryExits = {3, 6};
    /** First-retry delay in ms, doubling per subsequent failure of the
     *  same shard up to backoffCapMs (0 disables backoff). A failed
     *  shard cannot be retried before its delay elapses, but workers
     *  take other pending shards meanwhile. */
    unsigned backoffBaseMs = 100;
    unsigned backoffCapMs = 5000;
    /** Jitter seed: delays are deterministic in (seed, shard, failure
     *  count), so a retry storm never synchronizes yet replays. */
    std::uint64_t backoffSeed = 0;
};

/**
 * The backoff delay before retrying @p shard after its
 * @p failures-th consecutive failure (1-based): exponential from
 * backoffBaseMs, capped at backoffCapMs, jittered deterministically
 * into [delay/2, delay). Pure; 0 when backoff is disabled or
 * @p failures is 0.
 */
std::uint64_t backoffDelayMs(const RetryPolicy &policy, unsigned shard,
                             unsigned failures);

/** What happened to one shard across all its attempts. */
struct ShardRun
{
    unsigned shard = 0;
    bool ok = false;
    unsigned attempts = 0;
    int lastExit = 0;
    bool timedOut = false;         ///< last attempt hit the timeout
    std::uint64_t backoffMs = 0;   ///< total injected retry delay
};

/**
 * Run every job to completion or exhaustion. Returns one ShardRun per
 * job, in job order; the caller decides whether a !ok run is fatal.
 */
std::vector<ShardRun> dispatchShards(WorkerBackend &backend,
                                     const std::vector<ShardJob> &jobs,
                                     const RetryPolicy &policy);

/** Knobs of a dispatched sweep. */
struct DispatchOptions
{
    std::string sweepBin;     ///< path to the confluence_sweep binary
    std::string workDir;      ///< shard spec/result files live here
    unsigned shards = 0;      ///< shard count (0 = one per worker)
    RetryPolicy retry;
    /** Store fresh outcomes back into the cache. Queue-mode dispatch
     *  turns this off: there the worker daemons append each shard's
     *  outcomes themselves (so a SIGKILLed coordinator loses nothing),
     *  and a coordinator-side re-insert — whose in-memory view
     *  predates those appends — would only duplicate store lines. */
    bool cacheWriteBack = true;
};

/** Bookkeeping a dispatched sweep reports back. */
struct DispatchStats
{
    std::size_t totalPoints = 0;
    std::size_t cachedPoints = 0;    ///< served from the result cache
    std::size_t evaluatedPoints = 0; ///< computed by shard processes
    unsigned shards = 0;
    unsigned retries = 0;            ///< attempts beyond the first
    unsigned attempts = 0;           ///< total attempts, all shards
    std::uint64_t backoffMs = 0;     ///< total retry delay, all shards
    std::vector<ShardRun> shardRuns;
};

/**
 * Evaluate @p points through @p backend, serving cache hits from
 * @p cache (may be nullptr: cache disabled) and storing fresh outcomes
 * back into it. The returned result lists outcomes in the submission
 * order of @p points and is byte-identical (sweepio::encodeResult) to
 * runTimingSweep over the same points. fatal()s if any shard exhausts
 * its attempts.
 */
SweepResult runDispatchedSweep(const std::vector<SweepPoint> &points,
                               WorkerBackend &backend,
                               const DispatchOptions &opts,
                               ResultCache *cache, DispatchStats *stats);

} // namespace cfl::dispatch

#endif // CFL_DISPATCH_DISPATCHER_HH
