/**
 * @file
 * Parallel experiment-sweep engine.
 *
 * Every figure bench evaluates a grid of (design, workload, scale)
 * points, and each point is a self-contained simulation: it builds its
 * own CMP (or functional driver), runs it, and reads its counters. The
 * only cross-point state in the simulator is the read-only workload
 * cache, so points fan out across a thread pool trivially.
 *
 * Determinism contract: a point's RNG seed is a pure function of the
 * point itself (sweepPointSeed), never of the execution schedule, so a
 * sweep produces bit-identical metrics whether it runs on one worker or
 * sixteen. The pool size follows std::thread::hardware_concurrency and
 * can be overridden with the CONFLUENCE_JOBS environment variable;
 * CONFLUENCE_JOBS=1 runs every point inline on the calling thread.
 */

#ifndef CFL_SIM_SWEEP_HH
#define CFL_SIM_SWEEP_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/experiment.hh"

namespace cfl
{

/**
 * Number of workers a default-constructed SweepEngine uses: the
 * CONFLUENCE_JOBS environment variable when set (clamped to >= 1),
 * otherwise std::thread::hardware_concurrency().
 */
unsigned defaultSweepJobs();

/**
 * A persistent pool of worker threads draining a shared work queue.
 *
 * The pool is batch-oriented: parallelFor enqueues one task per index
 * and blocks until the whole batch has completed. With jobs() == 1 no
 * threads are spawned and bodies run inline on the caller.
 */
class SweepEngine
{
  public:
    /** @param jobs worker count; 0 means defaultSweepJobs(). */
    explicit SweepEngine(unsigned jobs = 0);
    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    unsigned jobs() const { return jobs_; }

    /**
     * Run body(0) .. body(n-1), each as one queued task, and wait for
     * all of them. Bodies execute in arbitrary order on arbitrary
     * workers; any exception is rethrown here (first one wins).
     * Reentrant calls from within a body are not supported.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

  private:
    void workerLoop();

    unsigned jobs_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable batchDone_;
    std::deque<std::function<void()>> queue_;
    std::size_t inFlight_ = 0;
    std::exception_ptr firstError_;
    bool shutdown_ = false;

    /** Serializes concurrent parallelFor callers. */
    std::mutex batchMutex_;
};

/**
 * @p kinds plus FrontendKind::Baseline if absent — the normalization
 * points every comparison sweep needs.
 */
std::vector<FrontendKind> withBaseline(std::vector<FrontendKind> kinds);

/**
 * Evaluate fn(0) .. fn(n-1) on @p engine and collect the results by
 * index. The generic path for functional (coverage) sweeps whose points
 * are ad-hoc closures rather than (kind, workload) pairs.
 */
template <typename Fn>
auto
sweepMap(SweepEngine &engine, std::size_t n, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{}))>
{
    std::vector<decltype(fn(std::size_t{}))> out(n);
    engine.parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

/**
 * Two-dimensional sweepMap: evaluate fn(row, col) for every cell of a
 * rows x cols grid and return the results as grid[row][col]. Producer
 * and consumer share one indexing scheme, so the div-mod arithmetic of
 * a flattened sweep can't drift out of sync between them.
 */
template <typename Fn>
auto
sweepMap2(SweepEngine &engine, std::size_t rows, std::size_t cols, Fn &&fn)
    -> std::vector<std::vector<decltype(fn(std::size_t{}, std::size_t{}))>>
{
    std::vector<std::vector<decltype(fn(std::size_t{}, std::size_t{}))>>
        grid(rows);
    for (auto &row : grid)
        row.resize(cols);
    engine.parallelFor(rows * cols, [&](std::size_t i) {
        grid[i / cols][i % cols] = fn(i / cols, i % cols);
    });
    return grid;
}

/**
 * Structure-geometry overrides applied on top of the Table-1
 * SystemConfig for one sweep point. A zero field means "leave the
 * Table-1 default alone"; an all-zero overlay is the identity and is
 * omitted from the point's canonical encoding, so every pre-overlay
 * point keeps its byte encoding, digest, and cache key.
 *
 * The overlay is part of the point identity (codec, digests) but NOT
 * of sweepPointSeed: two geometry variants of the same (kind,
 * workload) replay the identical instruction stream, which is exactly
 * what a design-space search wants to compare.
 */
struct DesignOverlay
{
    std::uint64_t btbEntries = 0;   ///< conventional/ideal BTB entries
    std::uint64_t btbWays = 0;      ///< conventional/ideal BTB ways
    std::uint64_t l2Entries = 0;    ///< two-level backing BTB entries
    std::uint64_t airBundles = 0;   ///< AirBTB bundle count
    std::uint64_t airBranchEntries = 0;   ///< AirBTB B (1..8)
    std::uint64_t airOverflowEntries = 0; ///< AirBTB overflow buffer
    std::uint64_t shiftHistoryEntries = 0; ///< SHIFT history length
    std::uint64_t shiftStreamDepth = 0;    ///< SHIFT lookahead depth

    /** Any field set? (false = identity, omitted from encodings). */
    bool enabled() const;

    /** Overwrite the targeted SystemConfig fields with the set ones.
     *  btbEntries/btbWays retarget both the baseline and the ideal
     *  conventional BTB — a point's kind instantiates at most one of
     *  the two, and the search masks axes to relevant kinds. */
    void applyTo(SystemConfig &config) const;

    bool operator==(const DesignOverlay &) const = default;
};

/** One experiment point of a timing sweep. */
struct SweepPoint
{
    FrontendKind kind;
    WorkloadId workload;
    RunScale scale;
    /** Disabled by default: exact full-fidelity simulation. When
     *  enabled the point runs through Cmp::runSampled and its outcome
     *  carries per-metric confidence estimators. Part of the point
     *  identity (codec, digests): a sampled point and its exact twin
     *  are different points with different results. */
    SamplingSpec sampling = {};
    /** Identity overlay by default: the Table-1 configuration. */
    DesignOverlay overlay = {};
};

/**
 * Deterministic RNG seed base of a sweep point: a pure function of the
 * point's coordinates, so serial and parallel sweeps (and reruns) seed
 * their CMPs identically.
 */
std::uint64_t sweepPointSeed(FrontendKind kind, WorkloadId workload);

/** Results of a sweep, in submission order regardless of schedule. */
struct SweepOutcome
{
    SweepPoint point;
    std::uint64_t seed = 0;
    CmpMetrics metrics;
};

/** Aggregated view over a sweep's outcomes. */
struct SweepResult
{
    std::vector<SweepOutcome> points;

    /** The outcome matching (kind, workload); nullptr if absent. Panics
     *  on a duplicate match, which means a shard was merged twice. */
    const SweepOutcome *find(FrontendKind kind, WorkloadId workload) const;

    /** Mean IPC of the (kind, workload) point; panics if absent. */
    double ipc(FrontendKind kind, WorkloadId workload) const;

    /** Mean BTB MPKI of the (kind, workload) point; panics if absent. */
    double btbMpki(FrontendKind kind, WorkloadId workload) const;

    /** Per-workload speedup of @p kind over @p baseline. */
    std::map<WorkloadId, double>
    speedups(FrontendKind kind, FrontendKind baseline) const;

    /** Geomean of speedups() over every workload present for @p kind. */
    double geomeanSpeedup(FrontendKind kind, FrontendKind baseline) const;

    /** Workloads present for @p kind, in submission order. */
    std::vector<WorkloadId> workloadsOf(FrontendKind kind) const;

    /** Append another sweep's outcomes (for sharded/merged sweeps). */
    void merge(SweepResult &&other);
};

/** Evaluate one sweep point standalone (builds its own Cmp). */
CmpMetrics evaluateSweepPoint(const SweepPoint &point,
                              const SystemConfig &config,
                              std::uint64_t seed_base);

/** Evaluate exactly the given points. */
SweepResult runTimingSweep(const std::vector<SweepPoint> &points,
                           const SystemConfig &config, SweepEngine &engine);

/** Evaluate the (kinds x workloads) cross product at one scale. */
SweepResult runTimingSweep(const std::vector<FrontendKind> &kinds,
                           const std::vector<WorkloadId> &workloads,
                           const SystemConfig &config, const RunScale &scale,
                           SweepEngine &engine);

/** Cross-product sweep on a default-sized engine. */
SweepResult runTimingSweep(const std::vector<FrontendKind> &kinds,
                           const std::vector<WorkloadId> &workloads,
                           const SystemConfig &config,
                           const RunScale &scale);

} // namespace cfl

#endif // CFL_SIM_SWEEP_HH
