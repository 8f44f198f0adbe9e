#include "sim/sweep.hh"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/metrics.hh"

namespace cfl
{

unsigned
defaultSweepJobs()
{
    if (const char *env = std::getenv("CONFLUENCE_JOBS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end == env || (end != nullptr && *end != '\0') || v < 0)
            cfl_fatal("CONFLUENCE_JOBS must be a non-negative integer, "
                      "got \"%s\"", env);
        if (v > 0)
            return static_cast<unsigned>(v);
        // 0 falls through to auto-detection.
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

SweepEngine::SweepEngine(unsigned jobs)
    : jobs_(jobs == 0 ? defaultSweepJobs() : jobs)
{
    if (jobs_ == 1)
        return; // inline mode: no workers, no queue traffic
    workers_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

SweepEngine::~SweepEngine()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    workReady_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
SweepEngine::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock,
                            [this] { return shutdown_ || !queue_.empty(); });
            if (queue_.empty())
                return; // shutdown with a drained queue
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
            if (inFlight_ == 0)
                batchDone_.notify_all();
        }
    }
}

void
SweepEngine::parallelFor(std::size_t n,
                         const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;

    if (jobs_ == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // One batch at a time; concurrent callers just queue up here.
    std::lock_guard<std::mutex> batch(batchMutex_);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        firstError_ = nullptr;
        inFlight_ = n;
        for (std::size_t i = 0; i < n; ++i) {
            queue_.emplace_back([this, &body, i] {
                try {
                    body(i);
                } catch (...) {
                    std::lock_guard<std::mutex> elock(mutex_);
                    if (!firstError_)
                        firstError_ = std::current_exception();
                }
            });
        }
    }
    workReady_.notify_all();

    std::unique_lock<std::mutex> lock(mutex_);
    batchDone_.wait(lock, [this] { return inFlight_ == 0; });
    if (firstError_)
        std::rethrow_exception(firstError_);
}

std::vector<FrontendKind>
withBaseline(std::vector<FrontendKind> kinds)
{
    if (std::find(kinds.begin(), kinds.end(), FrontendKind::Baseline) ==
        kinds.end())
        kinds.push_back(FrontendKind::Baseline);
    return kinds;
}

bool
DesignOverlay::enabled() const
{
    return *this != DesignOverlay{};
}

void
DesignOverlay::applyTo(SystemConfig &config) const
{
    if (btbEntries != 0) {
        config.baselineBtb.entries = btbEntries;
        config.idealBtb.entries = btbEntries;
    }
    if (btbWays != 0) {
        config.baselineBtb.ways = static_cast<unsigned>(btbWays);
        config.idealBtb.ways = static_cast<unsigned>(btbWays);
    }
    if (l2Entries != 0)
        config.twoLevel.l2Entries = l2Entries;
    if (airBundles != 0)
        config.air.bundles = airBundles;
    if (airBranchEntries != 0)
        config.air.branchEntries = static_cast<unsigned>(airBranchEntries);
    if (airOverflowEntries != 0)
        config.air.overflowEntries =
            static_cast<unsigned>(airOverflowEntries);
    if (shiftHistoryEntries != 0)
        config.shift.historyEntries = shiftHistoryEntries;
    if (shiftStreamDepth != 0)
        config.shift.streamDepth = static_cast<unsigned>(shiftStreamDepth);
}

std::uint64_t
sweepPointSeed(FrontendKind kind, WorkloadId workload)
{
    // Offset the coordinates so no point maps to hashCombine(0, 0), and
    // keep the function stable: golden metrics pin these seeds.
    return hashCombine(static_cast<std::uint64_t>(kind) + 1,
                       (static_cast<std::uint64_t>(workload) + 1) << 8);
}

const SweepOutcome *
SweepResult::find(FrontendKind kind, WorkloadId workload) const
{
    const SweepOutcome *hit = nullptr;
    for (const SweepOutcome &o : points) {
        if (o.point.kind != kind || o.point.workload != workload)
            continue;
        cfl_assert(hit == nullptr,
                   "duplicate sweep point (%s, %s) — shard merged twice?",
                   frontendKindName(kind).c_str(),
                   workloadSlug(workload).c_str());
        hit = &o;
    }
    return hit;
}

double
SweepResult::ipc(FrontendKind kind, WorkloadId workload) const
{
    const SweepOutcome *o = find(kind, workload);
    cfl_assert(o != nullptr, "sweep point (%s, %s) missing",
               frontendKindName(kind).c_str(),
               workloadSlug(workload).c_str());
    return o->metrics.meanIpc();
}

double
SweepResult::btbMpki(FrontendKind kind, WorkloadId workload) const
{
    const SweepOutcome *o = find(kind, workload);
    cfl_assert(o != nullptr, "sweep point (%s, %s) missing",
               frontendKindName(kind).c_str(),
               workloadSlug(workload).c_str());
    return o->metrics.meanBtbMpki();
}

std::vector<WorkloadId>
SweepResult::workloadsOf(FrontendKind kind) const
{
    std::vector<WorkloadId> out;
    for (const SweepOutcome &o : points)
        if (o.point.kind == kind &&
            std::find(out.begin(), out.end(), o.point.workload) == out.end())
            out.push_back(o.point.workload);
    return out;
}

std::map<WorkloadId, double>
SweepResult::speedups(FrontendKind kind, FrontendKind baseline) const
{
    std::map<WorkloadId, double> out;
    for (const WorkloadId wl : workloadsOf(kind))
        out[wl] = speedup(ipc(kind, wl), ipc(baseline, wl));
    return out;
}

double
SweepResult::geomeanSpeedup(FrontendKind kind, FrontendKind baseline) const
{
    std::vector<double> values;
    for (const auto &[wl, s] : speedups(kind, baseline))
        values.push_back(s);
    return geomean(values);
}

void
SweepResult::merge(SweepResult &&other)
{
    // Pre-size for the combined outcome count: shard merges append many
    // results in sequence, and repeated geometric growth both
    // reallocates and copies the accumulated vector over and over.
    points.reserve(points.size() + other.points.size());
    points.insert(points.end(),
                  std::make_move_iterator(other.points.begin()),
                  std::make_move_iterator(other.points.end()));
    other.points.clear();
}

namespace
{

/** Evaluate one sweep point on @p cmp, built with the point's
 *  kind/workload and core count: the sampled run when point.sampling
 *  is enabled, else the exact run through the stepping API. */
CmpMetrics
runSweepPointOn(Cmp &cmp, const SweepPoint &point)
{
    if (point.sampling.enabled())
        return cmp.runSampled(point.scale.timingWarmupInsts,
                              point.scale.timingMeasureInsts,
                              point.sampling);
    cmp.prepareTraces(point.scale.timingWarmupInsts +
                      point.scale.timingMeasureInsts);
    cmp.runWarmup(point.scale.timingWarmupInsts);
    cmp.runMeasurement(point.scale.timingMeasureInsts);
    return cmp.collectMetrics();
}

} // namespace

CmpMetrics
evaluateSweepPoint(const SweepPoint &point, const SystemConfig &config,
                   std::uint64_t seed_base)
{
    SystemConfig cfg = config;
    cfg.numCores = point.scale.timingCores;
    point.overlay.applyTo(cfg);
    Cmp cmp(point.kind, point.workload, cfg, seed_base);
    return runSweepPointOn(cmp, point);
}

SweepResult
runTimingSweep(const std::vector<SweepPoint> &points,
               const SystemConfig &config, SweepEngine &engine)
{
    SweepResult result;
    result.points.resize(points.size());
    engine.parallelFor(points.size(), [&](std::size_t i) {
        const SweepPoint &p = points[i];
        const std::uint64_t seed = sweepPointSeed(p.kind, p.workload);
        SweepOutcome out;
        out.point = p;
        out.seed = seed;
        out.metrics = evaluateSweepPoint(p, config, seed);
        result.points[i] = std::move(out);
    });
    return result;
}

SweepResult
runTimingSweep(const std::vector<FrontendKind> &kinds,
               const std::vector<WorkloadId> &workloads,
               const SystemConfig &config, const RunScale &scale,
               SweepEngine &engine)
{
    std::vector<SweepPoint> points;
    points.reserve(kinds.size() * workloads.size());
    for (const FrontendKind kind : kinds)
        for (const WorkloadId wl : workloads)
            points.push_back({kind, wl, scale, SamplingSpec{}});
    return runTimingSweep(points, config, engine);
}

SweepResult
runTimingSweep(const std::vector<FrontendKind> &kinds,
               const std::vector<WorkloadId> &workloads,
               const SystemConfig &config, const RunScale &scale)
{
    SweepEngine engine;
    return runTimingSweep(kinds, workloads, config, scale, engine);
}

} // namespace cfl
