/**
 * @file
 * The benchmark's workloads and metric catalog.
 *
 * Each workload is set up by its constructor (the set-up time the
 * benchmark reports), then driven in a closed loop by main.cc: one
 * untraced operation at a time through the public entry point users
 * call (runTimingSweep, search::runSearch, dispatch::runDispatchedSweep),
 * followed by a single traced operation that records spans around the
 * calls into each layer from this directory's code.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "tracer.hh"

namespace perfbench
{

/** Threads of the in-process SweepEngine and LocalBackend slots. */
inline constexpr unsigned kEngineWorkers = 2;
inline constexpr unsigned kDispatchWorkers = 2;

/** The seed that keeps every workload's canonical order. */
inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunOptions
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    std::string workDir; ///< work directory inside the checkout
};

/** One metric's catalog entry: domain says what the value measures —
 *  "host" time or rate, "simulated" model output, or a "count"/ratio
 *  of events. */
struct MetricDef
{
    std::string name;
    std::string unit;
    std::string domain;
};

/** Reported with --trace 0, from the untraced operations. */
const std::vector<MetricDef> &endToEndMetrics();

/** Reported with --trace 1, from the traced operation (0 where a
 *  layer is not on the workload's path). */
const std::vector<MetricDef> &perLayerMetrics();

using Values = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** One untraced operation; returns its wall seconds. Checks that
     *  need no reference run after the clock stops. */
    virtual double runOnce() = 0;

    /** Output checks against references computed after the loop. */
    virtual void checkReferences() = 0;

    /** End-to-end values other than setup_s, wall_s, peak_rss_mb. */
    virtual void endToEnd(double median_wall, Values &out) const = 0;

    /** One traced operation; fills this workload's per-layer values
     *  and returns the id of the span around the operation. */
    virtual std::uint32_t traced(Tracer &tracer, Values &out) = 0;

    /** Nominal simulated instructions of one untraced operation. */
    virtual double simulatedInstsPerOp() const = 0;

    /** "quick" plus any budget override, for the manifest. */
    virtual std::string scaleName() const = 0;

    /** Points or shard attempts tried / failed by untraced operations. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed output checks, one line each. */
    std::vector<std::string> failures;
};

/** Known workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Set up @p opts.workload (fatal on an unknown name). */
std::unique_ptr<Workload> makeWorkload(const RunOptions &opts);

/** Time workloadProgram() for the five presets; seconds. */
double synthesizePrograms();

/** Component replays on each preset's own oracle stream. */
void componentReplays(Values &out);

double secondsSince(Clock::time_point t0);
double median(std::vector<double> v);
/** Linear-interpolated quantile @p q in [0, 1] (0 for empty input). */
double quantile(std::vector<double> v, double q);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
