/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one call into a layer of the simulator, timed from the
 * benchmark's own code: a name "<layer>.<call>" (the layer is the src/
 * module the call enters), start, end, the span that caused it, the
 * recording thread ("lane"), and a group id that the spans of one
 * sweep point, one shard or one search batch share. Spans stay in
 * memory until the run ends; nothing inside src/ is instrumented.
 *
 * Self time follows the usual profiler definition: a span's duration
 * minus the part of it its child spans cover (children may run on other
 * lanes, e.g. the sweep points under a parallelFor). layerShares()
 * turns the self intervals of a span tree into per-layer shares of its
 * wall time: at every instant the wall time is split evenly among the
 * spans whose self interval is active then, so the shares of all
 * layers add up to the root's duration whenever the tree is well
 * formed.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

struct Span
{
    std::uint32_t id = 0;     ///< 1-based; 0 means "no span"
    std::uint32_t parent = 0; ///< causing span, 0 for a root
    std::uint32_t group = 0;  ///< point / shard / batch id
    std::uint32_t lane = 0;   ///< recording thread
    std::string name;         ///< "<layer>.<call>"
    std::int64_t t0 = 0;      ///< ns since the tracer started
    std::int64_t t1 = -1;     ///< -1 while open

    std::string layer() const { return name.substr(0, name.find('.')); }
    double seconds() const { return (t1 - t0) * 1e-9; }
};

class Tracer
{
  public:
    Tracer();

    /** Open a span under @p parent; returns its id. Thread-safe. */
    std::uint32_t open(std::string name, std::uint32_t parent,
                       std::uint32_t group);

    /** Close span @p id. Thread-safe. */
    void close(std::uint32_t id);

    /** A fresh group id. Thread-safe. */
    std::uint32_t newGroup();

    /** Snapshot of every recorded span, in open order. */
    std::vector<Span> spans() const;

  private:
    std::int64_t now() const;

    const Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
    std::uint32_t groups_ = 0; // guarded by mutex_
};

/**
 * RAII span. Without an explicit parent it nests under the innermost
 * Scope open on the calling thread and inherits that scope's group;
 * worker-thread spans pass the parent (and group) they belong to.
 */
class Scope
{
  public:
    Scope(Tracer &tracer, std::string name);
    Scope(Tracer &tracer, std::string name, std::uint32_t parent,
          std::uint32_t group);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::uint32_t id() const { return id_; }
    std::uint32_t group() const { return group_; }

    /** Id of the innermost Scope open on this thread (0 if none). */
    static std::uint32_t innermostId();

  private:
    Tracer &tracer_;
    std::uint32_t id_;
    std::uint32_t group_;
    const Scope *outer_;
};

/** What layerShares() found in one span tree. */
struct LayerShares
{
    double wall = 0.0;                    ///< root duration, seconds
    std::map<std::string, double> share; ///< layer -> seconds of wall
    std::vector<std::string> problems;   ///< malformed-tree findings
};

/**
 * Per-layer self time of the tree rooted at @p root, each instant's
 * wall time split evenly among the self intervals active then. Reports
 * spans left open and children that start before or end after their
 * parent.
 */
LayerShares layerShares(const std::vector<Span> &spans, std::uint32_t root);

/** The spans as JSON lines (one object per span). */
std::string spansJsonl(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
