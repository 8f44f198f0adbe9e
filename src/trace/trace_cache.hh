/**
 * @file
 * Process-wide, thread-safe cache of shared immutable workload traces.
 *
 * Every engine reads its oracle stream from a TraceBuffer. The cache
 * generates the trace of each (workload, seed) pair once and hands out
 * shared const views, so concurrent sweep points — and repeated sweeps
 * in one process, the common case for figure benches, calibration runs,
 * and the perf harness — replay one buffer instead of each generating
 * its own.
 *
 * Memory/speed trade-off: a buffer stores only dynamic branch
 * outcomes, a few hundredths of a byte per instruction in the five
 * presets (30–45 KB for a quick-scale trace of 1.25M instructions),
 * so the budget rarely binds. The cache still enforces one
 * (CONFLUENCE_TRACE_CACHE_MB, default 512; 0 shares nothing): least-
 * recently-used idle buffers are dropped to make room, and when a new
 * trace cannot fit even after eviction, acquire() returns nullptr and
 * the engine generates its own unshared trace — behaviour is
 * bit-identical either way, only the speed differs. A generation in
 * flight holds TraceBuffer::arenaBytesFor(length), about a byte per
 * instruction; the finished buffer is charged its actual bytes().
 */

#ifndef CFL_TRACE_TRACE_CACHE_HH
#define CFL_TRACE_TRACE_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "trace/trace_buffer.hh"
#include "workloads/suite.hh"

namespace cfl
{

/** Keyed store of shared TraceBuffers with an LRU byte budget. */
class TraceCache
{
  public:
    /** @param budget_bytes maximum cached bytes; 0 shares nothing. */
    explicit TraceCache(std::uint64_t budget_bytes);

    /**
     * A shared trace of at least @p min_insts instructions of
     * (workload, seed), generating and caching it on first use.
     * Returns nullptr when the budget rules caching out — the engine
     * then generates its own unshared trace.
     */
    std::shared_ptr<const TraceBuffer>
    acquire(WorkloadId workload, std::uint64_t seed,
            std::uint64_t min_insts);

    /** Replace the byte budget (0 shares nothing and drops idle
     *  entries). */
    void setBudgetBytes(std::uint64_t bytes);

    /** Drop every idle (externally unreferenced) buffer. */
    void clear();

    std::uint64_t budgetBytes() const;
    std::uint64_t cachedBytes() const;

    /**
     * Completed acquire() calls. Every lookup is classified as exactly
     * one of hit, miss, or bypass, so
     * hits() + misses() + bypasses() == lookups() always holds (an
     * acquire that unwinds with an exception is not counted).
     */
    std::uint64_t lookups() const;
    /** acquire() calls served from an existing buffer. */
    std::uint64_t hits() const;
    /** acquire() calls that generated a new buffer. */
    std::uint64_t misses() const;
    /** acquire() calls the budget turned away. */
    std::uint64_t bypasses() const;

  private:
    struct Entry;

    /** Drop idle LRU entries (other than @p exclude) until @p needed
     *  fits; true on success. */
    bool makeRoom(std::uint64_t needed, const Entry *exclude = nullptr);

    mutable std::mutex mutex_;
    std::map<std::pair<int, std::uint64_t>, std::shared_ptr<Entry>>
        entries_;
    std::uint64_t budgetBytes_;
    std::uint64_t chargedBytes_ = 0;
    std::uint64_t useClock_ = 0;
    std::uint64_t lookups_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t bypasses_ = 0;
};

/**
 * The process-wide cache every frontend shares. The initial budget comes
 * from CONFLUENCE_TRACE_CACHE_MB (default 512; 0 shares nothing, so
 * every engine generates its own trace).
 */
TraceCache &traceCache();

} // namespace cfl

#endif // CFL_TRACE_TRACE_CACHE_HH
