/**
 * @file
 * Per-core instruction-memory path: L1-I backed by the shared LLC.
 *
 * InstMemory owns one core's L1-I (32KB, 4-way, 64B blocks), tracks
 * in-flight fills (MSHR-style), and exposes the two operations the
 * front-end needs:
 *
 *   demandFetch() — the fetch unit requires a block *now*; result says
 *                   whether it hit, and if not, when the fill completes
 *                   (a fill already in flight completes at its original
 *                   time, modeling partially hidden prefetch latency).
 *   prefetch()    — an instruction prefetcher (FDP/SHIFT) pulls a block
 *                   ahead of the fetch stream.
 *
 * Each L1-I way holds the ready cycle of the fill that installed its
 * block, so demandFetch, prefetch and resident answer from the one set
 * probe they make. MSHR occupancy is a separate dense list of live
 * fills, one per block: a fill keeps its MSHR until its ready cycle
 * even if its block is evicted first, and retires lazily at the next
 * demandFetch or prefetch that finds it complete.
 *
 * Fill and evict hooks let Confluence synchronize AirBTB's contents with
 * the L1-I (Section 3: insertions/evictions mirrored in both structures).
 */

#ifndef CFL_MEM_HIERARCHY_HH
#define CFL_MEM_HIERARCHY_HH

#include <vector>

#include "common/assoc.hh"
#include "common/delegate.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/llc.hh"

namespace cfl
{

/** Per-core instruction-memory configuration. */
struct InstMemoryParams
{
    std::uint64_t l1iBytes = 32 * 1024;
    unsigned l1iWays = 4;
    bool perfectL1I = false;  ///< Ideal front-end: every access hits
};

/** One core's instruction-fetch path. */
class InstMemory
{
  public:
    /** Fired when a block is installed in the L1-I.
     *  Arguments: block address, from_prefetch, fill-ready cycle. */
    using FillHook = Delegate<void(Addr, bool, Cycle)>;

    /** Fired when a block leaves the L1-I. */
    using EvictHook = Delegate<void(Addr)>;

    InstMemory(const InstMemoryParams &params, Llc &llc);

    /** Result of a demand block fetch. */
    struct FetchResult
    {
        bool l1Hit = false;       ///< present and ready
        bool wasInFlight = false; ///< missed, but a fill was in flight
        Cycle readyAt = 0;        ///< when the fetch unit can proceed
    };

    /** Demand-fetch @p block_addr at time @p now. */
    FetchResult demandFetch(Addr block_addr, Cycle now);

    /**
     * Content-only touch for sampled fast-forward warming: probes the
     * L1-I (LRU update) and on a miss installs through the LLC, firing
     * the usual fill/evict hooks — but starts no fill of its own.
     * Fill-timing state is transient (a fill outlives its install by at
     * most the memory latency) and is rebuilt by the full-fidelity
     * warming window before anything is measured, so the touch tier
     * pays only for the state that persists: tags, LRU and hooks. A
     * block reinstalled while an earlier fill of it is still live is
     * ready when that fill's data arrives.
     * Returns true on an L1-I hit (for the prefetcher's warm hook).
     */
    bool warmTouch(Addr block_addr, Cycle now);

    /**
     * Content-only prefetch fill (sampled warming): the same L1-I/LLC
     * content effects as prefetch() — including the pollution a wrong
     * prefetch causes — with no MSHR bookkeeping, mirroring warmTouch.
     * Present blocks are cheap no-ops.
     */
    void warmPrefetch(Addr block_addr, Cycle now);

    /**
     * Prefetch @p block_addr at time @p now; returns the completion
     * cycle. Duplicate prefetches of present/in-flight blocks are cheap
     * no-ops (returns the existing readiness time).
     *
     * @param extra_latency additional delay before the fill is issued
     *        (e.g. virtualized-history read latency for SHIFT).
     */
    Cycle prefetch(Addr block_addr, Cycle now, Cycle extra_latency = 0);

    /** True if the block is resident and its fill completed by @p now. */
    bool resident(Addr block_addr, Cycle now) const;

    /** True if the block is resident or in flight. */
    bool residentOrInFlight(Addr block_addr) const;

    /** Number of fills still in flight at @p now (MSHR occupancy). */
    unsigned inFlightCount(Cycle now) const;

    /**
     * Monotone counter bumped on every L1-I install. Observers that
     * cache "nothing useful to do" conclusions (e.g. the fetch-ahead
     * scan) use it to detect that cache contents changed.
     */
    std::uint64_t installSeq() const { return installSeq_; }

    /** Fills tracked as MSHRs, whether or not complete: those that
     *  have not yet been retired. */
    std::size_t inFlightSize() const { return fills_.size(); }

    /**
     * Lower bound on the earliest in-flight completion cycle (never
     * later than the true minimum; ~0 when nothing is in flight).
     * While now < minInFlightReady() every tracked fill is strictly
     * in flight, so inFlightCount(now) == inFlightSize().
     */
    Cycle minInFlightReady() const { return minInFlightReady_; }

    void setFillHook(FillHook hook) { fillHook_ = hook; }
    void setEvictHook(EvictHook hook) { evictHook_ = hook; }

    /** The L1-I tags: block address -> ready cycle of its fill. */
    AssocCache<Cycle> &l1i() { return l1i_; }
    Llc &llc() { return llc_; }
    const StatSet &stats() const { return stats_; }
    StatSet &stats() { return stats_; }

  private:
    /** A live fill: an MSHR, freed at its ready cycle. */
    struct Fill
    {
        Addr block;
        Cycle ready;
    };

    /** Start a fill of an absent block, firing hooks; returns its
     *  ready cycle. */
    Cycle install(Addr block_addr, bool from_prefetch, Cycle now,
                  Cycle extra_latency);

    /** Content-only install of an absent block (the warm paths). */
    void warmInstall(Addr block_addr, bool from_prefetch, Cycle now);

    /** Put an absent block in the L1-I, ready at @p ready, firing the
     *  evict hook for its victim. */
    void insertTag(Addr block_addr, Cycle ready);

    /** The tracked fill of @p block_addr, or nullptr. */
    Fill *trackedFill(Addr block_addr);

    /** Retire completed fills. */
    void expireInFlight(Cycle now);

    InstMemoryParams params_;
    Llc &llc_;
    /** Block address -> ready cycle of the fill that installed it. */
    AssocCache<Cycle> l1i_;
    StatSet stats_;
    FillHook fillHook_;
    EvictHook evictHook_;

    /** Live fills, one per block, in no order. Reserved up front, so
     *  MSHR churn stays off the allocator. */
    std::vector<Fill> fills_;

    /**
     * Lower bound on the earliest ready cycle in fills_ (never later
     * than the true minimum; ~0 when there are none). While
     * now < minInFlightReady_ every fill is strictly in flight, so
     * expiry walks and occupancy counts take O(1) fast paths.
     */
    Cycle minInFlightReady_ = ~Cycle{0};
    std::uint64_t installSeq_ = 0;  ///< see installSeq()

    // Hot counters resolved once; StatSet map nodes are stable.
    Stat *demandFetchesStat_;
    Stat *demandHitsStat_;
    Stat *demandMissesStat_;
    Stat *demandInFlightHitsStat_;
    Stat *demandInFlightWaitStat_;
    Stat *prefetchIssuedStat_;
    Stat *prefetchRedundantStat_;
    Stat *fillsFromLlcStat_;
    Stat *fillsFromMemoryStat_;
};

} // namespace cfl

#endif // CFL_MEM_HIERARCHY_HH
