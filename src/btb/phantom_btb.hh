/**
 * @file
 * PhantomBTB (Burcea & Moshovos, ASPLOS'09), as configured in Section
 * 4.2.2 of the Confluence paper:
 *
 *  - a 1K-entry conventional first-level BTB plus a 64-entry prefetch
 *    buffer per core;
 *  - a second level virtualized in the LLC: temporal groups of up to six
 *    BTB entries packed into an LLC block, 4K groups total (256KB of LLC
 *    capacity), each group tagged with the 32-instruction region of the
 *    miss that opened it;
 *  - on a first-level miss, the virtualized table is probed with the miss
 *    region and, after the LLC round trip, the group's entries land in
 *    the prefetch buffer;
 *  - consecutive first-level misses are packed into the currently forming
 *    group (temporal correlation).
 *
 * Following the paper's methodology, the virtualized history is *shared*
 * by all cores running the workload (Section 4.2.2); per-core first
 * levels and prefetch buffers stay private. PhantomSharedHistory is that
 * shared second level.
 */

#ifndef CFL_BTB_PHANTOM_BTB_HH
#define CFL_BTB_PHANTOM_BTB_HH

#include <array>
#include <memory>
#include <vector>

#include "common/assoc.hh"
#include "btb/btb.hh"
#include "common/ring.hh"

namespace cfl
{

/** PhantomBTB configuration. */
struct PhantomBtbParams
{
    std::size_t l1Entries = 1024;
    unsigned l1Ways = 4;
    unsigned prefetchBufferEntries = 64;
    unsigned groupSize = 6;        ///< BTB entries per LLC block
    std::size_t numGroups = 4096;  ///< LLC blocks dedicated (256KB)
    unsigned regionInsts = 32;     ///< trigger-tag granularity
    Cycle llcLatency = 20;         ///< group fetch round trip
};

/**
 * One virtualized temporal group. A group never exceeds the entries
 * that fit one LLC block (groupSize, at most kMaxEntries), so storage
 * is inline — group formation and fetch happen on the per-miss path
 * and must not allocate.
 */
struct PhantomGroup
{
    static constexpr unsigned kMaxEntries = 8;

    /** One grouped BTB entry and its branch PC. */
    struct Slot
    {
        Addr pc = 0;
        BtbEntryData entry;

        bool operator==(const Slot &) const = default;
    };

    /** Fixed-capacity slot list with the vector surface the consumers
     *  use. */
    struct EntryList
    {
        std::array<Slot, kMaxEntries> slots{};
        std::uint8_t count = 0;

        void
        emplace_back(Addr pc, const BtbEntryData &entry)
        {
            slots[count++] = {pc, entry};
        }

        void clear() { count = 0; }
        std::size_t size() const { return count; }
        const Slot &operator[](std::size_t i) const { return slots[i]; }
        const Slot *begin() const { return slots.data(); }
        const Slot *end() const { return slots.data() + count; }

        bool operator==(const EntryList &) const = default;
    } entries;

    bool operator==(const PhantomGroup &) const = default;
};

/** The LLC-virtualized, workload-shared second level. */
class PhantomSharedHistory
{
  public:
    explicit PhantomSharedHistory(const PhantomBtbParams &params);

    /** Region tag for a branch PC. */
    std::uint64_t regionOf(Addr pc) const;

    /** Probe for the group tagged with @p region; nullptr if absent. */
    const PhantomGroup *findGroup(std::uint64_t region) const;

    /**
     * Record one learned entry into the forming group of core
     * @p core_id; full groups are committed to the virtualized table.
     */
    void recordMiss(unsigned core_id, Addr pc, const BtbEntryData &entry);

    /** Number of committed groups. */
    std::size_t numGroups() const { return groups_.size(); }

    const PhantomBtbParams &params() const { return params_; }

  private:
    void commitGroup(std::uint64_t trigger_region, PhantomGroup group);

    PhantomBtbParams params_;
    /** trigger region -> group, bounded by numGroups with LRU. */
    AssocCache<PhantomGroup> groups_;
    /** Per-core forming group and its trigger region. */
    struct Forming
    {
        bool open = false;
        std::uint64_t triggerRegion = 0;
        PhantomGroup group;
    };
    std::vector<Forming> forming_;
};

/** Per-core PhantomBTB front end (first level + prefetch buffer). */
class PhantomBtb final : public Btb
{
  public:
    /** @param history the workload-shared virtualized second level
     *  @param core_id this core's id for group formation */
    PhantomBtb(const PhantomBtbParams &params,
               std::shared_ptr<PhantomSharedHistory> history,
               unsigned core_id, std::string name = "btb.phantom");

    BtbLookupResult lookup(const DynInst &inst, Cycle now) override;
    void learn(Addr pc, BranchKind kind, Addr target, Cycle now) override;

    /** Sampled-warming path: the virtualized temporal-group history
     *  accumulates from the L1-miss stream over far more stream than
     *  the full-fidelity window replays, so warming keeps feeding it
     *  miss-driven — probing the (otherwise frozen) first level
     *  without disturbing its recency order. */
    void warmTakenBranch(Addr pc, BranchKind kind, Addr target) override;

    const PhantomBtbParams &params() const { return params_; }

  private:
    /** Move arrived group entries into the prefetch buffer. */
    void drainArrivals(Cycle now);

    PhantomBtbParams params_;
    std::shared_ptr<PhantomSharedHistory> history_;
    unsigned coreId_;

    AssocCache<BtbEntryData> l1_;
    FullyAssocCache<BtbEntryData> prefetchBuffer_;

    /** In-flight group fetches from the LLC. */
    struct PendingGroup
    {
        Cycle arriveAt = 0;
        PhantomGroup group;
    };
    RingBuffer<PendingGroup> pending_;

    /** Throttle duplicate triggers for the same region back to back. */
    std::uint64_t lastTriggerRegion_ = ~0ull;

    // Per-branch counters resolved once (StatSet nodes are stable).
    Stat *lookupsStat_ = &stats_.scalar("lookups");
    Stat *l1HitsStat_ = &stats_.scalar("l1Hits");
    Stat *prefetchBufferHitsStat_ = &stats_.scalar("prefetchBufferHits");
    Stat *lookupMissesStat_ = &stats_.scalar("lookupMisses");
    Stat *groupArrivalsStat_ = &stats_.scalar("groupArrivals");
    Stat *groupTriggersStat_ = &stats_.scalar("groupTriggers");
    Stat *groupTriggerMissesStat_ = &stats_.scalar("groupTriggerMisses");
    Stat *insertsStat_ = &stats_.scalar("inserts");
};

} // namespace cfl

#endif // CFL_BTB_PHANTOM_BTB_HH
