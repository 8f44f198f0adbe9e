/**
 * @file
 * Block-presence cache with true-LRU replacement: the L1-I
 * (32KB/4-way/64B, Table 1) and the shared LLC.
 *
 * The tag array is an AssocCache (common/assoc.hh) with an empty
 * payload, keyed by 64B block address; the BTBs build their tables on
 * the same array with a payload per entry. The cache tracks presence
 * only; instruction bytes always come from the CodeImage.
 */

#ifndef CFL_MEM_CACHE_HH
#define CFL_MEM_CACHE_HH

#include <cstdint>
#include <string>

#include "common/assoc.hh"
#include "common/delegate.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cfl
{

/** A block-presence cache (tags over 64B block addresses) with hooks. */
class Cache
{
  public:
    /** Called with the evicted block address. */
    using EvictHook = Delegate<void(Addr)>;

    /** @param name stat prefix
     *  @param capacity_bytes total data capacity
     *  @param ways associativity */
    Cache(std::string name, std::uint64_t capacity_bytes, unsigned ways);

    /** Probe for a block; counts hit/miss stats. */
    bool access(Addr block_addr);

    /** Probe without stats or LRU update. */
    bool contains(Addr block_addr) const;

    /** Insert a block; fires the evict hook for any victim. */
    void insert(Addr block_addr);

    /** Remove a block if present. */
    bool invalidate(Addr block_addr);

    /**
     * Shrink the effective capacity by @p bytes, modeling LLC space
     * reserved for virtualized predictor metadata (Section 3.4). Must be
     * called before any insertion.
     */
    void reserveBytes(std::uint64_t bytes);

    void setEvictHook(EvictHook hook) { evictHook_ = hook; }

    std::uint64_t capacityBytes() const { return capacityBytes_; }
    std::uint64_t numBlocks() const { return tags_.size(); }
    const StatSet &stats() const { return stats_; }
    StatSet &stats() { return stats_; }

  private:
    struct Present {};  ///< empty payload: a valid entry is the block
    using Tags = AssocCache<Present>;

    Tags buildTags() const;

    std::string name_;
    std::uint64_t capacityBytes_;
    unsigned ways_;
    StatSet stats_;
    Tags tags_;  ///< value member: tag storage lives inline and is fully
                 ///< reserved at construction
    EvictHook evictHook_;
    bool touched_ = false;

    // Counters resolved once; StatSet map nodes are stable.
    Stat *hitsStat_;
    Stat *missesStat_;
    Stat *fillsStat_;
    Stat *evictionsStat_;
    Stat *reservedBytesStat_;
};

} // namespace cfl

#endif // CFL_MEM_CACHE_HH
