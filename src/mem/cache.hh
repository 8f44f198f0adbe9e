/**
 * @file
 * Block-presence cache with true-LRU replacement: the shared LLC's tag
 * array.
 *
 * The tags are an AssocCache (common/assoc.hh) with an empty payload,
 * keyed by 64B block address; the L1-I (mem/InstMemory) and the BTBs
 * build their tables on the same array with a payload per entry. The
 * cache tracks presence only; instruction bytes always come from the
 * CodeImage.
 */

#ifndef CFL_MEM_CACHE_HH
#define CFL_MEM_CACHE_HH

#include <cstdint>
#include <string>

#include "common/assoc.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace cfl
{

/** Sets of a @p capacity_bytes array of @p ways ways, rounded down to a
 *  power of two: the difference models capacity lost to reserved
 *  metadata lines spread over the sets. @p name labels the error when
 *  the capacity is below one set. */
std::size_t cacheSets(const std::string &name, std::uint64_t capacity_bytes,
                      unsigned ways);

/** A block-presence cache (tags over 64B block addresses). */
class Cache
{
  public:
    /** @param name stat prefix
     *  @param capacity_bytes data capacity; the set count is the
     *         capacity's blocks per way rounded down to a power of two
     *  @param ways associativity */
    Cache(std::string name, std::uint64_t capacity_bytes, unsigned ways);

    /** Probe for a block; counts hit/miss stats. */
    bool access(Addr block_addr);

    /** Insert a block the caller has just found absent (access() said
     *  so), evicting the set's LRU block if the set is full. Inserting
     *  a present block is a fatal error, in every build. */
    void insert(Addr block_addr);

    std::uint64_t capacityBytes() const { return capacityBytes_; }
    std::size_t numSets() const { return tags_.numSets(); }
    unsigned ways() const { return tags_.ways(); }
    const StatSet &stats() const { return stats_; }
    StatSet &stats() { return stats_; }

  private:
    struct Present {};  ///< empty payload: a valid entry is the block
    using Tags = AssocCache<Present>;

    std::string name_;
    std::uint64_t capacityBytes_;
    StatSet stats_;
    Tags tags_;

    // Counters resolved once; StatSet map nodes are stable.
    Stat *hitsStat_;
    Stat *missesStat_;
    Stat *fillsStat_;
    Stat *evictionsStat_;
};

} // namespace cfl

#endif // CFL_MEM_CACHE_HH
