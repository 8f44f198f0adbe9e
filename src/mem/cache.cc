#include "mem/cache.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace cfl
{

Cache::Cache(std::string name, std::uint64_t capacity_bytes, unsigned ways)
    : name_(std::move(name)),
      capacityBytes_(capacity_bytes),
      ways_(ways),
      stats_(name_),
      tags_(buildTags()),
      hitsStat_(&stats_.scalar("hits")),
      missesStat_(&stats_.scalar("misses")),
      fillsStat_(&stats_.scalar("fills")),
      evictionsStat_(&stats_.scalar("evictions")),
      reservedBytesStat_(&stats_.scalar("reservedBytes"))
{
}

Cache::Tags
Cache::buildTags() const
{
    const std::uint64_t blocks = capacityBytes_ / kBlockBytes;
    cfl_assert(blocks >= ways_, "%s: capacity below one set", name_.c_str());
    // Round the set count down to a power of two; the difference models
    // capacity lost to reserved metadata lines spread over the sets.
    std::uint64_t sets = blocks / ways_;
    while (!isPowerOfTwo(sets))
        --sets;
    return Tags(sets, ways_, floorLog2(kBlockBytes));
}

bool
Cache::access(Addr block_addr)
{
    cfl_assert(blockAlign(block_addr) == block_addr,
               "%s: unaligned block access", name_.c_str());
    touched_ = true;
    const bool hit = tags_.find(block_addr) != nullptr;
    (hit ? hitsStat_ : missesStat_)->inc();
    return hit;
}

bool
Cache::contains(Addr block_addr) const
{
    return tags_.peek(block_addr) != nullptr;
}

void
Cache::insert(Addr block_addr)
{
    cfl_assert(blockAlign(block_addr) == block_addr,
               "%s: unaligned block insert", name_.c_str());
    touched_ = true;
    if (tags_.peek(block_addr) != nullptr)
        return;
    fillsStat_->inc();
    const auto evicted = tags_.insert(block_addr, Present{});
    if (evicted) {
        evictionsStat_->inc();
        if (evictHook_)
            evictHook_(evicted->first);
    }
}

bool
Cache::invalidate(Addr block_addr)
{
    return tags_.invalidate(block_addr).has_value();
}

void
Cache::reserveBytes(std::uint64_t bytes)
{
    cfl_assert(!touched_, "%s: reserveBytes after first use", name_.c_str());
    cfl_assert(bytes < capacityBytes_, "%s: reservation exceeds capacity",
               name_.c_str());
    capacityBytes_ -= bytes;
    reservedBytesStat_->inc(bytes);
    tags_ = buildTags();
}

} // namespace cfl
