#include "mem/cache.hh"

#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace cfl
{

std::size_t
cacheSets(const std::string &name, std::uint64_t capacity_bytes,
          unsigned ways)
{
    const std::uint64_t blocks = capacity_bytes / kBlockBytes;
    cfl_assert(blocks >= ways, "%s: capacity below one set", name.c_str());
    return std::bit_floor(blocks / ways);
}

Cache::Cache(std::string name, std::uint64_t capacity_bytes, unsigned ways)
    : name_(std::move(name)),
      capacityBytes_(capacity_bytes),
      stats_(name_),
      tags_(cacheSets(name_, capacity_bytes, ways), ways,
            floorLog2(kBlockBytes)),
      hitsStat_(&stats_.scalar("hits")),
      missesStat_(&stats_.scalar("misses")),
      fillsStat_(&stats_.scalar("fills")),
      evictionsStat_(&stats_.scalar("evictions"))
{
}

bool
Cache::access(Addr block_addr)
{
    cfl_assert(blockAlign(block_addr) == block_addr,
               "%s: unaligned block access", name_.c_str());
    const bool hit = tags_.find(block_addr) != nullptr;
    (hit ? hitsStat_ : missesStat_)->inc();
    return hit;
}

void
Cache::insert(Addr block_addr)
{
    cfl_assert(blockAlign(block_addr) == block_addr,
               "%s: unaligned block insert", name_.c_str());
    fillsStat_->inc();
    const std::size_t before = tags_.size();
    const auto evicted = tags_.insert(block_addr, Present{});
    // An absent block either evicts a victim or fills an invalid way;
    // a present one would only have been refreshed in place.
    cfl_assert(evicted || tags_.size() > before,
               "%s: insert of present block %#llx", name_.c_str(),
               static_cast<unsigned long long>(block_addr));
    if (evicted)
        evictionsStat_->inc();
}

} // namespace cfl
