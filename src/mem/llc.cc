#include "mem/llc.hh"

#include "common/logging.hh"

namespace cfl
{

namespace
{

std::uint64_t
unreservedBytes(const LlcParams &params, std::uint64_t reserved_bytes)
{
    const std::uint64_t nominal = params.perCoreBytes * params.numCores;
    cfl_assert(reserved_bytes < nominal,
               "llc: reservation of %llu bytes exceeds capacity",
               static_cast<unsigned long long>(reserved_bytes));
    return nominal - reserved_bytes;
}

} // namespace

Llc::Llc(const LlcParams &params, std::uint64_t reserved_bytes)
    : params_(params),
      noc_(params.numCores, params.nocCyclesPerHop),
      cache_("llc", unreservedBytes(params, reserved_bytes), params.ways),
      roundTrip_(noc_.averageRoundTrip() + params.bankHitLatency)
{
}

Llc::Access
Llc::access(Addr block_addr)
{
    Access out;
    out.hit = cache_.access(block_addr);
    if (out.hit) {
        out.latency = hitLatency();
    } else {
        out.latency = missLatency();
        cache_.insert(block_addr);
    }
    return out;
}

} // namespace cfl
