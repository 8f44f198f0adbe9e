/**
 * @file
 * Shared NUCA last-level cache (Table 1: 512KB per core, 16-way, 64B
 * blocks, 16 banks, 6-cycle bank hit latency) fronted by the mesh NoC and
 * backed by main memory (45ns).
 *
 * The LLC is shared by all cores of the CMP; because every core runs the
 * same server binary, instruction blocks installed by one core hit for
 * all others — the effect SHIFT's shared history piggybacks on.
 *
 * Virtualized predictor metadata (SHIFT's history buffer, PhantomBTB's
 * temporal groups) reserves LLC capacity, fixed when the LLC is built,
 * and pays the LLC round-trip latency (hitLatency()) for metadata reads.
 */

#ifndef CFL_MEM_LLC_HH
#define CFL_MEM_LLC_HH

#include <memory>
#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/noc.hh"

namespace cfl
{

/** LLC configuration. */
struct LlcParams
{
    std::uint64_t perCoreBytes = 512 * 1024;
    unsigned ways = 16;
    Cycle bankHitLatency = 6;
    Cycle memoryLatency = 135;  ///< 45ns at 3GHz
    unsigned numCores = 16;
    unsigned nocCyclesPerHop = 3;
};

/** Shared LLC with NUCA latency model. */
class Llc
{
  public:
    /** @param reserved_bytes capacity reserved for virtualized
     *         predictor metadata; the tag array models the rest */
    explicit Llc(const LlcParams &params, std::uint64_t reserved_bytes = 0);

    /** Outcome of an LLC access. */
    struct Access
    {
        bool hit = false;
        Cycle latency = 0;  ///< request to data-back, including NoC
    };

    /**
     * Access a block on behalf of a core; misses fill from memory (and
     * install the block).
     */
    Access access(Addr block_addr);

    /** Average LLC hit latency (NoC round trip + bank access). */
    Cycle hitLatency() const { return roundTrip_; }

    /** Latency of an LLC miss (hit latency + memory). */
    Cycle missLatency() const { return roundTrip_ + params_.memoryLatency; }

    const LlcParams &params() const { return params_; }
    const MeshNoc &noc() const { return noc_; }
    Cache &cache() { return cache_; }
    const StatSet &stats() const { return cache_.stats(); }

  private:
    LlcParams params_;
    MeshNoc noc_;
    Cache cache_;
    Cycle roundTrip_;
};

} // namespace cfl

#endif // CFL_MEM_LLC_HH
