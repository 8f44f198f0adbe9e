/**
 * @file
 * 2D-mesh on-chip network latency model (Table 1: 4x4 mesh, 3 cycles per
 * hop). The front-end model needs average request/response latencies, not
 * per-flit contention, so the NoC is a closed-form hop-count model over
 * uniformly distributed (core, LLC bank) pairs.
 */

#ifndef CFL_MEM_NOC_HH
#define CFL_MEM_NOC_HH

#include "common/types.hh"

namespace cfl
{

/** Mesh latency model. */
class MeshNoc
{
  public:
    /** @param num_nodes tiles in the mesh (cores; banks are co-located)
     *  @param cycles_per_hop link+router latency per hop */
    explicit MeshNoc(unsigned num_nodes, unsigned cycles_per_hop = 3);

    unsigned width() const { return width_; }
    unsigned height() const { return height_; }

    /** Manhattan hop count between two tiles. */
    unsigned hops(unsigned from, unsigned to) const;

    /** Average hop count between uniform random distinct tile pairs. */
    double averageHops() const;

    /** One-way latency between two tiles. */
    Cycle latency(unsigned from, unsigned to) const;

    /** Average one-way latency (uniform traffic), rounded to a cycle. */
    Cycle averageOneWay() const;

    /** Average round-trip latency (request + response). */
    Cycle averageRoundTrip() const;

  private:
    unsigned numNodes_;
    unsigned width_;
    unsigned height_;
    unsigned cyclesPerHop_;
};

} // namespace cfl

#endif // CFL_MEM_NOC_HH
