/**
 * @file
 * Common branch-target-buffer interface implemented by every design the
 * paper compares: conventional (1K/16K), two-level, PhantomBTB, AirBTB,
 * and the perfect BTB of the Ideal front-end.
 *
 * Semantics shared by all designs:
 *
 *  - lookup() is called by the branch prediction unit for each branch it
 *    reaches while building a fetch region. A hit supplies the branch's
 *    kind and (for direct branches) target; return/indirect targets come
 *    from the RAS/ITC. `stallCycles` charges BPU bubbles exposed by
 *    slower backing levels (e.g. the 4-cycle second-level BTB).
 *  - learn() is called when decode discovers a branch the BTB did not
 *    supply (misfetch resolution) so the design can install/refresh it.
 *  - onBlockFill()/onBlockEvict() are the Confluence synchronization
 *    hooks: AirBTB mirrors L1-I insertions and evictions (Section 3.2).
 *
 * The paper counts a BTB miss only when the lookup is for a branch that
 * is actually taken (Section 2.1); that accounting lives in the BPU, not
 * here.
 */

#ifndef CFL_BTB_BTB_HH
#define CFL_BTB_BTB_HH

#include <string>

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/inst.hh"
#include "isa/predecoder.hh"

namespace cfl
{

/** Payload of a BTB entry. */
struct BtbEntryData
{
    BranchKind kind = BranchKind::None;
    Addr target = 0;  ///< valid only for direct branches

    bool operator==(const BtbEntryData &) const = default;
};

/** Result of a BTB probe. */
struct BtbLookupResult
{
    bool hit = false;
    BtbEntryData entry{};
    Cycle stallCycles = 0;  ///< BPU bubble exposed by this lookup
};

/** Abstract BTB. */
class Btb
{
  public:
    explicit Btb(std::string name) : stats_(std::move(name)) {}
    virtual ~Btb() = default;

    Btb(const Btb &) = delete;
    Btb &operator=(const Btb &) = delete;

    /**
     * Probe for the branch at @p inst.pc at time @p now.
     *
     * @p inst carries the oracle record for this branch; implementations
     * other than PerfectBtb must consult only inst.pc.
     */
    virtual BtbLookupResult lookup(const DynInst &inst, Cycle now) = 0;

    /** Install/refresh the entry for a decoded branch. */
    virtual void learn(Addr pc, BranchKind kind, Addr target, Cycle now) = 0;

    /**
     * Touch-only warming (sampled fast-forward): one taken branch of
     * the architectural stream. Designs with a backing level much
     * larger than the first (the two-level BTB's second level) install
     * into that level here, because its content accumulates over far
     * more stream than the full-fidelity warming window replays.
     * Small structures do nothing: their content turns over fast
     * enough that the full-fidelity window retrains them exactly, and
     * warming them here with install-always would distort the
     * lookup-driven recency order detailed mode produces.
     */
    virtual void warmTakenBranch(Addr pc, BranchKind kind, Addr target)
    {
        (void)pc;
        (void)kind;
        (void)target;
    }

    /** L1-I fill notification (AirBTB bundle insertion). */
    virtual void
    onBlockFill(const PredecodedBlock &block, bool from_prefetch,
                Cycle ready_at)
    {
        (void)block;
        (void)from_prefetch;
        (void)ready_at;
    }

    /** L1-I eviction notification (AirBTB bundle eviction). */
    virtual void onBlockEvict(Addr block_addr) { (void)block_addr; }

    /** True if the design consumes the L1-I fill/evict hooks. */
    virtual bool wantsBlockHooks() const { return false; }

    /** Design name for reports. */
    const std::string &name() const { return stats_.name(); }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

  protected:
    StatSet stats_;
};

} // namespace cfl

#endif // CFL_BTB_BTB_HH
