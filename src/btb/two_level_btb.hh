/**
 * @file
 * Two-level hierarchical BTB (Section 2.3 / 4.2.2): a 1K-entry first
 * level with 1-cycle access backed by a 16K-entry second level with
 * 4-cycle access. A first-level miss that hits in the second level still
 * supplies the prediction but exposes the second level's latency as a
 * BPU bubble — the timeliness problem Confluence eliminates.
 */

#ifndef CFL_BTB_TWO_LEVEL_BTB_HH
#define CFL_BTB_TWO_LEVEL_BTB_HH

#include "common/assoc.hh"
#include "btb/btb.hh"

namespace cfl
{

/** Two-level BTB configuration. */
struct TwoLevelBtbParams
{
    std::size_t l1Entries = 1024;
    unsigned l1Ways = 4;
    std::size_t l2Entries = 16 * 1024;
    unsigned l2Ways = 4;
    Cycle l2Latency = 4;
};

/** Hierarchical (filter + backing) BTB. */
class TwoLevelBtb final : public Btb
{
  public:
    explicit TwoLevelBtb(const TwoLevelBtbParams &params,
                         std::string name = "btb.2level");

    BtbLookupResult lookup(const DynInst &inst, Cycle now) override;
    void learn(Addr pc, BranchKind kind, Addr target, Cycle now) override;

    /** Sampled-warming path: the 16K-entry second level accumulates
     *  content over far more stream than the full-fidelity window
     *  replays, so it keeps learning while the first level stays
     *  frozen (it turns over fast enough to retrain exactly). */
    void warmTakenBranch(Addr pc, BranchKind kind, Addr target) override;

    const TwoLevelBtbParams &params() const { return params_; }

  private:
    TwoLevelBtbParams params_;
    AssocCache<BtbEntryData> l1_;
    AssocCache<BtbEntryData> l2_;

    // Per-branch counters resolved once (StatSet nodes are stable).
    Stat *lookupsStat_ = &stats_.scalar("lookups");
    Stat *l1HitsStat_ = &stats_.scalar("l1Hits");
    Stat *l1MissesStat_ = &stats_.scalar("l1Misses");
    Stat *l2HitsStat_ = &stats_.scalar("l2Hits");
    Stat *lookupMissesStat_ = &stats_.scalar("lookupMisses");
    Stat *insertsStat_ = &stats_.scalar("inserts");
};

} // namespace cfl

#endif // CFL_BTB_TWO_LEVEL_BTB_HH
