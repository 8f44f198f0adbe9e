/**
 * @file
 * Conventional set-associative BTB with an optional fully-associative
 * victim buffer (Section 4.2.2).
 *
 * The paper's baseline is a 1K-entry, 4-way BTB with a 64-entry victim
 * buffer (9.9KB, 1-cycle). The same class with 16K entries and no victim
 * buffer is the "16K BTB" of Figure 9 and the "IdealBTB" (1-cycle 16K) of
 * Figure 7.
 */

#ifndef CFL_BTB_CONVENTIONAL_BTB_HH
#define CFL_BTB_CONVENTIONAL_BTB_HH

#include <memory>

#include "common/assoc.hh"
#include "btb/btb.hh"

namespace cfl
{

/** Conventional BTB configuration. */
struct ConventionalBtbParams
{
    std::size_t entries = 1024;
    unsigned ways = 4;
    unsigned victimEntries = 64;  ///< 0 disables the victim buffer
};

/** Conventional per-branch-PC BTB. */
class ConventionalBtb final : public Btb
{
  public:
    explicit ConventionalBtb(const ConventionalBtbParams &params,
                             std::string name = "btb.conv");

    BtbLookupResult lookup(const DynInst &inst, Cycle now) override;
    void learn(Addr pc, BranchKind kind, Addr target, Cycle now) override;

    /** Number of valid entries (main + victim). */
    std::size_t size() const;

    const ConventionalBtbParams &params() const { return params_; }

  private:
    ConventionalBtbParams params_;

    // Per-branch counters resolved once (StatSet nodes are stable).
    Stat *lookupsStat_ = &stats_.scalar("lookups");
    Stat *mainHitsStat_ = &stats_.scalar("mainHits");
    Stat *victimHitsStat_ = &stats_.scalar("victimHits");
    Stat *lookupMissesStat_ = &stats_.scalar("lookupMisses");
    Stat *insertsStat_ = &stats_.scalar("inserts");
    AssocCache<BtbEntryData> main_;
    std::unique_ptr<AssocCache<BtbEntryData>> victim_;
};

} // namespace cfl

#endif // CFL_BTB_CONVENTIONAL_BTB_HH
