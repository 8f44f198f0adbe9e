/**
 * @file
 * AirBTB — the block-based BTB of Confluence (Section 3).
 *
 * Organization (Section 3.1): a set-associative store of *bundles*, one
 * per L1-I-resident instruction block. A bundle carries a single tag (the
 * block address), a 16-bit branch bitmap identifying the branch
 * instructions in the block, and a fixed number of branch entries
 * (offset, 2-bit type, target). Blocks whose branch count exceeds the
 * bundle capacity spill into a small fully-associative overflow buffer
 * tagged with full branch PCs.
 *
 * Insertions (Section 3.2) are synchronized with L1-I fills: whenever a
 * block enters the L1-I, the predecoder scans it and the whole set of
 * branch entries is eagerly inserted; the bundle evicted corresponds to
 * the instruction block evicted from the L1-I.
 *
 * The ablation flags reproduce Figure 8's ladder:
 *   - eagerInsert=false, fillFromPrefetch=false, syncWithL1I=false
 *       -> "Capacity": same storage budget, block-shared tags,
 *          demand-only insertion of individual branches;
 *   - +eagerInsert            -> "Spatial Locality";
 *   - +fillFromPrefetch       -> "Prefetching";
 *   - +syncWithL1I            -> "Block-Based Org." (contents mirror the
 *                                L1-I, so bundles of two resident blocks
 *                                never conflict).
 */

#ifndef CFL_BTB_AIR_BTB_HH
#define CFL_BTB_AIR_BTB_HH

#include <array>

#include "common/assoc.hh"
#include "btb/btb.hh"
#include "common/delegate.hh"
#include "isa/code_image.hh"
#include "isa/predecoder.hh"

namespace cfl
{

/** AirBTB configuration (defaults are the paper's final design). */
struct AirBtbParams
{
    std::size_t bundles = 512;   ///< one per L1-I block (32KB / 64B)
    unsigned ways = 4;           ///< matches the L1-I associativity
    unsigned branchEntries = 3;  ///< B in Figure 10
    unsigned overflowEntries = 32;  ///< OB in Figure 10

    bool eagerInsert = true;       ///< predecode + insert whole blocks
    bool fillFromPrefetch = true;  ///< accept prefetched-block fills
    bool syncWithL1I = true;       ///< mirror L1-I insertions/evictions
};

/** Block-based BTB with eager insertion. */
class AirBtb final : public Btb
{
  public:
    /** @param image code image the private predecoder scans
     *  @param predecoder shared predecode logic */
    AirBtb(const AirBtbParams &params, const CodeImage &image,
           const Predecoder &predecoder, std::string name = "btb.air");

    BtbLookupResult lookup(const DynInst &inst, Cycle now) override;
    void learn(Addr pc, BranchKind kind, Addr target, Cycle now) override;

    void onBlockFill(const PredecodedBlock &block, bool from_prefetch,
                     Cycle ready_at) override;
    void onBlockEvict(Addr block_addr) override;
    bool wantsBlockHooks() const override { return true; }

    /**
     * Callback requesting an instruction-block fill. In Confluence a
     * BTB miss in a non-resident block doubles as an L1-I prefetch
     * trigger: the redirect target's block is pulled in, predecoded,
     * and its whole bundle installed — so a stream gap costs one miss
     * per block, not one per branch (Sections 3.2-3.3). The hook fires
     * on the per-branch path, so it is a two-word Delegate, not a
     * std::function.
     */
    using FillRequest = Delegate<void(Addr block_addr, Cycle now)>;

    void setFillRequest(FillRequest fn) { fillRequest_ = fn; }

    const AirBtbParams &params() const { return params_; }

    /** Number of resident bundles (tests/checkers). */
    std::size_t numBundles() const { return bundleStore_.size(); }

  private:
    /** One branch entry inside a bundle. */
    struct BranchEntry
    {
        std::uint8_t offset = 0;  ///< instruction index within the block
        BranchKind kind = BranchKind::None;
        Addr target = 0;
        bool valid = false;
    };

    /** A bundle: branch bitmap + fixed-size entry array. */
    struct Bundle
    {
        std::uint16_t bitmap = 0;
        std::array<BranchEntry, 8> entries{};  ///< first branchEntries used
        unsigned count = 0;
    };

    /** Insert a predecoded block as a bundle (eager path). */
    void insertBundle(const PredecodedBlock &block);

    /** Add one branch to an existing bundle or the overflow buffer. */
    void addBranch(Bundle &bundle, Addr block_addr, std::uint8_t offset,
                   BranchKind kind, Addr target);

    AirBtbParams params_;
    const CodeImage &image_;
    const Predecoder &predecoder_;

    AssocCache<Bundle> bundleStore_;       ///< keyed by block address
    AssocCache<BtbEntryData> overflow_;    ///< keyed by branch PC
    FillRequest fillRequest_;

    // Per-branch-path counters resolved once (StatSet nodes are stable).
    Stat *overflowInsertsStat_ = &stats_.scalar("overflowInserts");
    Stat *overflowDroppedStat_ = &stats_.scalar("overflowDropped");
    Stat *bundleInsertsStat_ = &stats_.scalar("bundleInserts");
    Stat *bundleEvictionsStat_ = &stats_.scalar("bundleEvictions");
    Stat *learnsStat_ = &stats_.scalar("learns");
    Stat *learnsDeferredStat_ = &stats_.scalar("learnsDeferredToFill");
    Stat *bundleSyncEvictionsStat_ = &stats_.scalar("bundleSyncEvictions");
    Stat *lookupsStat_ = &stats_.scalar("lookups");
    Stat *bundleHitsStat_ = &stats_.scalar("bundleHits");
    Stat *bundleMissesStat_ = &stats_.scalar("bundleMisses");
    Stat *bitmapMissesStat_ = &stats_.scalar("bitmapMisses");
    Stat *overflowHitsStat_ = &stats_.scalar("overflowHits");
    Stat *overflowMissesStat_ = &stats_.scalar("overflowMisses");
};

} // namespace cfl

#endif // CFL_BTB_AIR_BTB_HH
