#include "btb/air_btb.hh"

#include "common/bitops.hh"

namespace cfl
{

AirBtb::AirBtb(const AirBtbParams &params, const CodeImage &image,
               const Predecoder &predecoder, std::string name)
    : Btb(std::move(name)),
      params_(params),
      image_(image),
      predecoder_(predecoder),
      // Keyed by block address; skip the 6 block-offset bits.
      bundleStore_(assocSets(params.bundles, params.ways), params.ways,
                   floorLog2(kBlockBytes)),
      overflow_(std::max(1u, params.overflowEntries))
{
    cfl_assert(params.branchEntries >= 1 && params.branchEntries <= 8,
               "branchEntries out of supported range");
}

void
AirBtb::addBranch(Bundle &bundle, Addr block_addr, std::uint8_t offset,
                  BranchKind kind, Addr target)
{
    bundle.bitmap |= static_cast<std::uint16_t>(1u << offset);

    // Already present in the bundle?
    for (unsigned i = 0; i < bundle.count; ++i) {
        if (bundle.entries[i].valid && bundle.entries[i].offset == offset) {
            bundle.entries[i].kind = kind;
            bundle.entries[i].target = target;
            return;
        }
    }

    if (bundle.count < params_.branchEntries) {
        BranchEntry &e = bundle.entries[bundle.count++];
        e.offset = offset;
        e.kind = kind;
        e.target = target;
        e.valid = true;
        return;
    }

    // Bundle full: spill into the overflow buffer (Section 3.1). The
    // bitmap bit stays set so lookups know to probe the overflow buffer.
    if (params_.overflowEntries > 0) {
        overflowInsertsStat_->inc();
        overflow_.insert(block_addr + offset * kInstBytes,
                         BtbEntryData{kind, target});
    } else {
        overflowDroppedStat_->inc();
    }
}

void
AirBtb::insertBundle(const PredecodedBlock &block)
{
    bundleInsertsStat_->inc();
    Bundle bundle;
    // Bundle slots are contended (B entries for up to 16 branches).
    // Predecode can see each branch's displacement sign, so backward
    // branches — loop backedges, overwhelmingly taken (the classic
    // backward-taken/forward-not-taken rule) — claim slots first;
    // forward branches, mostly rarely-taken guards, spill to the
    // overflow buffer where the bitmap still finds them.
    for (const PredecodedBranch &br : block.branches) {
        const bool backward = hasDirectTarget(br.kind) &&
                              br.target <= br.pcIn(block.blockAddr);
        if (backward) {
            addBranch(bundle, block.blockAddr, br.instIndex, br.kind,
                      br.target);
        }
    }
    for (const PredecodedBranch &br : block.branches) {
        const bool backward = hasDirectTarget(br.kind) &&
                              br.target <= br.pcIn(block.blockAddr);
        if (!backward) {
            addBranch(bundle, block.blockAddr, br.instIndex, br.kind,
                      br.target);
        }
    }
    if (bundleStore_.insert(block.blockAddr, bundle))
        bundleEvictionsStat_->inc();
}

BtbLookupResult
AirBtb::lookup(const DynInst &inst, Cycle now)
{
    (void)now;
    BtbLookupResult out;
    lookupsStat_->inc();

    const Addr block_addr = blockAlign(inst.pc);
    Bundle *bundle = bundleStore_.find(block_addr);
    if (bundle == nullptr) {
        bundleMissesStat_->inc();
        return out;
    }

    const unsigned idx = instIndexInBlock(inst.pc);
    if ((bundle->bitmap & (1u << idx)) == 0) {
        // The bitmap says this instruction is not a known branch. With
        // eager predecode this only happens for demand-built bundles that
        // have not learned this branch yet.
        bitmapMissesStat_->inc();
        return out;
    }

    for (unsigned i = 0; i < bundle->count; ++i) {
        const BranchEntry &e = bundle->entries[i];
        if (e.valid && e.offset == idx) {
            out.hit = true;
            out.entry.kind = e.kind;
            out.entry.target = e.target;
            bundleHitsStat_->inc();
            return out;
        }
    }

    // Bitmap bit set but entry not in the bundle: overflow buffer probe.
    if (const BtbEntryData *e = overflow_.find(inst.pc)) {
        out.hit = true;
        out.entry = *e;
        overflowHitsStat_->inc();
        return out;
    }

    overflowMissesStat_->inc();
    return out;
}

void
AirBtb::learn(Addr pc, BranchKind kind, Addr target, Cycle now)
{
    learnsStat_->inc();
    const Addr block_addr = blockAlign(pc);
    const auto offset = static_cast<std::uint8_t>(instIndexInBlock(pc));

    Bundle *bundle = bundleStore_.find(block_addr);
    if (bundle != nullptr) {
        addBranch(*bundle, block_addr, offset, kind, target);
        return;
    }

    if (params_.syncWithL1I) {
        // The bundle store mirrors the L1-I: a missing bundle means the
        // block is not (yet) resident. Request the block fill — the
        // Confluence fill hook will predecode it and install the whole
        // bundle — instead of allocating here, which would evict the
        // bundle of a block that *is* resident.
        learnsDeferredStat_->inc();
        if (fillRequest_)
            fillRequest_(block_addr, now);
        return;
    }

    if (params_.eagerInsert && image_.contains(block_addr)) {
        // Section 3.2: on a BTB miss in an instruction block, AirBTB
        // eagerly identifies all branches in the block and installs the
        // whole bundle.
        insertBundle(predecoder_.scan(image_, block_addr));
        return;
    }

    // Demand-only ("Capacity") mode: allocate an empty bundle and learn
    // just this branch.
    Bundle fresh;
    addBranch(fresh, block_addr, offset, kind, target);
    if (bundleStore_.insert(block_addr, fresh))
        bundleEvictionsStat_->inc();
}

void
AirBtb::onBlockFill(const PredecodedBlock &block, bool from_prefetch,
                    Cycle ready_at)
{
    (void)ready_at;
    if (from_prefetch && !params_.fillFromPrefetch)
        return;
    if (!params_.syncWithL1I && !params_.eagerInsert)
        return;  // pure demand mode learns via learn() only
    if (!params_.eagerInsert) {
        // Sync without eager insertion: allocate an empty bundle so the
        // store mirrors the L1-I even before any branch is learned.
        if (bundleStore_.insert(block.blockAddr, Bundle{}))
            bundleEvictionsStat_->inc();
        return;
    }
    insertBundle(block);
}

void
AirBtb::onBlockEvict(Addr block_addr)
{
    if (!params_.syncWithL1I)
        return;
    if (bundleStore_.invalidate(block_addr))
        bundleSyncEvictionsStat_->inc();
}

} // namespace cfl
