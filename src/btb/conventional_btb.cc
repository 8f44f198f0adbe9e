#include "btb/conventional_btb.hh"

namespace cfl
{

ConventionalBtb::ConventionalBtb(const ConventionalBtbParams &params,
                                 std::string name)
    : Btb(std::move(name)),
      params_(params),
      // Keys are branch PCs; skip the 2 byte-offset bits when indexing.
      main_(assocSets(params.entries, params.ways), params.ways, 2)
{
    if (params.victimEntries > 0) {
        victim_ = std::make_unique<AssocCache<BtbEntryData>>(
            1, params.victimEntries, 0);
    }
}

BtbLookupResult
ConventionalBtb::lookup(const DynInst &inst, Cycle now)
{
    (void)now;
    BtbLookupResult out;
    lookupsStat_->inc();

    if (const BtbEntryData *e = main_.find(inst.pc)) {
        out.hit = true;
        out.entry = *e;
        mainHitsStat_->inc();
        return out;
    }

    if (victim_ != nullptr) {
        if (auto victim_entry = victim_->invalidate(inst.pc)) {
            // Victim hit: swap back into the main table.
            victimHitsStat_->inc();
            out.hit = true;
            out.entry = *victim_entry;
            if (auto evicted = main_.insert(inst.pc, *victim_entry))
                victim_->insert(evicted->first, evicted->second);
            return out;
        }
    }

    lookupMissesStat_->inc();
    return out;
}

void
ConventionalBtb::learn(Addr pc, BranchKind kind, Addr target, Cycle now)
{
    (void)now;
    insertsStat_->inc();
    const BtbEntryData data{kind, target};
    if (auto evicted = main_.insert(pc, data)) {
        if (victim_ != nullptr)
            victim_->insert(evicted->first, evicted->second);
    }
}

std::size_t
ConventionalBtb::size() const
{
    return main_.size() + (victim_ != nullptr ? victim_->size() : 0);
}

} // namespace cfl
