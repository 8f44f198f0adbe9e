#include "btb/two_level_btb.hh"

namespace cfl
{

TwoLevelBtb::TwoLevelBtb(const TwoLevelBtbParams &params, std::string name)
    : Btb(std::move(name)),
      params_(params),
      l1_(assocSets(params.l1Entries, params.l1Ways), params.l1Ways, 2),
      l2_(assocSets(params.l2Entries, params.l2Ways), params.l2Ways, 2)
{
}

BtbLookupResult
TwoLevelBtb::lookup(const DynInst &inst, Cycle now)
{
    (void)now;
    BtbLookupResult out;
    lookupsStat_->inc();

    if (const BtbEntryData *e = l1_.find(inst.pc)) {
        out.hit = true;
        out.entry = *e;
        l1HitsStat_->inc();
        return out;
    }
    l1MissesStat_->inc();

    if (const BtbEntryData *e = l2_.find(inst.pc)) {
        // Second level supplies the prediction after its access latency;
        // the entry is promoted into the first level.
        l2HitsStat_->inc();
        out.hit = true;
        out.entry = *e;
        out.stallCycles = params_.l2Latency;
        l1_.insert(inst.pc, *e);
        return out;
    }

    lookupMissesStat_->inc();
    return out;
}

void
TwoLevelBtb::learn(Addr pc, BranchKind kind, Addr target, Cycle now)
{
    (void)now;
    insertsStat_->inc();
    const BtbEntryData data{kind, target};
    l1_.insert(pc, data);
    l2_.insert(pc, data);
}

void
TwoLevelBtb::warmTakenBranch(Addr pc, BranchKind kind, Addr target)
{
    l2_.insert(pc, BtbEntryData{kind, target});
}

} // namespace cfl
