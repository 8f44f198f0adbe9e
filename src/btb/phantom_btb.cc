#include "btb/phantom_btb.hh"

namespace cfl
{

PhantomSharedHistory::PhantomSharedHistory(const PhantomBtbParams &params)
    : params_(params),
      // The virtualized table is a direct-mapped-ish region-indexed store
      // bounded at numGroups LLC blocks; 8 ways balances conflict churn.
      groups_(assocSets(params.numGroups, 8), 8, 0),
      forming_(64)
{
    cfl_assert(params.groupSize <= PhantomGroup::kMaxEntries,
               "groupSize exceeds inline group capacity");
}

std::uint64_t
PhantomSharedHistory::regionOf(Addr pc) const
{
    return pc / (params_.regionInsts * kInstBytes);
}

const PhantomGroup *
PhantomSharedHistory::findGroup(std::uint64_t region) const
{
    return groups_.peek(region);
}

void
PhantomSharedHistory::commitGroup(std::uint64_t trigger_region,
                                  PhantomGroup group)
{
    groups_.insert(trigger_region, std::move(group));
}

void
PhantomSharedHistory::recordMiss(unsigned core_id, Addr pc,
                                 const BtbEntryData &entry)
{
    cfl_assert(core_id < forming_.size(), "core id out of range");
    Forming &f = forming_[core_id];

    if (!f.open) {
        f.open = true;
        f.triggerRegion = regionOf(pc);
        f.group.entries.clear();
    }
    f.group.entries.emplace_back(pc, entry);

    if (f.group.entries.size() >= params_.groupSize) {
        commitGroup(f.triggerRegion, std::move(f.group));
        f = Forming{};
    }
}

PhantomBtb::PhantomBtb(const PhantomBtbParams &params,
                       std::shared_ptr<PhantomSharedHistory> history,
                       unsigned core_id, std::string name)
    : Btb(std::move(name)),
      params_(params),
      history_(std::move(history)),
      coreId_(core_id),
      l1_(assocSets(params.l1Entries, params.l1Ways), params.l1Ways, 2),
      prefetchBuffer_(params.prefetchBufferEntries)
{
    cfl_assert(history_ != nullptr, "PhantomBtb needs a shared history");
}

void
PhantomBtb::drainArrivals(Cycle now)
{
    while (!pending_.empty() && pending_.front().arriveAt <= now) {
        for (const auto &[pc, entry] : pending_.front().group.entries)
            prefetchBuffer_.insert(pc, entry);
        groupArrivalsStat_->inc();
        pending_.pop_front();
    }
}

BtbLookupResult
PhantomBtb::lookup(const DynInst &inst, Cycle now)
{
    BtbLookupResult out;
    lookupsStat_->inc();
    drainArrivals(now);

    if (const BtbEntryData *e = l1_.find(inst.pc)) {
        out.hit = true;
        out.entry = *e;
        l1HitsStat_->inc();
        return out;
    }

    if (auto from_pb = prefetchBuffer_.invalidate(inst.pc)) {
        // Prefetch-buffer hit: promote into the first level.
        prefetchBufferHitsStat_->inc();
        out.hit = true;
        out.entry = *from_pb;
        l1_.insert(inst.pc, *from_pb);
        return out;
    }

    lookupMissesStat_->inc();

    // Miss: trigger a group prefetch from the virtualized second level.
    const std::uint64_t region = history_->regionOf(inst.pc);
    if (region != lastTriggerRegion_) {
        lastTriggerRegion_ = region;
        if (const PhantomGroup *group = history_->findGroup(region)) {
            groupTriggersStat_->inc();
            PendingGroup pg;
            pg.arriveAt = now + params_.llcLatency;
            pg.group = *group;
            pending_.push_back(pg);
        } else {
            groupTriggerMissesStat_->inc();
        }
    }

    return out;
}

void
PhantomBtb::learn(Addr pc, BranchKind kind, Addr target, Cycle now)
{
    (void)now;
    insertsStat_->inc();
    const BtbEntryData data{kind, target};
    l1_.insert(pc, data);
    // Temporal-group formation over the stream of first-level misses.
    history_->recordMiss(coreId_, pc, data);
}

void
PhantomBtb::warmTakenBranch(Addr pc, BranchKind kind, Addr target)
{
    // Miss-driven like learn(): only branches absent from the first
    // level extend the temporal-group history, matching the detailed
    // path's miss stream.
    if (l1_.find(pc, /*update_lru=*/false) != nullptr)
        return;
    const BtbEntryData data{kind, target};
    l1_.insert(pc, data);
    history_->recordMiss(coreId_, pc, data);
}

} // namespace cfl
