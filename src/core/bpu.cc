#include "core/bpu.hh"

#include "common/logging.hh"

namespace cfl
{

std::vector<Addr>
FetchRegion::blocks() const
{
    std::vector<Addr> out;
    for (const Addr b : blockRange())
        out.push_back(b);
    return out;
}

Bpu::Bpu(const BpuParams &params, Btb &btb, DirectionPredictor &direction,
         ReturnAddressStack &ras, IndirectTargetCache &itc,
         ExecEngine &engine, InstMemory *mem)
    : params_(params),
      btb_(btb),
      direction_(direction),
      hybridDir_(dynamic_cast<HybridPredictor *>(&direction)),
      ras_(ras),
      itc_(itc),
      engine_(engine),
      mem_(mem),
      instsStat_(&stats_.scalar("insts")),
      branchesStat_(&stats_.scalar("branches")),
      takenLookupsStat_(&stats_.scalar("takenBranchLookups")),
      regionCapEndsStat_(&stats_.scalar("regionCapEnds")),
      btbL2StallStat_(&stats_.scalar("btbLevel2StallCycles")),
      btbTakenMissesStat_(&stats_.scalar("btbTakenMisses")),
      misfetchesStat_(&stats_.scalar("misfetches")),
      condMispredictsStat_(&stats_.scalar("condMispredicts")),
      rasMispredictsStat_(&stats_.scalar("rasMispredicts")),
      indirectMispredictsStat_(&stats_.scalar("indirectMispredicts"))
{
}

void
Bpu::resolveMisfetchedBranch(const DynInst &inst, Cycle now)
{
    // Decode discovers the branch; execute resolves it. Keep the
    // speculative structures consistent and install the entry so the
    // next encounter hits (taken branches only: a BTB holds targets of
    // taken branches).
    if (inst.kind == BranchKind::Cond)
        direction_.update(inst.pc, inst.taken);
    if (isCall(inst.kind))
        ras_.push(inst.fallThrough());
    if (inst.kind == BranchKind::Return)
        (void)ras_.pop();
    if (usesIndirectPredictor(inst.kind))
        itc_.update(inst.pc, inst.target);
    if (inst.taken) {
        btb_.learn(inst.pc, inst.kind,
                   hasDirectTarget(inst.kind) ? inst.target : 0, now);
        // The decode redirect restarts fetch at the target: its block
        // fill begins now, overlapping the misfetch bubble.
        if (mem_ != nullptr) {
            const Addr target_block = blockAlign(inst.target);
            if (!mem_->residentOrInFlight(target_block))
                mem_->prefetch(target_block, now);
        }
    }
}

BpuResult
Bpu::predictNextRegion(Cycle now)
{
    // Virtual-dispatch entry point; the typed core runner calls
    // predictNextRegionT<ConcreteBtb> directly.
    return predictNextRegionT<Btb>(now);
}

Counter
Bpu::touchStream(Counter insts, InstMemory &mem, InstPrefetcher *pf,
                 Cycle &now)
{
    // The last region starts before insts and holds at most
    // maxRegionInsts instructions, so the walk never runs off the buffer.
    const unsigned max_insts = params_.maxRegionInsts;
    TraceCursor &cursor = engine_.cursor(insts + max_insts);
    const std::uint64_t start = cursor.position();
    // Consecutive regions usually stay inside one block; a repeated
    // probe of the block just touched is a hit that re-marks an
    // already-MRU line, so eliding it leaves cache state identical.
    Addr last_block = ~Addr{0};
    DynInst inst;

    while (cursor.position() - start < insts) {
        const Addr start_pc = cursor.pc();
        unsigned ninsts = 0;
        // Regions split at taken branches and the detailed-mode length
        // cap; the touched block stream is identical either way. Every
        // consumed branch warms the per-branch predictor state
        // (warmBranch); taken branches additionally feed the BTB's
        // large-backing-level hook (see Btb::warmTakenBranch).
        while (true) {
            const std::uint64_t gap = cursor.toBranch();
            const unsigned room = max_insts - ninsts;
            if (gap >= room) {
                ninsts += room;
                cursor.advance(room);
                break;
            }
            ninsts += static_cast<unsigned>(gap) + 1;
            cursor.advance(gap);
            cursor.takeBranch(inst);
            if (!inst.taken) {
                // Not-taken ⇒ conditional: the direction predictor is
                // the only per-branch state it updates (see
                // warmBranch).
                warmDirection(inst.pc, false);
                if (ninsts >= max_insts)
                    break;
                continue;
            }
            warmBranch(inst);
            break;
        }

        // Content-only memory warming: demand touches install the same
        // blocks as detailed fetch, and the prefetcher's warm hook
        // replays its content effects (fills, pollution, recorded
        // metadata) without any timing state.
        const BlockRange blocks = blockRangeOf(start_pc, ninsts);
        for (const Addr block : blocks) {
            if (block == last_block)
                continue;
            last_block = block;
            const bool hit = mem.warmTouch(block, now);
            if (pf != nullptr)
                pf->onWarmAccess(block, now, /*miss=*/!hit);
        }
        now += ninsts;
    }

    const Counter consumed = cursor.position() - start;
    instsStat_->inc(consumed);
    return consumed;
}

void
Bpu::warmBranch(const DynInst &inst)
{
    // Mirror handleBranch's per-branch state updates without any BTB
    // lookup or timing. These structures are updated on *every*
    // encounter in the detailed path (no lookup-driven recency to
    // distort), and the direction predictor's history/meta state feeds
    // the misprediction rate that FDP's error EWMA integrates over
    // ~20k instructions — longer than the full-fidelity window — so
    // leaving them frozen turns each window's relearn storm into a
    // persistent prefetch-throttle bias.
    switch (inst.kind) {
      case BranchKind::Cond:
        warmDirection(inst.pc, inst.taken);
        break;
      case BranchKind::Call:
        ras_.push(inst.fallThrough());
        break;
      case BranchKind::Return:
        (void)ras_.pop();
        break;
      case BranchKind::IndJump:
      case BranchKind::IndCall:
        itc_.update(inst.pc, inst.target);
        if (isCall(inst.kind))
            ras_.push(inst.fallThrough());
        break;
      case BranchKind::Uncond:
      case BranchKind::None:
        break;
    }
    if (inst.taken)
        btb_.warmTakenBranch(inst.pc, inst.kind,
                             hasDirectTarget(inst.kind) ? inst.target : 0);
}

void
Bpu::skipStream(Counter insts, Cycle &now)
{
    engine_.fastForward(insts);
    instsStat_->inc(insts);
    now += insts;
}

} // namespace cfl
