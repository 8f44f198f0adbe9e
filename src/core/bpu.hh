/**
 * @file
 * Branch prediction unit: the decoupled front-end component that emits
 * one fetch region (basic block) per cycle into the fetch queue
 * (Table 1 / Section 4.1).
 *
 * The BPU walks the oracle instruction stream and, at every branch,
 * performs the same lookups hardware would: BTB for branch identity and
 * direct targets, direction predictor for conditionals, RAS for returns,
 * ITC for indirects. Prediction events map to penalties:
 *
 *  - BTB miss on an actually-taken branch -> *misfetch*: the sequential
 *    fetch region is wrong, discovered in the first decode stage, costing
 *    a 4-cycle bubble (Section 4.1); the branch is learned at resolution.
 *  - direction / return / indirect target misprediction -> pipeline
 *    flush penalty (resolved at execute).
 *  - first-level BTB miss satisfied by a slower second level -> the
 *    second level's access latency as a BPU bubble (`stallCycles` from
 *    the BTB), the timeliness cost Confluence eliminates (Section 5.1).
 *
 * Because the model immediately re-synchronizes to the oracle path after
 * any mispredict, wrong-path fetch is represented by these bubbles rather
 * than simulated instruction-by-instruction — the standard trace-driven
 * front-end simplification.
 */

#ifndef CFL_CORE_BPU_HH
#define CFL_CORE_BPU_HH

#include <algorithm>
#include <vector>

#include "branch/direction.hh"
#include "branch/indirect.hh"
#include "branch/ras.hh"
#include "btb/btb.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "mem/hierarchy.hh"
#include "prefetch/prefetcher.hh"
#include "trace/engine.hh"

namespace cfl
{

/** BPU tunables (Table 1 / Section 4.1 defaults). */
struct BpuParams
{
    unsigned maxRegionInsts = 16;   ///< fetch-region length cap
    unsigned misfetchPenalty = 4;   ///< decode-stage redirect
    unsigned mispredictPenalty = 12; ///< execute-stage redirect
};

/** A fetch region: consecutive instructions ending at a taken branch. */
struct FetchRegion
{
    Addr startPc = 0;
    unsigned numInsts = 0;
    unsigned numBranches = 0;  ///< branch predictions made in this region

    /**
     * Pipeline bubble delivered *after* this region's instructions: the
     * squash/redirect cost of a misfetch (decode-stage) or misprediction
     * (execute-stage) ending the region. Charged at the fetch unit when
     * the region finishes, because the wrong-path slots travel through
     * the pipe regardless of fetch-queue occupancy.
     */
    Cycle deliveryBubble = 0;

    /** Blocks the region spans, in fetch order, as an allocation-free
     *  value range (regions always cover consecutive blocks). */
    BlockRange blockRange() const
    {
        return blockRangeOf(startPc, numInsts);
    }

    /** Block addresses as a vector (tests/analysis; the hot path uses
     *  blockRange()). */
    std::vector<Addr> blocks() const;
};

/** Result of one BPU prediction cycle. */
struct BpuResult
{
    FetchRegion region;
    Cycle stall = 0;       ///< BPU bubble (second-level BTB access)
    bool misfetch = false;
    bool mispredict = false;
};

/** The decoupled branch prediction unit. */
class Bpu
{
  public:
    /**
     * @param mem optional instruction memory: on a misfetch the decode
     *        redirect immediately restarts instruction fetch at the
     *        branch target, so the target's block fill begins during
     *        the misfetch bubble rather than when the fetch unit drains
     *        the queue to it.
     */
    Bpu(const BpuParams &params, Btb &btb, DirectionPredictor &direction,
        ReturnAddressStack &ras, IndirectTargetCache &itc,
        ExecEngine &engine, InstMemory *mem = nullptr);

    /**
     * Produce the next fetch region by walking the oracle stream, with
     * the BTB's type known at compile time: for a concrete BTB the
     * per-branch lookup devirtualizes; BtbT = Btb dispatches virtually,
     * with bit-identical results. Steps the engine's TraceCursor branch
     * to branch instead of materializing every non-branch instruction.
     */
    template <typename BtbT>
    BpuResult predictNextRegionT(Cycle now);

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

    /** Oracle instructions consumed so far. */
    Counter instsConsumed() const { return stats_.get("insts"); }

    /**
     * Touch-only functional advance of ~@p insts instructions (sampled
     * fast-forward, far from any measured interval): regions are
     * derived from the stream's taken branches and their blocks
     * touched in @p mem, with @p pf seeing each block transition
     * through onWarmAccess — so long-lived state (L1-I/LLC content,
     * recorded prefetch metadata) sees every access. Per-branch
     * predictor state (direction predictor, RAS, ITC, the BTB's large
     * backing levels) is kept warm through warmBranch; no BTB lookups,
     * misprediction accounting, or speculative prefetch-engine
     * activity happens — those are short-lived and relearned by the
     * full-fidelity warming window that always follows. @p now
     * advances ~1 inst/cycle like fastForward. The walk steps the
     * engine's TraceCursor branch to branch and overshoots by less
     * than one region; returns instructions consumed.
     */
    Counter touchStream(Counter insts, InstMemory &mem,
                        InstPrefetcher *pf, Cycle &now);

    /**
     * Pure stream skip of @p insts instructions: the engine's cursor
     * seeks through the trace's checkpoints with no state touched at
     * all — not even cache content. Used by sampled fast-forward for
     * stream distance beyond the touch window, where even content
     * warming is unnecessary (everything the skipped stretch would
     * install is re-installed by the touch window that always
     * follows). @p now advances ~1 inst/cycle.
     */
    void skipStream(Counter insts, Cycle &now);

  private:
    /**
     * Predict/train on one branch instruction; returns true when the
     * branch ends the region (taken, misfetch, or mispredict).
     */
    template <typename BtbT>
    bool handleBranch(const DynInst &inst, Cycle now, BpuResult &out);

    /** Resolution-time side effects of a branch the BPU did not predict
     *  (misfetch): trains predictors, fixes RAS/ITC, learns the BTB. */
    void resolveMisfetchedBranch(const DynInst &inst, Cycle now);

    /** Touch-tier per-branch warming: direction predictor, RAS, ITC,
     *  and the BTB's large-backing-level hook — no lookups, no timing.
     *  See the definition for why freezing these biases FDP. */
    void warmBranch(const DynInst &inst);

    /** Direction-predictor warming: predict() then update(), as on the
     *  (dominant) BTB-hit path — refreshes the component predictions
     *  meta trains on and advances the gshare history. Uses the fused
     *  non-virtual HybridPredictor::warm when available (always, in
     *  practice: every preset builds a HybridPredictor). */
    void
    warmDirection(Addr pc, bool outcome)
    {
        if (hybridDir_ != nullptr) {
            hybridDir_->warm(pc, outcome);
        } else {
            (void)direction_.predict(pc);
            direction_.update(pc, outcome);
        }
    }

    BpuParams params_;
    Btb &btb_;
    DirectionPredictor &direction_;
    /** Concrete type of direction_ when it is the standard hybrid —
     *  warming fast path only; never used on the measured path. */
    HybridPredictor *hybridDir_ = nullptr;
    ReturnAddressStack &ras_;
    IndirectTargetCache &itc_;
    ExecEngine &engine_;
    InstMemory *mem_;
    StatSet stats_{"bpu"};

    // Per-instruction counters resolved once (StatSet nodes are stable).
    Stat *instsStat_;
    Stat *branchesStat_;
    Stat *takenLookupsStat_;
    Stat *regionCapEndsStat_;
    Stat *btbL2StallStat_;
    Stat *btbTakenMissesStat_;
    Stat *misfetchesStat_;
    Stat *condMispredictsStat_;
    Stat *rasMispredictsStat_;
    Stat *indirectMispredictsStat_;
};

template <typename BtbT>
inline bool
Bpu::handleBranch(const DynInst &inst, Cycle now, BpuResult &out)
{
    branchesStat_->inc();
    ++out.region.numBranches;
    if (inst.taken)
        takenLookupsStat_->inc();

    const BtbLookupResult btb =
        static_cast<BtbT &>(btb_).lookup(inst, now);
    out.stall += btb.stallCycles;
    if (btb.stallCycles > 0)
        btbL2StallStat_->inc(btb.stallCycles);

    if (!btb.hit) {
        if (!inst.taken) {
            // The BTB cannot even identify this instruction as a
            // branch, so fetch falls through — which is correct.
            // Decode still trains the direction predictor.
            if (inst.kind == BranchKind::Cond)
                direction_.update(inst.pc, inst.taken);
            return false;
        }

        // Actually-taken branch absent from the BTB: the sequential
        // fetch region is wrong (misfetch). Paper Section 2.1: this
        // is the BTB-miss event.
        btbTakenMissesStat_->inc();
        misfetchesStat_->inc();
        resolveMisfetchedBranch(inst, now);
        out.misfetch = true;
        out.region.deliveryBubble += params_.misfetchPenalty;
        return true;
    }

    // BTB hit: predict with the full prediction unit.
    switch (inst.kind) {
      case BranchKind::Cond: {
        const bool predicted_taken = direction_.predict(inst.pc);
        direction_.update(inst.pc, inst.taken);
        if (predicted_taken != inst.taken) {
            condMispredictsStat_->inc();
            out.mispredict = true;
            out.region.deliveryBubble += params_.mispredictPenalty;
            return true;
        }
        // Correctly predicted taken ends the region (direct target from
        // the BTB entry is exact); not-taken keeps walking.
        return inst.taken;
      }

      case BranchKind::Uncond:
        return true;

      case BranchKind::Call:
        ras_.push(inst.fallThrough());
        return true;

      case BranchKind::Return: {
        const Addr predicted = ras_.pop();
        if (predicted != inst.target) {
            rasMispredictsStat_->inc();
            out.mispredict = true;
            out.region.deliveryBubble += params_.mispredictPenalty;
        }
        return true;
      }

      case BranchKind::IndJump:
      case BranchKind::IndCall: {
        const Addr predicted = itc_.predict(inst.pc);
        itc_.update(inst.pc, inst.target);
        if (isCall(inst.kind))
            ras_.push(inst.fallThrough());
        if (predicted != inst.target) {
            indirectMispredictsStat_->inc();
            out.mispredict = true;
            out.region.deliveryBubble += params_.mispredictPenalty;
        }
        return true;
      }

      case BranchKind::None:
        cfl_panic("branch with kind None");
    }
    return true; // unreachable
}

template <typename BtbT>
inline BpuResult
Bpu::predictNextRegionT(Cycle now)
{
    // A region holds at most maxRegionInsts instructions, so the walk
    // never runs off the buffer.
    const unsigned max_insts = params_.maxRegionInsts;
    TraceCursor &cursor = engine_.cursor(max_insts);
    BpuResult out;
    out.region.startPc = cursor.pc();

    unsigned insts = 0;
    DynInst inst;
    while (true) {
        // Non-branch instructions before the next branch contribute
        // nothing but the instruction count and the region-length cap,
        // so the walk consumes them as one arithmetic step.
        const std::uint64_t gap = cursor.toBranch();
        if (insts + gap >= max_insts) {
            // Cap reached on a non-branch; any branch stays unconsumed
            // for the next region.
            cursor.advance(max_insts - insts);
            insts = max_insts;
            regionCapEndsStat_->inc();
            break;
        }

        cursor.advance(gap);
        insts += static_cast<unsigned>(gap) + 1;
        cursor.takeBranch(inst);
        if (handleBranch<BtbT>(inst, now, out))
            break;
        if (insts >= max_insts) {
            regionCapEndsStat_->inc();
            break;
        }
    }

    out.region.numInsts = insts;
    instsStat_->inc(insts);
    return out;
}

} // namespace cfl

#endif // CFL_CORE_BPU_HH
