/**
 * @file
 * Cycle-level front-end model of one core.
 *
 * Pipeline structure per Table 1 / Section 4.1:
 *
 *   BPU --(fetch queue, 6 basic blocks)--> fetch unit --(decode buffer)
 *      --> backend consumer
 *
 * Per cycle:
 *  1. the backend consumes instructions from the decode buffer in
 *     data-stall/burst alternation (see FrontendParams); the decode
 *     buffer models the decoupling slack of the decode/rename queues
 *     (short fetch bubbles are absorbed, long ones are not);
 *  2. the fetch unit reads up to `fetchWidth` instructions of the head
 *     fetch region from the L1-I, stalling on block misses until the
 *     fill completes (fills already in flight — i.e. prefetched — expose
 *     only their residual latency);
 *  3. the BPU, unless stalled by a misfetch/misprediction bubble or a
 *     second-level BTB access, emits one fetch region into the queue.
 *
 * "Performance" is instructions retired per cycle — the paper's metric —
 * with the backend rate equal in every configuration, so all deltas come
 * from front-end behaviour.
 */

#ifndef CFL_CORE_FRONTEND_HH
#define CFL_CORE_FRONTEND_HH

#include <algorithm>
#include <cstdlib>

#include "common/ring.hh"
#include "core/bpu.hh"
#include "mem/hierarchy.hh"
#include "prefetch/prefetcher.hh"

namespace cfl
{

/**
 * Front-end pipeline tunables.
 *
 * The backend is a bursty consumer modeling a 3-way OoO core on a
 * memory-bound server workload: it consumes `retireWidth` instructions
 * per cycle for a window, then sits in a data-stall for
 * `dataStallCycles` after every `burstInsts` consumed. Front-end bubbles
 * overlapping data stalls are hidden (the OoO window drains); bubbles
 * overlapping consumption windows cost real slots. The sustained IPC
 * ceiling is burstInsts / (burstInsts/retireWidth + dataStallCycles).
 */
struct FrontendParams
{
    unsigned fetchQueueRegions = 6;   ///< Table 1: six basic blocks
    unsigned fetchWidth = 6;          ///< insts/cycle L1-I -> decode
    unsigned decodeBufferInsts = 64;  ///< decode/rename decoupling slack
    unsigned fetchMshrs = 8;          ///< Table 1: 8 MSHRs (fetch-ahead)
    unsigned fetchAheadRegions = 2;   ///< fetch-ahead lookahead window
    unsigned retireWidth = 3;         ///< Table 1: 3-way core
    unsigned burstInsts = 24;         ///< consumed per data-stall period
    unsigned dataStallCycles = 6;     ///< backend data-stall window
};

/** One core's front end. */
class Frontend
{
  public:
    /** @param prefetcher may be nullptr (no instruction prefetching) */
    Frontend(const FrontendParams &params, Bpu &bpu, InstMemory &mem,
             InstPrefetcher *prefetcher);

    /**
     * Advance one cycle, with the BTB's type known at compile time: for
     * a concrete BTB the BPU region walk devirtualizes (see
     * Bpu::predictNextRegionT); BtbT = Btb dispatches virtually, with
     * bit-identical results.
     */
    template <typename BtbT> void tickImpl();

    /**
     * Advance cycles until measuredRetired() >= @p target, using the
     * typed tick plus a quiet-window fast path: while the fetch unit
     * is stalled on a fill AND the BPU can make no progress (stalled
     * or queue full) AND fetch-ahead is provably a no-op (redirect
     * bubble, or the lookahead window scanned clean since the last
     * install), a cycle only advances the backend and the three stall
     * counters — so those cycles run without touching the fetch path
     * at all. Bit-identical to calling tickImpl() in a loop.
     */
    template <typename BtbT> void runUntil(Counter target);

    /**
     * Functionally advance at least @p insts instructions without
     * cycle-level timing (SMARTS functional warming). The decoupled
     * pipeline state (fetch queue, decode buffer, stalls) is squashed —
     * a long functional gap makes it stale, and the detailed warmup
     * before the next measured interval refills it — then the BPU walks
     * the oracle stream region by region, training the BTB, direction
     * predictor, RAS, and ITC exactly as detailed mode would, touching
     * every fetched block in the L1-I/LLC, and feeding the prefetcher
     * the same region/outcome/access events. Nominal time advances at
     * ~1 inst/cycle so fill/prefetch latencies span about the same
     * instruction distance as detailed mode; no stall or backend
     * timing is simulated.
     * May overshoot by up to one region (a region is never split).
     */
    template <typename BtbT> void fastForward(Counter insts);

    /**
     * Touch-only fast-forward of ~@p insts instructions (see
     * Bpu::touchStream): advances the stream keeping caches, prefetch
     * metadata and per-branch predictor state warm, with no BTB
     * lookups or timing. Only used for stream distance that a
     * full-fidelity fastForward() window still separates from the next
     * measured interval. Returns instructions consumed: at least
     * @p insts, overshooting by less than one region.
     */
    Counter fastForwardTouch(Counter insts);

    /**
     * Pure stream skip of @p insts instructions (see Bpu::skipStream):
     * no state is warmed at all. Only used for stream distance beyond
     * the touch window — every block the skipped stretch would install
     * is re-installed by the touch window that always follows.
     */
    void fastForwardSkip(Counter insts);

    /** Instructions retired so far. */
    Counter retired() const { return retired_; }

    /** Cycles simulated so far. */
    Cycle cycles() const { return cycle_; }

    /** Reset measurement counters (after warmup), keeping all
     *  microarchitectural state warm. */
    void beginMeasurement();

    /** Retired instructions and cycles since beginMeasurement(). */
    Counter measuredRetired() const { return retired_ - retiredBase_; }
    Cycle measuredCycles() const { return cycle_ - cycleBase_; }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

  private:
    void tickBackend();
    void tickFetch();
    template <typename BtbT> void tickBpuImpl();
    void fetchAheadUnderStall();
    void squashForFastForward();

    /**
     * True while the last full fetch-ahead scan found every block in
     * the lookahead window resident or in flight and nothing has been
     * installed since: the scan is a provable no-op. Cleared whenever
     * the window can change (active fetch, a region entering the
     * window) and implicitly by any install (installSeq moves on).
     */
    bool
    fetchAheadMemoValid() const
    {
        return fetchAheadIdle_ && mem_.installSeq() == fetchAheadIdleSeq_;
    }

    FrontendParams params_;
    Bpu &bpu_;
    InstMemory &mem_;
    InstPrefetcher *prefetcher_;

    RingBuffer<FetchRegion> fetchQueue_;
    unsigned fetchOffset_ = 0;      ///< insts consumed of the head region
    unsigned queueBranches_ = 0;    ///< unresolved predictions in queue

    /**
     * Regions squashed from the fetch queue by a redirect, awaiting
     * re-emission by the BPU at one per cycle. In hardware the queue
     * holds wrong-path regions at a redirect and is flushed; the correct
     * path is then re-predicted region by region. Re-emission models
     * that lockstep refill without double-walking the oracle stream.
     */
    RingBuffer<FetchRegion> replay_;
    Addr curFetchBlock_ = ~0ull;    ///< block the fetch unit last touched

    unsigned decodeBufferInsts_ = 0;
    unsigned burstConsumed_ = 0;   ///< insts consumed since last stall
    unsigned dataStallLeft_ = 0;   ///< backend data-stall cycles left

    Cycle cycle_ = 0;
    Cycle fetchStallUntil_ = 0;
    bool stallIsBubble_ = false;  ///< redirect bubble (no fetch-ahead)
    Cycle bpuStallUntil_ = 0;

    bool fetchAheadIdle_ = false;       ///< see fetchAheadMemoValid()
    std::uint64_t fetchAheadIdleSeq_ = 0;

    Counter retired_ = 0;
    Counter retiredBase_ = 0;
    Cycle cycleBase_ = 0;

    StatSet stats_{"frontend"};

    // Per-cycle counters resolved once (StatSet nodes are stable).
    Stat *backendDataStallStat_;
    Stat *backendStarvedStat_;
    Stat *fetchStallStat_;
    Stat *fetchAheadFillsStat_;
    Stat *fetchMissStallsStat_;
    Stat *fetchMissStallCyclesStat_;
    Stat *fetchedInstsStat_;
    Stat *redirectBubbleStat_;
    Stat *redirectFlushesStat_;
    Stat *fetchQueueEmptyStat_;
    Stat *fetchQueueFullStat_;
    Stat *bpuStallStat_;
    Stat *regionsReplayedStat_;
    Stat *regionsProducedStat_;
};

template <typename BtbT>
inline void
Frontend::tickBpuImpl()
{
    if (bpuStallUntil_ > cycle_) {
        bpuStallStat_->inc();
        return;
    }
    if (fetchQueue_.size() >= params_.fetchQueueRegions) {
        fetchQueueFullStat_->inc();
        return;
    }

    // Re-emit squashed regions first, one per cycle: the post-redirect
    // BPU re-predicts the correct path region by region. Second-level
    // BTB stalls do not recur (the first pass promoted the entries).
    if (!replay_.empty()) {
        FetchRegion region = replay_.front();
        replay_.pop_front();
        fetchQueue_.push_back(region);
        queueBranches_ += region.numBranches;
        regionsReplayedStat_->inc();
        if (fetchQueue_.size() <= params_.fetchAheadRegions)
            fetchAheadIdle_ = false; // region entered the scan window
        return;
    }

    const BpuResult res = bpu_.predictNextRegionT<BtbT>(cycle_);
    fetchQueue_.push_back(res.region);
    regionsProducedStat_->inc();
    if (fetchQueue_.size() <= params_.fetchAheadRegions)
        fetchAheadIdle_ = false; // region entered the scan window

    if (res.stall > 0)
        bpuStallUntil_ = cycle_ + res.stall;

    // Fetch-directed prefetching sees every enqueued region, along with
    // how many unresolved branch predictions sit ahead of it.
    if (prefetcher_ != nullptr) {
        prefetcher_->onFetchRegion(res.region.blockRange(),
                                   queueBranches_, cycle_);
        const unsigned errors =
            (res.misfetch ? 1u : 0u) + (res.mispredict ? 1u : 0u);
        prefetcher_->onBranchOutcome(res.region.numBranches, errors);
    }
    queueBranches_ += res.region.numBranches;
}

template <typename BtbT>
inline void
Frontend::tickImpl()
{
    ++cycle_;
    tickBackend();
    tickFetch();
    tickBpuImpl<BtbT>();
}

template <typename BtbT>
inline void
Frontend::fastForward(Counter insts)
{
    squashForFastForward();
    Counter done = 0;
    while (done < insts) {
        const BpuResult res = bpu_.predictNextRegionT<BtbT>(cycle_);
        // The prefetcher sees the region before the demand accesses, as
        // in detailed mode (the BPU emits ahead of the fetch unit), so
        // prefetched blocks are in flight when the demand touch lands.
        if (prefetcher_ != nullptr) {
            prefetcher_->onFetchRegion(res.region.blockRange(),
                                       /*unresolved_branches=*/0, cycle_);
            const unsigned errors =
                (res.misfetch ? 1u : 0u) + (res.mispredict ? 1u : 0u);
            prefetcher_->onBranchOutcome(res.region.numBranches, errors);
        }
        for (const Addr block : res.region.blockRange()) {
            const InstMemory::FetchResult fr =
                mem_.demandFetch(block, cycle_);
            if (prefetcher_ != nullptr) {
                if (!fr.l1Hit && !fr.wasInFlight)
                    prefetcher_->onDemandMiss(block, cycle_);
                prefetcher_->onDemandAccess(block, cycle_);
            }
        }
        // Advance nominal time at ~1 inst/cycle — within 2x of the
        // detailed-mode rate — so in-flight fills and prefetches land
        // after roughly the same instruction distance as they would in
        // detailed mode. One cycle per region (~6 insts) would make
        // latencies appear several times longer in instruction time,
        // biasing the cache state the next interval measures.
        cycle_ += std::max<Counter>(res.region.numInsts, 1);
        done += res.region.numInsts;
        retired_ += res.region.numInsts;
    }
}

template <typename BtbT>
inline void
Frontend::runUntil(Counter target)
{
    while (measuredRetired() < target) {
        tickImpl<BtbT>();

        // Quiet-window check for the cycles after this tick. The
        // conditions are invariant across quiet cycles (nothing below
        // installs blocks or touches the fetch queue), so they hoist
        // out of the skip loop.
        if (fetchStallUntil_ <= cycle_ + 1)
            continue;
        Cycle last = fetchStallUntil_ - 1;
        if (!(stallIsBubble_ || fetchAheadMemoValid())) {
            // Third quiet shape: the fetch-ahead scan starts by
            // checking MSHR occupancy and is a stat-free no-op at the
            // cap. With fetch and BPU quiet nothing issues new fills,
            // so occupancy cannot drop below the cap before the
            // earliest in-flight completion.
            const Cycle min_ready = mem_.minInFlightReady();
            if (mem_.inFlightSize() < params_.fetchMshrs ||
                min_ready <= cycle_ + 1)
                continue;
            last = std::min(last, min_ready - 1);
        }
        const bool queue_full =
            fetchQueue_.size() >= params_.fetchQueueRegions;

        // Last cycle of the quiet window: the fetch stall must still
        // hold, and without a full queue so must the BPU stall.
        if (!queue_full) {
            if (bpuStallUntil_ <= cycle_ + 1)
                continue;
            last = std::min(last, bpuStallUntil_ - 1);
        }

        // Quiet cycles, segmented. Only the backend does real work in
        // a quiet cycle, and while it is data-stalled or starved it
        // retires nothing, so those segments advance in one arithmetic
        // step with bulk stat increments; consumption cycles (at most
        // a decode buffer's worth) run the real tickBackend.
        while (cycle_ < last && measuredRetired() < target) {
            Cycle n;
            if (dataStallLeft_ > 0) {
                n = std::min<Cycle>(dataStallLeft_, last - cycle_);
                dataStallLeft_ -= n;
                backendDataStallStat_->inc(n);
            } else if (decodeBufferInsts_ == 0) {
                // Starved, and nothing arrives while fetch stalls.
                n = last - cycle_;
                backendStarvedStat_->inc(n);
            } else if (decodeBufferInsts_ >= params_.retireWidth) {
                // Full-width consumption is deterministic, so whole
                // runs of it advance arithmetically: every cycle
                // retires exactly retireWidth until the buffer can no
                // longer sustain the width, the burst window closes
                // (the data stall fires only on the cycle whose
                // cumulative consumption first reaches burstInsts, so
                // no intermediate cycle can trigger it), or the
                // measurement target is hit mid-window.
                const unsigned width = params_.retireWidth;
                const Cycle full = decodeBufferInsts_ / width;
                const Cycle to_burst =
                    (params_.burstInsts - burstConsumed_ + width - 1) /
                    width;
                const Cycle to_target =
                    (target - measuredRetired() + width - 1) / width;
                n = std::min({full, to_burst, to_target,
                              last - cycle_});
                if (n == 0) {
                    // last == cycle_ cannot happen (loop guard), so
                    // this is unreachable; keep the single-step tick as
                    // the safety net regardless.
                    ++cycle_;
                    tickBackend();
                    fetchStallStat_->inc();
                    (bpuStallUntil_ > cycle_ ? bpuStallStat_
                                             : fetchQueueFullStat_)
                        ->inc();
                    continue;
                }
                const unsigned insts = static_cast<unsigned>(n) * width;
                decodeBufferInsts_ -= insts;
                retired_ += insts;
                burstConsumed_ += insts;
                if (burstConsumed_ >= params_.burstInsts) {
                    burstConsumed_ = 0;
                    dataStallLeft_ = params_.dataStallCycles;
                }
            } else {
                ++cycle_;
                tickBackend();
                fetchStallStat_->inc();
                (bpuStallUntil_ > cycle_ ? bpuStallStat_
                                         : fetchQueueFullStat_)
                    ->inc();
                continue;
            }
            // The n skipped cycles are all fetch stalls; each is a BPU
            // stall while bpuStallUntil_ covers it and a full-queue
            // cycle after (the queue cannot drain mid-window).
            fetchStallStat_->inc(n);
            const Cycle bpu_cycles =
                bpuStallUntil_ > cycle_ + 1
                    ? std::min<Cycle>(bpuStallUntil_ - cycle_ - 1, n)
                    : 0;
            bpuStallStat_->inc(bpu_cycles);
            fetchQueueFullStat_->inc(n - bpu_cycles);
            cycle_ += n;
        }
    }
}

} // namespace cfl

#endif // CFL_CORE_FRONTEND_HH
