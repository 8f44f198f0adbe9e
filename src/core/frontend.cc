#include "core/frontend.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace cfl
{

Frontend::Frontend(const FrontendParams &params, Bpu &bpu, InstMemory &mem,
                   InstPrefetcher *prefetcher)
    : params_(params),
      bpu_(bpu),
      mem_(mem),
      prefetcher_(prefetcher),
      fetchQueue_(params.fetchQueueRegions + 1),
      replay_(params.fetchQueueRegions + 1),
      backendDataStallStat_(&stats_.scalar("backendDataStallCycles")),
      backendStarvedStat_(&stats_.scalar("backendStarvedCycles")),
      fetchStallStat_(&stats_.scalar("fetchStallCycles")),
      fetchAheadFillsStat_(&stats_.scalar("fetchAheadFills")),
      fetchMissStallsStat_(&stats_.scalar("fetchMissStalls")),
      fetchMissStallCyclesStat_(&stats_.scalar("fetchMissStallCycles")),
      fetchedInstsStat_(&stats_.scalar("fetchedInsts")),
      redirectBubbleStat_(&stats_.scalar("redirectBubbleCycles")),
      redirectFlushesStat_(&stats_.scalar("redirectQueueFlushes")),
      fetchQueueEmptyStat_(&stats_.scalar("fetchQueueEmptyCycles")),
      fetchQueueFullStat_(&stats_.scalar("fetchQueueFullCycles")),
      bpuStallStat_(&stats_.scalar("bpuStallCycles")),
      regionsReplayedStat_(&stats_.scalar("regionsReplayed")),
      regionsProducedStat_(&stats_.scalar("regionsProduced"))
{
    cfl_assert(params.fetchQueueRegions > 0, "fetch queue needs depth");
    cfl_assert(params.fetchWidth > 0, "fetch width must be > 0");
    cfl_assert(params.retireWidth > 0, "retire width must be positive");
    cfl_assert(params.burstInsts > 0, "burst window must be positive");
}

void
Frontend::beginMeasurement()
{
    retiredBase_ = retired_;
    cycleBase_ = cycle_;
    stats_.resetAll();
}

void
Frontend::squashForFastForward()
{
    // In-flight pipeline contents are stale after a functional gap;
    // drop them rather than retire them, and clear every stall so the
    // post-gap detailed warmup starts from a clean (cold-pipeline,
    // warm-state) frontend.
    while (!fetchQueue_.empty())
        fetchQueue_.pop_front();
    while (!replay_.empty())
        replay_.pop_front();
    fetchOffset_ = 0;
    queueBranches_ = 0;
    curFetchBlock_ = ~0ull;
    decodeBufferInsts_ = 0;
    burstConsumed_ = 0;
    dataStallLeft_ = 0;
    fetchStallUntil_ = 0;
    stallIsBubble_ = false;
    bpuStallUntil_ = 0;
    fetchAheadIdle_ = false;
}

Counter
Frontend::fastForwardTouch(Counter insts)
{
    squashForFastForward();
    const Counter consumed =
        bpu_.touchStream(insts, mem_, prefetcher_, cycle_);
    retired_ += consumed;
    return consumed;
}

void
Frontend::fastForwardSkip(Counter insts)
{
    squashForFastForward();
    bpu_.skipStream(insts, cycle_);
    retired_ += insts;
}

void
Frontend::tickBackend()
{
    // Data-stall window: the OoO backend is blocked on memory; it
    // consumes nothing, and any front-end bubble in this window is free.
    if (dataStallLeft_ > 0) {
        --dataStallLeft_;
        backendDataStallStat_->inc();
        return;
    }

    // Consumption window: the backend pulls at full width. An empty
    // decode buffer here is a real front-end-supply loss.
    const unsigned take =
        std::min(params_.retireWidth, decodeBufferInsts_);
    if (take > 0) {
        decodeBufferInsts_ -= take;
        retired_ += take;
        burstConsumed_ += take;
        if (burstConsumed_ >= params_.burstInsts) {
            burstConsumed_ = 0;
            dataStallLeft_ = params_.dataStallCycles;
        }
    } else {
        backendStarvedStat_->inc();
    }
}

void
Frontend::fetchAheadUnderStall()
{
    // Table 1: 8 MSHRs. While the fetch unit waits on a fill, it keeps
    // walking the fetch queue and starts the fills it will need next,
    // overlapping their latencies (fetch-ahead under a miss). Squash
    // bubbles (deliveryBubble) do not fetch ahead: the queue contents
    // after a redirect are not yet trusted.
    if (fetchAheadMemoValid())
        return;
    unsigned outstanding = mem_.inFlightCount(cycle_);
    if (outstanding >= params_.fetchMshrs)
        return;
    bool issued = false;
    unsigned scanned_offset = fetchOffset_;
    unsigned regions_scanned = 0;
    for (const FetchRegion &region : fetchQueue_) {
        // Only the near-certain window: the region being fetched and the
        // next one. Anything further sits behind unresolved branch
        // predictions — in hardware that is wrong-path territory, which
        // the oracle-built queue cannot represent. Deeper lookahead is
        // exactly what a real prefetcher (FDP/SHIFT) adds.
        if (++regions_scanned > params_.fetchAheadRegions)
            break;
        if (region.numInsts > 0 && scanned_offset < region.numInsts) {
            const Addr first = blockAlign(
                region.startPc + scanned_offset * kInstBytes);
            const Addr last = blockAlign(
                region.startPc + (region.numInsts - 1) * kInstBytes);
            for (Addr block = first; block <= last;
                 block += kBlockBytes) {
                if (outstanding >= params_.fetchMshrs)
                    return; // window not fully scanned: no memo
                if (!mem_.residentOrInFlight(block)) {
                    fetchAheadFillsStat_->inc();
                    mem_.prefetch(block, cycle_);
                    issued = true;
                    ++outstanding;
                }
            }
        }
        scanned_offset = 0;
    }
    if (!issued) {
        // The whole window is resident or in flight; until something
        // is installed (the only way L1-I contents change) and while
        // the window itself is untouched, rescanning is a no-op.
        fetchAheadIdle_ = true;
        fetchAheadIdleSeq_ = mem_.installSeq();
    }
}

void
Frontend::tickFetch()
{
    if (fetchStallUntil_ > cycle_) {
        fetchStallStat_->inc();
        if (!stallIsBubble_)
            fetchAheadUnderStall();
        return;
    }

    // Active fetch moves the lookahead window (offset advance, region
    // pops), so any no-op memo for the old window is stale.
    fetchAheadIdle_ = false;

    unsigned credits = params_.fetchWidth;
    while (credits > 0 && !fetchQueue_.empty() &&
           decodeBufferInsts_ < params_.decodeBufferInsts) {
        FetchRegion &region = fetchQueue_.front();
        const Addr pc = region.startPc + fetchOffset_ * kInstBytes;
        const Addr block = blockAlign(pc);

        if (block != curFetchBlock_) {
            curFetchBlock_ = block;
            const InstMemory::FetchResult res =
                mem_.demandFetch(block, cycle_);
            // Miss handling precedes the access notification so the
            // SHIFT index lookup sees the *previous* occurrence of this
            // block, not the one being recorded now.
            if (!res.l1Hit && !res.wasInFlight && prefetcher_ != nullptr)
                prefetcher_->onDemandMiss(block, cycle_);
            if (prefetcher_ != nullptr)
                prefetcher_->onDemandAccess(block, cycle_);
            if (!res.l1Hit) {
                if (res.readyAt > cycle_) {
                    fetchStallUntil_ = res.readyAt;
                    stallIsBubble_ = false;
                    fetchMissStallsStat_->inc();
                    fetchMissStallCyclesStat_->inc(res.readyAt - cycle_);
                    fetchAheadUnderStall();
                    return;
                }
            }
        }

        // Consume instructions up to the region end, the block end, the
        // fetch width, and the decode-buffer space.
        const unsigned region_left = region.numInsts - fetchOffset_;
        const unsigned block_left =
            kInstsPerBlock - instIndexInBlock(pc);
        const unsigned buffer_left =
            params_.decodeBufferInsts - decodeBufferInsts_;
        const unsigned take =
            std::min({credits, region_left, block_left, buffer_left});
        cfl_assert(take > 0, "fetch made no progress");

        decodeBufferInsts_ += take;
        fetchOffset_ += take;
        credits -= take;
        fetchedInstsStat_->inc(take);

        if (fetchOffset_ >= region.numInsts) {
            queueBranches_ -= std::min(queueBranches_, region.numBranches);
            // A region ending in a misfetch or misprediction delivers a
            // redirect bubble: the squashed wrong-path slots occupy the
            // pipe for the penalty regardless of queue occupancy.
            const Cycle bubble = region.deliveryBubble;
            fetchQueue_.pop_front();
            fetchOffset_ = 0;
            // Force a block re-check on the next region: it may start in
            // a different block.
            curFetchBlock_ = ~0ull;
            if (bubble > 0) {
                fetchStallUntil_ =
                    std::max(fetchStallUntil_, cycle_ + bubble);
                stallIsBubble_ = true;
                redirectBubbleStat_->inc(bubble);
                // The redirect squashes everything younger in the fetch
                // queue; those regions re-emit from the BPU one per
                // cycle (post-redirect lockstep refill).
                if (!fetchQueue_.empty()) {
                    redirectFlushesStat_->inc();
                    while (!fetchQueue_.empty()) {
                        replay_.push_back(fetchQueue_.front());
                        fetchQueue_.pop_front();
                    }
                    queueBranches_ = 0;
                }
                break;
            }
        } else if (credits > 0) {
            // Crossed into the next block of the same region.
            continue;
        }
    }

    if (fetchQueue_.empty())
        fetchQueueEmptyStat_->inc();
}

void
Frontend::tick()
{
    tickImpl<Btb>();
}

} // namespace cfl
