#include "mem/hierarchy.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "mem/cache.hh"

namespace cfl
{

InstMemory::InstMemory(const InstMemoryParams &params, Llc &llc)
    : params_(params),
      llc_(llc),
      l1i_(cacheSets("l1i", params.l1iBytes, params.l1iWays),
           params.l1iWays, floorLog2(kBlockBytes)),
      stats_("instmem"),
      demandFetchesStat_(&stats_.scalar("demandFetches")),
      demandHitsStat_(&stats_.scalar("demandHits")),
      demandMissesStat_(&stats_.scalar("demandMisses")),
      demandInFlightHitsStat_(&stats_.scalar("demandInFlightHits")),
      demandInFlightWaitStat_(&stats_.scalar("demandInFlightWaitCycles")),
      prefetchIssuedStat_(&stats_.scalar("prefetchIssued")),
      prefetchRedundantStat_(&stats_.scalar("prefetchRedundant")),
      fillsFromLlcStat_(&stats_.scalar("fillsFromLlc")),
      fillsFromMemoryStat_(&stats_.scalar("fillsFromMemory"))
{
    fills_.reserve(32);
}

void
InstMemory::expireInFlight(Cycle now)
{
    // Lazy MSHR retirement: fills whose ready cycle passed are done.
    // The walk only matters once some fill's ready cycle has been
    // reached; until then every fill is strictly in flight and the
    // list is already in its post-expiry state.
    if (now < minInFlightReady_)
        return;
    Cycle min_ready = ~Cycle{0};
    std::erase_if(fills_, [now, &min_ready](const Fill &fill) {
        if (fill.ready <= now)
            return true;
        min_ready = std::min(min_ready, fill.ready);
        return false;
    });
    minInFlightReady_ = min_ready;
}

void
InstMemory::insertTag(Addr block_addr, Cycle ready)
{
    const std::size_t before = l1i_.size();
    const auto evicted = l1i_.insert(block_addr, ready);
    // An absent block either evicts a victim or fills an invalid way;
    // a present one would only have been refreshed in place.
    cfl_assert(evicted || l1i_.size() > before,
               "l1i: insert of present block %#llx",
               static_cast<unsigned long long>(block_addr));
    ++installSeq_;
    if (evicted && evictHook_)
        evictHook_(evicted->first);
}

InstMemory::Fill *
InstMemory::trackedFill(Addr block_addr)
{
    for (Fill &fill : fills_) {
        if (fill.block == block_addr)
            return &fill;
    }
    return nullptr;
}

Cycle
InstMemory::install(Addr block_addr, bool from_prefetch, Cycle now,
                    Cycle extra_latency)
{
    const Llc::Access llc_access = llc_.access(block_addr);
    const Cycle ready = now + extra_latency + llc_access.latency;
    (llc_access.hit ? fillsFromLlcStat_ : fillsFromMemoryStat_)->inc();

    // The tag is installed immediately (the MSHR owns the line) and
    // its way keeps the fill's ready cycle, so demand fetches of
    // in-flight blocks see the residual latency. A block evicted with
    // its fill still tracked has one MSHR, now the new fill's.
    insertTag(block_addr, ready);
    if (Fill *tracked = trackedFill(block_addr))
        tracked->ready = ready;
    else
        fills_.push_back(Fill{block_addr, ready});
    if (ready < minInFlightReady_)
        minInFlightReady_ = ready;
    if (fillHook_)
        fillHook_(block_addr, from_prefetch, ready);
    return ready;
}

void
InstMemory::warmInstall(Addr block_addr, bool from_prefetch, Cycle now)
{
    const Llc::Access llc_access = llc_.access(block_addr);
    (llc_access.hit ? fillsFromLlcStat_ : fillsFromMemoryStat_)->inc();
    // No fill of its own, but a tracked fill of the block (started
    // before an eviction) still decides when its data is there.
    const Fill *tracked = trackedFill(block_addr);
    insertTag(block_addr, tracked != nullptr ? tracked->ready : 0);
    if (fillHook_)
        fillHook_(block_addr, from_prefetch, now + llc_access.latency);
}

InstMemory::FetchResult
InstMemory::demandFetch(Addr block_addr, Cycle now)
{
    cfl_assert(blockAlign(block_addr) == block_addr,
               "demandFetch of unaligned address");

    FetchResult out;
    demandFetchesStat_->inc();

    if (params_.perfectL1I) {
        out.l1Hit = true;
        out.readyAt = now;
        demandHitsStat_->inc();
        return out;
    }

    expireInFlight(now);

    if (const Cycle *ready = l1i_.find(block_addr)) {
        if (*ready <= now) {
            // Present and ready.
            out.l1Hit = true;
            out.readyAt = now;
            demandHitsStat_->inc();
        } else {
            // Fill still in flight: the demand access waits out the
            // residual latency (partially hidden prefetch).
            out.wasInFlight = true;
            out.readyAt = *ready;
            demandInFlightHitsStat_->inc();
            demandInFlightWaitStat_->inc(*ready - now);
        }
        return out;
    }

    // True miss: fill from LLC/memory.
    demandMissesStat_->inc();
    out.readyAt = install(block_addr, /*from_prefetch=*/false, now,
                          /*extra_latency=*/0);
    return out;
}

bool
InstMemory::warmTouch(Addr block_addr, Cycle now)
{
    cfl_assert(blockAlign(block_addr) == block_addr,
               "warmTouch of unaligned address");
    demandFetchesStat_->inc();
    if (params_.perfectL1I || l1i_.find(block_addr) != nullptr) {
        demandHitsStat_->inc();
        return true;
    }
    demandMissesStat_->inc();
    warmInstall(block_addr, /*from_prefetch=*/false, now);
    return false;
}

void
InstMemory::warmPrefetch(Addr block_addr, Cycle now)
{
    cfl_assert(blockAlign(block_addr) == block_addr,
               "warmPrefetch of unaligned address");
    if (params_.perfectL1I)
        return;
    if (l1i_.peek(block_addr) != nullptr) {
        prefetchRedundantStat_->inc();
        return;
    }
    prefetchIssuedStat_->inc();
    warmInstall(block_addr, /*from_prefetch=*/true, now);
}

Cycle
InstMemory::prefetch(Addr block_addr, Cycle now, Cycle extra_latency)
{
    cfl_assert(blockAlign(block_addr) == block_addr,
               "prefetch of unaligned address");
    if (params_.perfectL1I)
        return now;

    expireInFlight(now);

    if (const Cycle *ready = l1i_.peek(block_addr)) {
        prefetchRedundantStat_->inc();
        return std::max(*ready, now);
    }

    prefetchIssuedStat_->inc();
    return install(block_addr, /*from_prefetch=*/true, now, extra_latency);
}

bool
InstMemory::resident(Addr block_addr, Cycle now) const
{
    if (params_.perfectL1I)
        return true;
    const Cycle *ready = l1i_.peek(block_addr);
    return ready != nullptr && *ready <= now;
}

bool
InstMemory::residentOrInFlight(Addr block_addr) const
{
    return params_.perfectL1I || l1i_.peek(block_addr) != nullptr;
}

unsigned
InstMemory::inFlightCount(Cycle now) const
{
    // While now < minInFlightReady_ every tracked fill is still in
    // flight, so the occupancy is just the list size — the common case
    // during a fetch stall, where this runs every cycle.
    if (now < minInFlightReady_)
        return static_cast<unsigned>(fills_.size());
    return static_cast<unsigned>(
        std::count_if(fills_.begin(), fills_.end(),
                      [now](const Fill &f) { return f.ready > now; }));
}

} // namespace cfl
