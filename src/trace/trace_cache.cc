#include "trace/trace_cache.hh"

#include <cstdlib>
#include <limits>

#include "common/logging.hh"
#include "common/strings.hh"

namespace cfl
{

namespace
{

/** Round a trace length up so nearby requests share one buffer. */
std::uint64_t
roundLength(std::uint64_t min_insts)
{
    constexpr std::uint64_t kGranule = 1ull << 16;
    return (min_insts + kGranule - 1) / kGranule * kGranule;
}

std::uint64_t
budgetFromEnv()
{
    constexpr std::uint64_t kDefaultMb = 512;
    const char *env = std::getenv("CONFLUENCE_TRACE_CACHE_MB");
    if (env == nullptr)
        return kDefaultMb << 20;
    const std::uint64_t mb =
        parseUint64Flag("CONFLUENCE_TRACE_CACHE_MB", env);
    // Past this many MB the byte count would wrap.
    constexpr std::uint64_t kMaxMb =
        std::numeric_limits<std::uint64_t>::max() >> 20;
    if (mb > kMaxMb)
        cfl_fatal("CONFLUENCE_TRACE_CACHE_MB=%s is above %llu MB", env,
                  static_cast<unsigned long long>(kMaxMb));
    return mb << 20;
}

} // namespace

/**
 * One cache slot. `buf` and `charged` are guarded by the cache's global
 * mutex; `genMutex` only serializes generation so concurrent acquires of
 * the same key build the trace once.
 */
struct TraceCache::Entry
{
    std::mutex genMutex;
    std::shared_ptr<const TraceBuffer> buf;
    std::uint64_t charged = 0;
    std::uint64_t lastUse = 0;
};

TraceCache::TraceCache(std::uint64_t budget_bytes)
    : budgetBytes_(budget_bytes)
{
}

void
TraceCache::setBudgetBytes(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    budgetBytes_ = bytes;
    makeRoom(0);
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[key, entry] : entries_) {
        if (entry->buf != nullptr && entry->buf.use_count() == 1) {
            chargedBytes_ -= entry->charged;
            entry->charged = 0;
            entry->buf.reset();
        }
    }
}

std::uint64_t
TraceCache::budgetBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return budgetBytes_;
}

std::uint64_t
TraceCache::cachedBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return chargedBytes_;
}

std::uint64_t
TraceCache::lookups() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lookups_;
}

std::uint64_t
TraceCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
TraceCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::uint64_t
TraceCache::bypasses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bypasses_;
}

bool
TraceCache::makeRoom(std::uint64_t needed, const Entry *exclude)
{
    // Caller holds mutex_. Drop idle buffers (the cache holds the only
    // reference) in LRU order until the new trace fits. @p exclude is
    // the entry being refreshed: its old buffer's charge is accounted
    // separately by the caller.
    while (chargedBytes_ + needed > budgetBytes_) {
        Entry *victim = nullptr;
        for (auto &[key, entry] : entries_) {
            if (entry.get() == exclude || entry->buf == nullptr ||
                entry->buf.use_count() != 1)
                continue;
            if (victim == nullptr || entry->lastUse < victim->lastUse)
                victim = entry.get();
        }
        if (victim == nullptr)
            return false;
        chargedBytes_ -= victim->charged;
        victim->charged = 0;
        victim->buf.reset();
    }
    return true;
}

std::shared_ptr<const TraceBuffer>
TraceCache::acquire(WorkloadId workload, std::uint64_t seed,
                    std::uint64_t min_insts)
{
    const std::uint64_t length = roundLength(min_insts);
    const std::pair<int, std::uint64_t> key{static_cast<int>(workload),
                                            seed};

    std::shared_ptr<Entry> entry;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Counted up front so hits_ + misses_ + bypasses_ == lookups_
        // partitions every completed call; the exception path below
        // backs the count out because it classifies as none of them.
        ++lookups_;
        if (budgetBytes_ == 0) {
            ++bypasses_;
            return nullptr;
        }
        auto it = entries_.find(key);
        if (it == entries_.end())
            it = entries_.emplace(key, std::make_shared<Entry>()).first;
        entry = it->second;
        entry->lastUse = ++useClock_;
        if (entry->buf != nullptr && entry->buf->size() >= min_insts) {
            ++hits_;
            return entry->buf;
        }
    }

    // Serialize generation per key so concurrent requesters build the
    // trace once; entry mutexes are always taken before the global one.
    std::lock_guard<std::mutex> gen(entry->genMutex);

    // Generation reserves the all-branch upper bound; the buffer's
    // actual size is only known once it exists.
    const std::uint64_t bytes = TraceBuffer::arenaBytesFor(length);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (entry->buf != nullptr && entry->buf->size() >= min_insts) {
            ++hits_;  // another thread generated it while we waited
            return entry->buf;
        }
        // A too-short buffer is replaced, which frees its charge — but
        // only commit to dropping it once the replacement is known to
        // fit, so a failed fit keeps the shorter trace servable.
        const std::uint64_t old_charge = entry->charged;
        chargedBytes_ -= old_charge;
        if (bytes > budgetBytes_ || !makeRoom(bytes, entry.get())) {
            chargedBytes_ += old_charge;
            ++bypasses_;
            return nullptr;
        }
        if (entry->buf != nullptr) {
            // External holders keep their shared view alive.
            entry->charged = 0;
            entry->buf.reset();
        }
        chargedBytes_ += bytes;  // reserve before the unlocked generation
    }

    std::shared_ptr<const TraceBuffer> buf;
    try {
        const Program &program = workloadProgram(workload);
        const WorkloadParams wparams = workloadParams(workload);
        buf = std::make_shared<TraceBuffer>(
            program, EngineParams{seed, wparams.zipfSkew,
                                  wparams.branchNoise},
            length);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        chargedBytes_ -= bytes;
        --lookups_;
        throw;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    chargedBytes_ = chargedBytes_ - bytes + buf->bytes();
    entry->buf = buf;
    entry->charged = buf->bytes();
    ++misses_;
    return buf;
}

TraceCache &
traceCache()
{
    static TraceCache cache(budgetFromEnv());
    return cache;
}

} // namespace cfl
