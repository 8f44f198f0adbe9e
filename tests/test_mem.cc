/** @file Tests for caches, NoC, LLC, and the instruction-memory path. */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <vector>

#include "common/assoc.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/llc.hh"
#include "mem/noc.hh"

using namespace cfl;

TEST(AssocCache, LruEviction)
{
    AssocCache<int> tags(2, 2, 0);  // 2 sets * 2 ways
    // Keys 0 and 2 map to set 0 (shift 0, 2 sets): key & 1.
    EXPECT_EQ(tags.find(0), nullptr);
    tags.insert(0, 10);
    tags.insert(2, 12);
    EXPECT_NE(tags.find(0), nullptr);  // 0 is now MRU
    const auto evicted = tags.insert(4, 14);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->first, 2u);  // LRU way, with its payload
    EXPECT_EQ(evicted->second, 12);
    EXPECT_NE(tags.peek(0), nullptr);
    EXPECT_NE(tags.peek(4), nullptr);
}

TEST(AssocCache, InvalidateAndClear)
{
    AssocCache<int> tags(2, 4, 0);
    tags.insert(1, 11);
    tags.insert(3, 13);
    EXPECT_EQ(tags.size(), 2u);
    EXPECT_EQ(tags.invalidate(1), 11);
    EXPECT_FALSE(tags.invalidate(1).has_value());
    EXPECT_EQ(tags.size(), 1u);
    tags.clear();
    EXPECT_EQ(tags.size(), 0u);
    EXPECT_EQ(tags.peek(3), nullptr);
}

namespace
{

/**
 * Reference model of AssocCache's replacement, written the naive way:
 * each set keeps its ways in position order plus a recency list (front
 * = most recent). A new key takes the set's first empty way, else the
 * way of the list's least recent key.
 */
class LruListModel
{
  public:
    using Pair = std::pair<std::uint64_t, int>;

    LruListModel(std::size_t sets, unsigned ways, unsigned shift)
        : shift_(shift), ways_(sets, std::vector<std::optional<Pair>>(ways)),
          recency_(sets)
    {
    }

    std::optional<int>
    find(std::uint64_t key, bool update_lru)
    {
        std::optional<Pair> *way = wayOf(key);
        if (way == nullptr)
            return std::nullopt;
        if (update_lru)
            promote(key);
        return (*way)->second;
    }

    void
    set(std::uint64_t key, int value)
    {
        (*wayOf(key))->second = value;
    }

    std::optional<Pair>
    insert(std::uint64_t key, int value)
    {
        if (std::optional<Pair> *way = wayOf(key)) {
            (*way)->second = value;
            promote(key);
            return std::nullopt;
        }
        std::vector<std::optional<Pair>> &ways = ways_[setOf(key)];
        std::list<std::uint64_t> &order = recency_[setOf(key)];
        std::optional<Pair> evicted;
        auto slot = std::find(ways.begin(), ways.end(), std::nullopt);
        if (slot == ways.end()) {
            const std::uint64_t lru = order.back();
            order.pop_back();
            slot = std::find_if(ways.begin(), ways.end(),
                                [&](const auto &w) { return w->first == lru; });
            evicted = *slot;
        } else {
            ++size_;
        }
        *slot = Pair{key, value};
        order.push_front(key);
        return evicted;
    }

    std::optional<int>
    invalidate(std::uint64_t key)
    {
        std::optional<Pair> *way = wayOf(key);
        if (way == nullptr)
            return std::nullopt;
        const int value = (*way)->second;
        way->reset();
        recency_[setOf(key)].remove(key);
        --size_;
        return value;
    }

    void
    clear()
    {
        for (auto &ways : ways_)
            std::fill(ways.begin(), ways.end(), std::nullopt);
        for (auto &order : recency_)
            order.clear();
        size_ = 0;
    }

    std::size_t size() const { return size_; }

    /** Every valid (key, value), set by set in way order. */
    std::vector<Pair>
    contents() const
    {
        std::vector<Pair> out;
        for (const auto &ways : ways_)
            for (const std::optional<Pair> &way : ways)
                if (way)
                    out.push_back(*way);
        return out;
    }

  private:
    std::size_t
    setOf(std::uint64_t key) const
    {
        return (key >> shift_) % ways_.size();
    }

    std::optional<Pair> *
    wayOf(std::uint64_t key)
    {
        for (std::optional<Pair> &way : ways_[setOf(key)])
            if (way && way->first == key)
                return &way;
        return nullptr;
    }

    void
    promote(std::uint64_t key)
    {
        std::list<std::uint64_t> &order = recency_[setOf(key)];
        order.remove(key);
        order.push_front(key);
    }

    unsigned shift_;
    std::vector<std::vector<std::optional<Pair>>> ways_;
    std::vector<std::list<std::uint64_t>> recency_;
    std::size_t size_ = 0;
};

/**
 * Random find (with and without the LRU update), peek, insert,
 * invalidate and clear over @p keys; every returned payload, every
 * evicted pair and size() must agree with the model, and every 1000
 * operations so must the contents in way order.
 */
template <typename Array>
void
expectModelBehaviour(Array &cache, std::size_t sets, unsigned ways,
                     unsigned shift, const std::vector<std::uint64_t> &keys)
{
    LruListModel model(sets, ways, shift);
    Rng rng(sets * 131 + ways);
    for (int op = 0; op < 40000; ++op) {
        const std::uint64_t key = keys[rng.nextBelow(keys.size())];
        const int value = static_cast<int>(rng.nextBelow(1000));
        const std::uint64_t dice = rng.nextBelow(10000);
        if (dice < 3000) {
            const bool update = dice < 2000;
            int *got = cache.find(key, update);
            const std::optional<int> want = model.find(key, update);
            ASSERT_EQ(got != nullptr, want.has_value()) << "op " << op;
            if (got == nullptr)
                continue;
            ASSERT_EQ(*got, *want) << "op " << op;
            if (dice % 4 == 0) {  // write through the payload pointer
                *got = value;
                model.set(key, value);
            }
        } else if (dice < 4000) {
            const int *got = cache.peek(key);
            const std::optional<int> want = model.find(key, false);
            ASSERT_EQ(got != nullptr, want.has_value()) << "op " << op;
            if (got != nullptr) {
                ASSERT_EQ(*got, *want) << "op " << op;
            }
        } else if (dice < 9000) {
            ASSERT_EQ(cache.insert(key, value), model.insert(key, value))
                << "op " << op;
        } else if (dice < 9998) {
            ASSERT_EQ(cache.invalidate(key), model.invalidate(key))
                << "op " << op;
        } else {
            cache.clear();
            model.clear();
        }
        ASSERT_EQ(cache.size(), model.size()) << "op " << op;
        if (op % 1000 == 999) {  // which way each key took, too
            std::vector<LruListModel::Pair> got;
            cache.forEach([&](std::uint64_t k, const int &v) {
                got.emplace_back(k, v);
            });
            ASSERT_EQ(got, model.contents()) << "op " << op;
        }
    }
}

/** Up to @p count keys above @p shift whose WayIndex probes for a
 *  @p ways-way array all start at @p home. */
std::vector<std::uint64_t>
keysWithHome(unsigned ways, std::size_t home, std::size_t count,
             unsigned shift)
{
    const WayIndex index(ways);
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < count && k < (1u << 22); ++k) {
        if (index.home(k << shift) == home)
            keys.push_back(k << shift);
    }
    return keys;
}

} // namespace

TEST(AssocCache, MatchesANaiveLruListModel)
{
    // Keys collide in every set: three times as many as the array
    // holds, including 0, above a 6-bit index shift like block
    // addresses. Each one-set geometry runs twice, scanned
    // (AssocCache) and indexed (FullyAssocCache); {2, 64} has many
    // ways but is scanned.
    constexpr unsigned kShift = 6;
    const std::pair<std::size_t, unsigned> geometries[] = {
        {1, 1},   {1, 2},   {1, 33}, {1, 64}, {1, 256},
        {16, 4},  {256, 4}, {8, 16}, {2, 64}};
    for (const auto &[sets, ways] : geometries) {
        SCOPED_TRACE(std::to_string(sets) + "x" + std::to_string(ways));
        std::vector<std::uint64_t> keys;
        for (std::uint64_t k = 0; k < sets * ways * 3; ++k)
            keys.push_back(k << kShift);
        {
            SCOPED_TRACE("scanned");
            AssocCache<int> cache(sets, ways, kShift);
            expectModelBehaviour(cache, sets, ways, kShift, keys);
        }
        if (sets != 1)
            continue;
        // Keys that collide in the index too: clusters at its last
        // probe position and at the first two, so probes and erases
        // wrap around the table, each cluster able to fill the array.
        std::size_t last = 0;
        const WayIndex index(ways);
        for (std::uint64_t k = 0; k < 4096; ++k)
            last = std::max(last, index.home(k << kShift));
        for (const std::size_t home : {last, std::size_t{0}, std::size_t{1}}) {
            const auto cluster = keysWithHome(ways, home, ways + 2, kShift);
            ASSERT_EQ(cluster.size(), ways + 2u) << "home " << home;
            keys.insert(keys.end(), cluster.begin(), cluster.end());
        }
        SCOPED_TRACE("indexed");
        FullyAssocCache<int> cache(ways);
        EXPECT_EQ(cache.numSets(), 1u);
        EXPECT_EQ(cache.ways(), ways);
        expectModelBehaviour(cache, sets, ways, kShift, keys);
    }
}

namespace
{

struct NonZeroDefault
{
    int x = 1;
    bool operator==(const NonZeroDefault &) const = default;
};

struct HoldsAPointer
{
    const int *p = nullptr;
    bool operator==(const HoldsAPointer &) const = default;
};

struct NoEquality
{
    int x = 0;
};

struct ZeroDefaults
{
    std::uint8_t kind = 0;  // padding follows: compared by member
    std::uint64_t target = 0;
    double weight = 0.0;
    bool operator==(const ZeroDefaults &) const = default;
};

} // namespace

TEST(AssocCache, PayloadsMustBeZeroFilled)
{
    // Payloads come zeroed from calloc, so AssocCache compiles only for
    // payloads whose zero bytes are their value-initialised object.
    static_assert(ZeroFilled<int>);
    static_assert(ZeroFilled<Cycle>);
    static_assert(ZeroFilled<ZeroDefaults>);
    static_assert(!ZeroFilled<NonZeroDefault>);
    static_assert(!ZeroFilled<HoldsAPointer>);
    static_assert(!ZeroFilled<NoEquality>);
    static_assert(!ZeroFilled<std::pair<std::uint64_t, int>>);

    AssocCache<ZeroDefaults> cache(4, 2, 0);
    cache.insert(3, ZeroDefaults{7, 9, 0.5});
    ASSERT_NE(cache.peek(3), nullptr);
    EXPECT_EQ(*cache.peek(3), (ZeroDefaults{7, 9, 0.5}));
}

TEST(Cache, HitMissAndStats)
{
    Cache cache("t", 4 * kBlockBytes, 2);
    EXPECT_FALSE(cache.access(0x1000));
    cache.insert(0x1000);
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_EQ(cache.stats().get("hits"), 1u);
    EXPECT_EQ(cache.stats().get("misses"), 1u);
}

TEST(Cache, InsertOfAPresentBlockIsFatal)
{
    // Callers insert only what they have just missed; a present block
    // would be refreshed in place and count a fill it never was.
    Cache cache("t", 4 * kBlockBytes, 2);
    cache.insert(0x1000);
    EXPECT_DEATH(cache.insert(0x1000), "t: insert of present block 0x1000");
}

TEST(MeshNoc, HopsAndAverages)
{
    MeshNoc noc(16, 3);
    EXPECT_EQ(noc.width(), 4u);
    EXPECT_EQ(noc.height(), 4u);
    EXPECT_EQ(noc.hops(0, 0), 0u);
    EXPECT_EQ(noc.hops(0, 15), 6u);  // corner to corner: 3 + 3
    EXPECT_EQ(noc.hops(0, 3), 3u);
    EXPECT_NEAR(noc.averageHops(), 2.5, 1e-9);
    EXPECT_EQ(noc.averageRoundTrip(), 16u);
}

TEST(MeshNoc, SingleNode)
{
    MeshNoc noc(1, 3);
    EXPECT_EQ(noc.averageRoundTrip(), 0u);
}

TEST(Llc, LatenciesMatchTable1)
{
    LlcParams params;  // 16 cores, 512KB/core, 6-cycle bank, 3/hop
    Llc llc(params);
    EXPECT_EQ(llc.hitLatency(), 22u);   // 16 NoC round trip + 6 bank
    EXPECT_EQ(llc.missLatency(), 157u); // + 135 memory (45ns @ 3GHz)
}

TEST(Llc, ReservationShrinksCapacity)
{
    const LlcParams params;
    Llc whole(params);
    Llc reserved(params, 16 * 1024);
    EXPECT_EQ(reserved.cache().capacityBytes(),
              whole.cache().capacityBytes() - 16 * 1024);
}

TEST(Llc, MissesFillAndSubsequentHits)
{
    Llc llc(LlcParams{});
    const auto first = llc.access(0x4000);
    EXPECT_FALSE(first.hit);
    EXPECT_EQ(first.latency, llc.missLatency());
    const auto second = llc.access(0x4000);
    EXPECT_TRUE(second.hit);
    EXPECT_EQ(second.latency, llc.hitLatency());
}

TEST(InstMemory, DemandMissFillsAndHits)
{
    Llc llc(LlcParams{});
    InstMemory mem(InstMemoryParams{}, llc);

    const auto miss = mem.demandFetch(0x8000, 100);
    EXPECT_FALSE(miss.l1Hit);
    EXPECT_EQ(miss.readyAt, 100 + llc.missLatency());

    // After the fill completes the block hits.
    const auto hit = mem.demandFetch(0x8000, miss.readyAt + 1);
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_EQ(hit.readyAt, miss.readyAt + 1);
}

TEST(InstMemory, InFlightDemandSeesResidualLatency)
{
    Llc llc(LlcParams{});
    InstMemory mem(InstMemoryParams{}, llc);

    const Cycle done = mem.prefetch(0x8000, 100);
    EXPECT_GT(done, 100u);
    const auto res = mem.demandFetch(0x8000, 110);
    EXPECT_FALSE(res.l1Hit);
    EXPECT_TRUE(res.wasInFlight);
    EXPECT_EQ(res.readyAt, done);
    EXPECT_EQ(mem.stats().get("demandInFlightHits"), 1u);
}

TEST(InstMemory, RedundantPrefetchIsCheap)
{
    Llc llc(LlcParams{});
    InstMemory mem(InstMemoryParams{}, llc);
    mem.prefetch(0x8000, 100);
    mem.prefetch(0x8000, 101);
    EXPECT_EQ(mem.stats().get("prefetchIssued"), 1u);
    EXPECT_EQ(mem.stats().get("prefetchRedundant"), 1u);
}

TEST(InstMemory, PerfectL1INeverMisses)
{
    Llc llc(LlcParams{});
    InstMemoryParams params;
    params.perfectL1I = true;
    InstMemory mem(params, llc);
    const auto res = mem.demandFetch(0xdead0040, 5);
    EXPECT_TRUE(res.l1Hit);
    EXPECT_EQ(res.readyAt, 5u);
    EXPECT_TRUE(mem.resident(0xdead0040, 5));
}

TEST(InstMemory, FillAndEvictHooks)
{
    Llc llc(LlcParams{});
    InstMemoryParams params;
    params.l1iBytes = 2 * kBlockBytes;  // tiny: one set, two ways
    params.l1iWays = 2;
    InstMemory mem(params, llc);

    std::vector<std::pair<Addr, bool>> fills;
    std::vector<Addr> evictions;
    auto record_fill = [&](Addr block, bool pf, Cycle) {
        fills.emplace_back(block, pf);
    };
    auto record_evict = [&](Addr block) { evictions.push_back(block); };
    mem.setFillHook(InstMemory::FillHook::callable(&record_fill));
    mem.setEvictHook(InstMemory::EvictHook::callable(&record_evict));

    mem.demandFetch(0x0000, 1);
    mem.prefetch(0x0040, 2);
    mem.demandFetch(0x0080, 3);  // evicts 0x0000 (LRU)

    ASSERT_EQ(fills.size(), 3u);
    EXPECT_FALSE(fills[0].second);
    EXPECT_TRUE(fills[1].second);
    ASSERT_EQ(evictions.size(), 1u);
    EXPECT_EQ(evictions[0], 0x0000u);
}

namespace
{

/** The one-set, two-way L1-I of InstMemory.FillAndEvictHooks. */
InstMemoryParams
twoBlockL1I()
{
    InstMemoryParams params;
    params.l1iBytes = 2 * kBlockBytes;
    params.l1iWays = 2;
    return params;
}

constexpr Addr kBlockA = 0x0000;
constexpr Addr kBlockB = 0x0040;
constexpr Addr kBlockC = 0x0080;

} // namespace

TEST(InstMemory, EvictedFillStaysInFlightUntilItsReadyCycle)
{
    Llc llc(LlcParams{});
    InstMemory mem(twoBlockL1I(), llc);
    const Cycle ready_a = mem.demandFetch(kBlockA, 1).readyAt;
    const Cycle ready_b = mem.demandFetch(kBlockB, 2).readyAt;
    mem.demandFetch(kBlockC, 3);  // evicts A, whose fill is in flight
    ASSERT_EQ(ready_a, 1 + llc.missLatency());
    ASSERT_FALSE(mem.residentOrInFlight(kBlockA));

    // A's fill still holds its MSHR until its data arrives.
    EXPECT_EQ(mem.inFlightSize(), 3u);
    EXPECT_EQ(mem.inFlightCount(ready_a - 1), 3u);
    EXPECT_EQ(mem.inFlightCount(ready_a), 2u);
    EXPECT_LE(mem.minInFlightReady(), ready_a);

    // The next probe at A's ready cycle retires it, and only it.
    EXPECT_EQ(mem.prefetch(kBlockB, ready_a), ready_b);
    EXPECT_EQ(mem.inFlightSize(), 2u);
    EXPECT_EQ(mem.inFlightCount(ready_a), 2u);
    EXPECT_GT(mem.minInFlightReady(), ready_a);
}

TEST(InstMemory, RefetchOfAnEvictedInFlightBlockKeepsOneFill)
{
    Llc llc(LlcParams{});
    InstMemory mem(twoBlockL1I(), llc);
    const Cycle old_ready = mem.demandFetch(kBlockA, 1).readyAt;
    mem.demandFetch(kBlockB, 2);
    mem.demandFetch(kBlockC, 3);  // evicts A in flight

    // The re-fetch hits in the LLC, so it lands before the old fill.
    const InstMemory::FetchResult refetch = mem.demandFetch(kBlockA, 10);
    EXPECT_FALSE(refetch.l1Hit);
    EXPECT_FALSE(refetch.wasInFlight);
    const Cycle new_ready = 10 + llc.hitLatency();
    ASSERT_EQ(refetch.readyAt, new_ready);
    ASSERT_LT(new_ready, old_ready);

    // One fill per block: A's entry now holds the new ready cycle.
    EXPECT_EQ(mem.inFlightSize(), 3u);
    EXPECT_EQ(mem.inFlightCount(new_ready - 1), 3u);
    EXPECT_EQ(mem.inFlightCount(new_ready), 2u);
    const InstMemory::FetchResult wait = mem.demandFetch(kBlockA, 20);
    EXPECT_TRUE(wait.wasInFlight);
    EXPECT_EQ(wait.readyAt, new_ready);
    EXPECT_TRUE(mem.demandFetch(kBlockA, new_ready).l1Hit);
    EXPECT_EQ(mem.inFlightSize(), 2u);  // no stale entry at old_ready
}

TEST(InstMemory, WarmReinstallWaitsForTheBlocksLiveFill)
{
    // warmTouch and warmPrefetch keep no fill state of their own, but a
    // block they reinstall while its evicted fill is still live is not
    // ready before that fill's data arrives.
    for (const bool touch : {true, false}) {
        SCOPED_TRACE(touch ? "warmTouch" : "warmPrefetch");
        Llc llc(LlcParams{});
        InstMemory mem(twoBlockL1I(), llc);
        const Cycle ready_a = mem.demandFetch(kBlockA, 1).readyAt;
        mem.demandFetch(kBlockB, 2);
        mem.demandFetch(kBlockC, 3);  // evicts A in flight
        if (touch)
            EXPECT_FALSE(mem.warmTouch(kBlockA, 4));
        else
            mem.warmPrefetch(kBlockA, 4);
        ASSERT_TRUE(mem.residentOrInFlight(kBlockA));
        EXPECT_FALSE(mem.resident(kBlockA, ready_a - 1));
        EXPECT_TRUE(mem.resident(kBlockA, ready_a));

        const InstMemory::FetchResult res = mem.demandFetch(kBlockA, 5);
        EXPECT_FALSE(res.l1Hit);
        EXPECT_TRUE(res.wasInFlight);
        EXPECT_EQ(res.readyAt, ready_a);
        EXPECT_TRUE(mem.demandFetch(kBlockA, ready_a).l1Hit);
    }
}

TEST(InstMemory, WarmInstallWithoutALiveFillIsReady)
{
    Llc llc(LlcParams{});
    InstMemory mem(twoBlockL1I(), llc);
    EXPECT_FALSE(mem.warmTouch(kBlockA, 1));
    mem.warmPrefetch(kBlockB, 1);
    EXPECT_EQ(mem.inFlightSize(), 0u);
    EXPECT_TRUE(mem.resident(kBlockA, 1));
    EXPECT_TRUE(mem.resident(kBlockB, 1));
    EXPECT_TRUE(mem.demandFetch(kBlockA, 2).l1Hit);
    EXPECT_EQ(mem.prefetch(kBlockB, 2), 2u);
}

TEST(InstMemory, ResidentOnlyFromTheReadyCycleOn)
{
    Llc llc(LlcParams{});
    InstMemory mem(twoBlockL1I(), llc);
    const Cycle ready = mem.prefetch(kBlockA, 100);
    EXPECT_TRUE(mem.residentOrInFlight(kBlockA));
    EXPECT_FALSE(mem.resident(kBlockA, 100));
    EXPECT_FALSE(mem.resident(kBlockA, ready - 1));
    EXPECT_TRUE(mem.resident(kBlockA, ready));
    EXPECT_TRUE(mem.resident(kBlockA, ready + 1000));
    EXPECT_FALSE(mem.resident(kBlockB, ready));
}

TEST(InstMemory, InFlightCount)
{
    Llc llc(LlcParams{});
    InstMemory mem(InstMemoryParams{}, llc);
    mem.prefetch(0x8000, 100);
    mem.prefetch(0x8040, 100);
    EXPECT_EQ(mem.inFlightCount(101), 2u);
    EXPECT_EQ(mem.inFlightCount(100 + llc.missLatency() + 1), 0u);
}
