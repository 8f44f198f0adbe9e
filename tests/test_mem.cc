/** @file Tests for caches, NoC, LLC, and the instruction-memory path. */

#include <gtest/gtest.h>

#include "common/assoc.hh"
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

TEST(Cache, HitMissAndStats)
{
    Cache cache("t", 4 * kBlockBytes, 2);
    EXPECT_FALSE(cache.access(0x1000));
    cache.insert(0x1000);
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_EQ(cache.stats().get("hits"), 1u);
    EXPECT_EQ(cache.stats().get("misses"), 1u);
}

TEST(Cache, EvictHookFires)
{
    Cache cache("t", 2 * kBlockBytes, 2);  // one set, two ways
    std::vector<Addr> evicted;
    auto record_evict = [&](Addr a) { evicted.push_back(a); };
    cache.setEvictHook(Cache::EvictHook::callable(&record_evict));
    cache.insert(0x0000);
    cache.insert(0x0040);
    cache.insert(0x0080);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 0x0000u);  // LRU victim
}

TEST(Cache, ReserveBytesShrinksCapacity)
{
    Cache cache("t", 64 * 1024, 16);
    const auto before = cache.capacityBytes();
    cache.reserveBytes(16 * 1024);
    EXPECT_EQ(cache.capacityBytes(), before - 16 * 1024);
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

TEST(InstMemory, InFlightCount)
{
    Llc llc(LlcParams{});
    InstMemory mem(InstMemoryParams{}, llc);
    mem.prefetch(0x8000, 100);
    mem.prefetch(0x8040, 100);
    EXPECT_EQ(mem.inFlightCount(101), 2u);
    EXPECT_EQ(mem.inFlightCount(100 + llc.missLatency() + 1), 0u);
}
