/** @file Tests for PhantomBTB: temporal groups, prefetch buffer, sharing. */

#include <gtest/gtest.h>

#include "btb/phantom_btb.hh"
#include "btb_test_util.hh"

using namespace cfl;
using cfl::test::branchAt;

namespace
{

PhantomBtbParams
smallParams()
{
    PhantomBtbParams p;
    p.l1Entries = 8;
    p.l1Ways = 4;
    p.prefetchBufferEntries = 16;
    p.groupSize = 3;
    p.numGroups = 64;
    p.regionInsts = 32;
    p.llcLatency = 20;
    return p;
}

} // namespace

TEST(PhantomSharedHistory, GroupFormationOnFullGroups)
{
    PhantomSharedHistory hist(smallParams());
    const BtbEntryData e{BranchKind::Uncond, 0x9000};
    hist.recordMiss(0, 0x1000, e);
    hist.recordMiss(0, 0x1010, e);
    EXPECT_EQ(hist.numGroups(), 0u) << "group commits only when full";
    hist.recordMiss(0, 0x1020, e);
    EXPECT_EQ(hist.numGroups(), 1u);

    const PhantomGroup *g = hist.findGroup(hist.regionOf(0x1000));
    ASSERT_NE(g, nullptr);
    EXPECT_EQ(g->entries.size(), 3u);
    EXPECT_EQ(g->entries[0].pc, 0x1000u);
}

TEST(PhantomSharedHistory, GroupTaggedByTriggerRegion)
{
    PhantomSharedHistory hist(smallParams());
    const BtbEntryData e{BranchKind::Uncond, 0x9000};
    // The trigger (first miss) sets the region tag even if later misses
    // land elsewhere.
    hist.recordMiss(0, 0x1000, e);
    hist.recordMiss(0, 0x8000, e);
    hist.recordMiss(0, 0xf000, e);
    EXPECT_NE(hist.findGroup(hist.regionOf(0x1000)), nullptr);
    EXPECT_EQ(hist.findGroup(hist.regionOf(0x8000)), nullptr);
}

TEST(PhantomSharedHistory, PerCoreFormation)
{
    PhantomSharedHistory hist(smallParams());
    const BtbEntryData e{BranchKind::Uncond, 0x9000};
    // Interleaved misses from two cores must not mix groups.
    hist.recordMiss(0, 0x1000, e);
    hist.recordMiss(1, 0x2000, e);
    hist.recordMiss(0, 0x1010, e);
    hist.recordMiss(1, 0x2010, e);
    hist.recordMiss(0, 0x1020, e);
    const PhantomGroup *g = hist.findGroup(hist.regionOf(0x1000));
    ASSERT_NE(g, nullptr);
    for (const auto &[pc, entry] : g->entries)
        EXPECT_LT(pc, 0x2000u) << "core 1 misses leaked into core 0 group";
}

TEST(PhantomBtb, GroupPrefetchArrivesAfterLlcLatency)
{
    const PhantomBtbParams params = smallParams();
    auto hist = std::make_shared<PhantomSharedHistory>(params);
    PhantomBtb btb(params, hist, 0);

    // Learn three misses: forms and commits a group triggered at 0x1000.
    btb.learn(0x1000, BranchKind::Uncond, 0x9000, 0);
    btb.learn(0x1010, BranchKind::Uncond, 0x9100, 1);
    btb.learn(0x1020, BranchKind::Uncond, 0x9200, 2);

    // Evict them from the tiny L1 by learning conflicting entries.
    for (int i = 0; i < 8; ++i)
        btb.learn(0x4000 + i * 8, BranchKind::Uncond, 0x9000, 3);

    // A miss in the trigger region at t=100 launches the group fetch.
    EXPECT_FALSE(btb.lookup(branchAt(0x1004), 100).hit);

    // Before arrival the entries are still absent.
    EXPECT_FALSE(btb.lookup(branchAt(0x1010), 105).hit);

    // After the LLC round trip the group landed in the prefetch buffer.
    const auto res = btb.lookup(branchAt(0x1010), 100 + params.llcLatency);
    ASSERT_TRUE(res.hit);
    EXPECT_EQ(res.entry.target, 0x9100u);
    EXPECT_GE(btb.stats().get("prefetchBufferHits"), 1u);
}

TEST(PhantomBtb, L1HitNeedsNoGroup)
{
    auto params = smallParams();
    auto hist = std::make_shared<PhantomSharedHistory>(params);
    PhantomBtb btb(params, hist, 0);
    btb.learn(0x1000, BranchKind::Cond, 0x9000, 0);
    const auto res = btb.lookup(branchAt(0x1000, BranchKind::Cond), 1);
    ASSERT_TRUE(res.hit);
    EXPECT_EQ(res.stallCycles, 0u);
}

TEST(PhantomBtb, SharedHistoryServesOtherCores)
{
    const PhantomBtbParams params = smallParams();
    auto hist = std::make_shared<PhantomSharedHistory>(params);
    PhantomBtb writer(params, hist, 0);
    PhantomBtb reader(params, hist, 1);

    writer.learn(0x1000, BranchKind::Uncond, 0x9000, 0);
    writer.learn(0x1010, BranchKind::Uncond, 0x9100, 1);
    writer.learn(0x1020, BranchKind::Uncond, 0x9200, 2);

    // Core 1 never learned these branches; a miss in the region pulls
    // the group written by core 0.
    EXPECT_FALSE(reader.lookup(branchAt(0x1000), 50).hit);
    const auto res =
        reader.lookup(branchAt(0x1010), 50 + params.llcLatency);
    EXPECT_TRUE(res.hit);
}
