/** @file Tests for the branch prediction unit (oracle-walking BPU). */

#include <gtest/gtest.h>

#include "btb/conventional_btb.hh"
#include "btb/ideal_btb.hh"
#include "core/bpu.hh"
#include "workloads/generator.hh"

using namespace cfl;

namespace
{

struct BpuEnv
{
    explicit BpuEnv(std::unique_ptr<Btb> btb_in)
        : program(generateWorkload(smallParams())),
          engine(program, EngineParams{3, 0.5, 0.02}),
          btb(std::move(btb_in)),
          bpu(BpuParams{}, *btb, direction, ras, itc, engine)
    {
    }

    static WorkloadParams
    smallParams()
    {
        WorkloadParams p;
        p.layerWidths = {2, 4, 6};
        p.seed = 17;
        return p;
    }

    Program program;
    ExecEngine engine;
    HybridPredictor direction;
    ReturnAddressStack ras;
    IndirectTargetCache itc;
    std::unique_ptr<Btb> btb;
    Bpu bpu;
};

} // namespace

TEST(FetchRegion, BlockEnumeration)
{
    FetchRegion r;
    r.startPc = 0x1038;  // second-to-last inst of a block
    r.numInsts = 4;      // crosses into the next block
    const auto blocks = r.blocks();
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[0], 0x1000u);
    EXPECT_EQ(blocks[1], 0x1040u);

    FetchRegion empty;
    EXPECT_TRUE(empty.blocks().empty());
}

TEST(Bpu, RegionsPartitionTheOracleStream)
{
    BpuEnv env(std::make_unique<ConventionalBtb>(
        ConventionalBtbParams{256, 4, 16}));
    Counter insts = 0;
    Addr expected_start = env.program.entry;
    for (int i = 0; i < 20000; ++i) {
        const BpuResult res = env.bpu.predictNextRegion(i);
        ASSERT_EQ(res.region.startPc, expected_start)
            << "regions must tile the dynamic instruction stream";
        ASSERT_GT(res.region.numInsts, 0u);
        insts += res.region.numInsts;
        expected_start = env.engine.cursor(1).pc();
    }
    EXPECT_EQ(insts, env.bpu.instsConsumed());
}

TEST(Bpu, MisfetchesMatchTakenMisses)
{
    BpuEnv env(std::make_unique<ConventionalBtb>(
        ConventionalBtbParams{64, 4, 0}));
    for (int i = 0; i < 30000; ++i)
        env.bpu.predictNextRegion(i);
    const StatSet &s = env.bpu.stats();
    EXPECT_EQ(s.get("misfetches"), s.get("btbTakenMisses"));
    EXPECT_GT(s.get("misfetches"), 0u);
    EXPECT_LE(s.get("btbTakenMisses"), s.get("takenBranchLookups"));
}

TEST(Bpu, PerfectBtbNeverMisfetches)
{
    BpuEnv env(std::make_unique<PerfectBtb>());
    Counter bubble_regions = 0;
    for (int i = 0; i < 30000; ++i) {
        const BpuResult res = env.bpu.predictNextRegion(i);
        if (res.misfetch)
            ++bubble_regions;
    }
    EXPECT_EQ(bubble_regions, 0u);
    EXPECT_EQ(env.bpu.stats().get("btbTakenMisses"), 0u);
    // Direction mispredictions still happen with a perfect BTB.
    EXPECT_GT(env.bpu.stats().get("condMispredicts"), 0u);
}

TEST(Bpu, RegionLengthBounded)
{
    BpuEnv env(std::make_unique<PerfectBtb>());
    BpuParams params;
    for (int i = 0; i < 20000; ++i) {
        const BpuResult res = env.bpu.predictNextRegion(i);
        ASSERT_LE(res.region.numInsts, params.maxRegionInsts);
    }
}

TEST(Bpu, SmallBtbMissesMoreThanLarge)
{
    BpuEnv small(std::make_unique<ConventionalBtb>(
        ConventionalBtbParams{64, 4, 0}));
    BpuEnv large(std::make_unique<ConventionalBtb>(
        ConventionalBtbParams{16384, 4, 0}));
    for (int i = 0; i < 60000; ++i) {
        small.bpu.predictNextRegion(i);
        large.bpu.predictNextRegion(i);
    }
    EXPECT_GT(small.bpu.stats().get("btbTakenMisses"),
              2 * large.bpu.stats().get("btbTakenMisses"));
}

TEST(Bpu, DeliveryBubblesOnlyOnEvents)
{
    BpuEnv env(std::make_unique<ConventionalBtb>(
        ConventionalBtbParams{256, 4, 16}));
    for (int i = 0; i < 20000; ++i) {
        const BpuResult res = env.bpu.predictNextRegion(i);
        if (!res.misfetch && !res.mispredict)
            ASSERT_EQ(res.region.deliveryBubble, 0u);
        else
            ASSERT_GT(res.region.deliveryBubble, 0u);
    }
}
