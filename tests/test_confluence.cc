/** @file Tests for the Confluence controller and front-end factory. */

#include <array>

#include <gtest/gtest.h>

#include "confluence/cmp.hh"
#include "sim/presets.hh"

using namespace cfl;

TEST(Factory, KindPredicates)
{
    EXPECT_TRUE(usesShift(FrontendKind::Confluence));
    EXPECT_TRUE(usesShift(FrontendKind::TwoLevelShift));
    EXPECT_TRUE(usesShift(FrontendKind::IdealBtbShift));
    EXPECT_TRUE(usesShift(FrontendKind::PhantomShift));
    EXPECT_FALSE(usesShift(FrontendKind::Fdp));
    EXPECT_FALSE(usesShift(FrontendKind::Ideal));

    EXPECT_TRUE(usesFdp(FrontendKind::Fdp));
    EXPECT_TRUE(usesFdp(FrontendKind::PhantomFdp));
    EXPECT_FALSE(usesFdp(FrontendKind::Confluence));

    EXPECT_TRUE(usesPhantom(FrontendKind::PhantomFdp));
    EXPECT_TRUE(usesPhantom(FrontendKind::PhantomShift));
    EXPECT_FALSE(usesPhantom(FrontendKind::Confluence));
}

TEST(Factory, NamesAreUnique)
{
    std::set<std::string> names;
    for (const FrontendKind k :
         {FrontendKind::Baseline, FrontendKind::Fdp,
          FrontendKind::PhantomFdp, FrontendKind::TwoLevelFdp,
          FrontendKind::PhantomShift, FrontendKind::TwoLevelShift,
          FrontendKind::IdealBtbShift, FrontendKind::Confluence,
          FrontendKind::Ideal}) {
        EXPECT_TRUE(names.insert(frontendKindName(k)).second);
    }
}

TEST(Confluence, ControllerSynchronizesBtbWithL1I)
{
    const Program &program = workloadProgram(WorkloadId::DssQry);
    Predecoder predecoder;
    Llc llc(LlcParams{});
    InstMemoryParams mem_params;
    mem_params.l1iBytes = 4 * kBlockBytes;  // tiny for fast eviction
    mem_params.l1iWays = 4;
    InstMemory mem(mem_params, llc);

    AirBtbParams air_params;
    air_params.bundles = 4;
    air_params.ways = 4;
    AirBtb btb(air_params, program.image, predecoder);
    ConfluenceController controller(mem, btb, program.image, predecoder);

    const Addr base = program.image.base();
    mem.demandFetch(base, 1);
    mem.prefetch(base + kBlockBytes, 2);
    EXPECT_EQ(btb.numBundles(), 2u);
    EXPECT_EQ(controller.blocksPredecoded(), 2u);

    // Fill beyond L1-I capacity: bundle count mirrors block count.
    for (int i = 2; i < 9; ++i)
        mem.demandFetch(base + i * kBlockBytes, 10 + i);
    EXPECT_EQ(btb.numBundles(), 4u);
    EXPECT_EQ(mem.l1i().size(), 4u);
}

TEST(Confluence, SyncInvariantHoldsDuringSimulation)
{
    // Run a short Confluence simulation and verify AirBTB's bundle count
    // tracks the L1-I block count (the Section 3.2 invariant).
    SystemConfig cfg = makeSystemConfig(1);
    Cmp cmp(FrontendKind::Confluence, WorkloadId::DssQry, cfg);
    cmp.run(30000, 30000);
    auto &core = cmp.core(0);
    auto *air = dynamic_cast<AirBtb *>(&core.btb());
    ASSERT_NE(air, nullptr);
    EXPECT_EQ(air->numBundles(), core.mem().l1i().size());
}

TEST(Confluence, LlcReservations)
{
    const SystemConfig cfg = makeSystemConfig(1);
    Llc with(cfg.llc, llcReservedBytes(FrontendKind::Confluence, cfg));
    Llc without(cfg.llc, llcReservedBytes(FrontendKind::Baseline, cfg));
    EXPECT_LT(with.cache().capacityBytes(),
              without.cache().capacityBytes());

    Llc phantom(cfg.llc, llcReservedBytes(FrontendKind::PhantomFdp, cfg));
    EXPECT_EQ(phantom.cache().capacityBytes(),
              without.cache().capacityBytes() -
                  cfg.phantom.numGroups * kBlockBytes);
}

TEST(Confluence, LlcGeometryIsPinned)
{
    // The modelled LLC array, sets x ways, per kind. capacityBytes()
    // is the nominal 8 MB minus the reservation, but the set count
    // rounds down to a power of two, so a SHIFT (204 KB) or Phantom
    // (256 KB) reservation leaves a 4 MB array (ROADMAP item 2).
    const std::pair<FrontendKind, std::size_t> pins[] = {
        {FrontendKind::Baseline, 8192},
        {FrontendKind::Fdp, 8192},
        {FrontendKind::PhantomFdp, 4096},
        {FrontendKind::TwoLevelFdp, 8192},
        {FrontendKind::PhantomShift, 4096},
        {FrontendKind::TwoLevelShift, 4096},
        {FrontendKind::IdealBtbShift, 4096},
        {FrontendKind::Confluence, 4096},
        {FrontendKind::Ideal, 8192},
    };
    const SystemConfig cfg = makeSystemConfig(1);
    for (const auto &[kind, sets] : pins) {
        Cmp cmp(kind, WorkloadId::DssQry, cfg);
        EXPECT_EQ(cmp.llc().cache().numSets(), sets) << frontendKindName(kind);
        EXPECT_EQ(cmp.llc().cache().ways(), 16u) << frontendKindName(kind);
    }
}

TEST(Cmp, TwoCoreLockstepCountersArePinned)
{
    // Quick scale runs one core, so no other golden value covers the
    // lockstep loop that interleaves several cores' LLC traffic cycle
    // by cycle. One kind per BTB type; both cores' counters, in
    // CoreMetrics field order.
    using Counters = std::array<Counter, 11>;
    struct Golden
    {
        FrontendKind kind;
        std::array<Counters, 2> cores;
    };
    const Golden golden[] = {
        {FrontendKind::Baseline,
         {{{40001, 47789, 3680, 1198, 1198, 482, 6886, 606, 195, 0, 29772},
           {40001, 62274, 3727, 1686, 1686, 621, 6920, 644, 267, 0,
            42171}}}},
        {FrontendKind::TwoLevelFdp,
         {{{40002, 43283, 3679, 573, 573, 480, 6866, 451, 294, 2916, 26698},
           {40002, 57853, 3729, 822, 822, 612, 6906, 634, 320, 3968,
            40483}}}},
        {FrontendKind::PhantomFdp,
         {{{40000, 44678, 3682, 827, 827, 526, 6872, 496, 244, 0, 26905},
           {40001, 58698, 3727, 1157, 1157, 648, 6898, 593, 312, 0,
            39908}}}},
        {FrontendKind::Confluence,
         {{{40002, 38293, 3680, 506, 506, 782, 6925, 61, 185, 0, 14283},
           {40002, 49246, 3730, 808, 808, 1001, 6986, 138, 340, 0,
            25907}}}},
        {FrontendKind::Ideal,
         {{{40002, 25771, 3681, 0, 0, 946, 6939, 0, 0, 0, 0},
           {40001, 26571, 3732, 0, 0, 1249, 7009, 0, 0, 0, 0}}}},
    };
    for (const Golden &g : golden) {
        Cmp cmp(g.kind, WorkloadId::OltpDb2, makeSystemConfig(2));
        const CmpMetrics m = cmp.run(40000, 40000);
        ASSERT_EQ(m.cores.size(), 2u);
        for (unsigned c = 0; c < 2; ++c) {
            const CoreMetrics &x = m.cores[c];
            const Counters got = {
                x.retired,          x.cycles,           x.btbTakenLookups,
                x.btbTakenMisses,   x.misfetches,       x.condMispredicts,
                x.l1iDemandFetches, x.l1iDemandMisses,  x.l1iInFlightHits,
                x.btbL2StallCycles, x.fetchMissStallCycles};
            EXPECT_EQ(got, g.cores[c])
                << frontendKindName(g.kind) << " core " << c;
        }
    }
}

TEST(Confluence, BeatsTwoLevelShiftOnBtbMisses)
{
    SystemConfig cfg = makeSystemConfig(1);
    Cmp conf(FrontendKind::Confluence, WorkloadId::OltpDb2, cfg);
    Cmp two(FrontendKind::TwoLevelShift, WorkloadId::OltpDb2, cfg);
    const CmpMetrics mc = conf.run(150000, 100000);
    const CmpMetrics mt = two.run(150000, 100000);
    // Confluence's AirBTB misses are proactively filled; the two-level
    // design pays the L2-BTB latency instead. Performance must favor
    // Confluence (Section 5.1: +8%).
    EXPECT_GT(mc.meanIpc(), mt.meanIpc());
}
