/** @file Tests for the functional (coverage) driver. */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

using namespace cfl;

namespace
{

FunctionalConfig
quick()
{
    FunctionalConfig fc;
    fc.warmupInsts = 100000;
    fc.measureInsts = 200000;
    return fc;
}

} // namespace

TEST(Functional, CountsAreConsistent)
{
    const FunctionalResult r =
        runConventionalBtbStudy(WorkloadId::DssQry, 1024, 4, 64, true,
                                quick());
    EXPECT_EQ(r.insts, 200000u);
    EXPECT_GT(r.branches, 0u);
    EXPECT_LE(r.takenLookups, r.branches);
    EXPECT_LE(r.btbMisses, r.takenLookups);
    EXPECT_LE(r.l1iMisses, r.l1iAccesses);
    EXPECT_GT(r.l1iAccesses, 0u);
}

TEST(Functional, BtbOnlyModeSkipsL1I)
{
    const FunctionalResult r =
        runConventionalBtbStudy(WorkloadId::DssQry, 1024, 4, 64, false,
                                quick());
    EXPECT_EQ(r.l1iAccesses, 0u);
    EXPECT_GT(r.btbMisses, 0u);
}

TEST(Functional, LargerBtbMissesLess)
{
    const auto small =
        runConventionalBtbStudy(WorkloadId::OltpDb2, 1024, 4, 64, false,
                                quick());
    const auto large =
        runConventionalBtbStudy(WorkloadId::OltpDb2, 16384, 4, 0, false,
                                quick());
    EXPECT_LT(large.btbMpki(), small.btbMpki() / 2);
}

TEST(Functional, DeterministicAcrossRuns)
{
    const auto a = runConventionalBtbStudy(WorkloadId::WebFrontend, 2048,
                                           4, 0, false, quick());
    const auto b = runConventionalBtbStudy(WorkloadId::WebFrontend, 2048,
                                           4, 0, false, quick());
    EXPECT_EQ(a.btbMisses, b.btbMisses);
    EXPECT_EQ(a.takenLookups, b.takenLookups);
}

TEST(Functional, Table2DensitiesMeasured)
{
    const FunctionalResult r =
        runConventionalBtbStudy(WorkloadId::OltpDb2, 1024, 4, 64, true,
                                quick());
    EXPECT_GT(r.demandFilledBlocks, 0u);
    // Table 2 bands: static 2-5 branches per block, dynamic 0.5-2.5.
    EXPECT_GT(r.staticDensity(), 2.0);
    EXPECT_LT(r.staticDensity(), 5.0);
    EXPECT_GT(r.dynamicDensity(), 0.4);
    EXPECT_LT(r.dynamicDensity(), 2.5);
    EXPECT_LT(r.dynamicDensity(), r.staticDensity());
}

TEST(Functional, ShiftStudyCutsL1iMisses)
{
    const SystemConfig config = makeSystemConfig(1);
    FunctionalSetup plain;
    plain.useL1I = true;
    plain.useShift = false;
    FunctionalSetup with_shift;
    with_shift.useL1I = true;
    with_shift.useShift = true;

    auto conv_factory = [](const Program &, const Predecoder &) {
        return std::make_unique<ConventionalBtb>(
            ConventionalBtbParams{1024, 4, 64});
    };

    const auto base = runFunctionalStudy(WorkloadId::OltpDb2, plain,
                                         config, quick(), conv_factory);
    const auto shift = runFunctionalStudy(WorkloadId::OltpDb2, with_shift,
                                          config, quick(), conv_factory);
    EXPECT_LT(shift.l1iMpki(), 0.5 * base.l1iMpki())
        << "SHIFT must eliminate the majority of L1-I misses";
}

TEST(Functional, AirBtbWithShiftApproachesLargeBtb)
{
    const SystemConfig config = makeSystemConfig(1);
    FunctionalSetup with_shift;
    with_shift.useShift = true;

    const auto air = runFunctionalStudy(
        WorkloadId::OltpDb2, with_shift, config, quick(),
        [&](const Program &program, const Predecoder &pre) {
            return std::make_unique<AirBtb>(AirBtbParams{}, program.image,
                                            pre);
        });
    const auto small =
        runConventionalBtbStudy(WorkloadId::OltpDb2, 1024, 4, 64, true,
                                quick());
    EXPECT_LT(air.btbMpki(), 0.4 * small.btbMpki())
        << "AirBTB+SHIFT must eliminate most baseline BTB misses";
}
