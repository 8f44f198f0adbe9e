/**
 * @file Parameterized property tests: invariants that must hold across
 * sweeps of structure geometries and workloads (TEST_P suites).
 */

#include <gtest/gtest.h>

#include "btb/air_btb.hh"
#include "btb/conventional_btb.hh"
#include "btb_test_util.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "sim/experiment.hh"

using namespace cfl;
using cfl::test::branchAt;

// ---------------------------------------------------------------------
// Property: a set-associative store never exceeds capacity and re-finds
// everything it holds, for any (sets, ways) geometry.

class AssocGeometry
    : public ::testing::TestWithParam<std::pair<std::size_t, unsigned>>
{
};

TEST_P(AssocGeometry, CapacityAndRetrieval)
{
    const auto [sets, ways] = GetParam();
    AssocCache<int> cache(sets, ways, 0);
    Rng rng(1234);

    std::vector<std::uint64_t> keys;
    for (std::size_t i = 0; i < sets * ways * 4; ++i) {
        const std::uint64_t key = rng.next() % (sets * ways * 8);
        if (cache.find(key) == nullptr)
            cache.insert(key, static_cast<int>(key));
        ASSERT_LE(cache.size(), sets * ways);
        keys.push_back(key);
    }
    // Every resident value equals its key (no cross-set corruption).
    cache.forEach([](std::uint64_t key, const int &value) {
        ASSERT_EQ(static_cast<int>(key), value);
    });
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AssocGeometry,
    ::testing::Values(std::make_pair<std::size_t, unsigned>(1, 1),
                      std::make_pair<std::size_t, unsigned>(1, 32),
                      std::make_pair<std::size_t, unsigned>(16, 1),
                      std::make_pair<std::size_t, unsigned>(16, 4),
                      std::make_pair<std::size_t, unsigned>(128, 4),
                      std::make_pair<std::size_t, unsigned>(64, 8)));

// ---------------------------------------------------------------------
// Property: BTB miss rate decreases monotonically with capacity
// (Figure 1's premise), for every workload.

class BtbCapacityMonotone : public ::testing::TestWithParam<WorkloadId>
{
};

TEST_P(BtbCapacityMonotone, MissesShrinkWithEntries)
{
    FunctionalConfig fc;
    fc.warmupInsts = 80000;
    fc.measureInsts = 150000;
    double prev = 1e18;
    for (const std::size_t entries : {1024, 4096, 16384}) {
        const auto r = runConventionalBtbStudy(GetParam(), entries, 4, 0,
                                               false, fc);
        EXPECT_LE(r.btbMpki(), prev + 0.5)
            << entries << " entries on " << workloadName(GetParam());
        prev = r.btbMpki();
    }
    // OLTP Oracle is calibrated to keep benefiting beyond 16K entries
    // (Figure 1 / Section 2.1), so its bound is looser; at this reduced
    // test budget cold misses also inflate its MPKI.
    const double bound = GetParam() == WorkloadId::OltpOracle ? 18.0 : 10.0;
    EXPECT_LT(prev, bound) << "16K entries should capture most branches";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, BtbCapacityMonotone,
    ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadId> &info) {
        return workloadSlug(info.param);
    });

// ---------------------------------------------------------------------
// Property: AirBTB never reports a hit with a wrong target for direct
// branches, across bundle/overflow geometries.

class AirBtbGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(AirBtbGeometry, HitsCarryCorrectDirectTargets)
{
    const auto [branch_entries, overflow] = GetParam();
    const Program &program = workloadProgram(WorkloadId::DssQry);
    Predecoder pre;
    AirBtbParams params;
    params.bundles = 64;
    params.ways = 4;
    params.branchEntries = branch_entries;
    params.overflowEntries = overflow;
    params.syncWithL1I = false;
    AirBtb btb(params, program.image, pre);

    ExecEngine engine(program, EngineParams{77, 0.5, 0.02});
    for (int i = 0; i < 150000; ++i) {
        const DynInst inst = engine.next();
        if (!inst.isBranch())
            continue;
        const auto res = btb.lookup(inst, i);
        if (res.hit) {
            ASSERT_EQ(res.entry.kind, inst.kind)
                << "AirBTB returned a wrong branch kind";
            if (hasDirectTarget(inst.kind)) {
                ASSERT_EQ(res.entry.target, inst.target)
                    << "direct targets are static: a hit must be exact";
            }
        } else if (inst.taken) {
            btb.learn(inst.pc, inst.kind,
                      hasDirectTarget(inst.kind) ? inst.target : 0, i);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    BundleShapes, AirBtbGeometry,
    ::testing::Values(std::make_pair(1u, 0u), std::make_pair(3u, 0u),
                      std::make_pair(3u, 32u), std::make_pair(4u, 32u),
                      std::make_pair(8u, 8u)));

// ---------------------------------------------------------------------
// Property: conventional BTB hits also always carry exact targets.

class ConvBtbWorkload : public ::testing::TestWithParam<WorkloadId>
{
};

TEST_P(ConvBtbWorkload, HitsCarryCorrectDirectTargets)
{
    const Program &program = workloadProgram(GetParam());
    ConventionalBtb btb({2048, 4, 64});
    ExecEngine engine(program, EngineParams{31, 0.5, 0.02});
    for (int i = 0; i < 120000; ++i) {
        const DynInst inst = engine.next();
        if (!inst.isBranch())
            continue;
        const auto res = btb.lookup(inst, i);
        if (res.hit && hasDirectTarget(inst.kind)) {
            ASSERT_EQ(res.entry.target, inst.target);
        }
        if (!res.hit && inst.taken)
            btb.learn(inst.pc, inst.kind,
                      hasDirectTarget(inst.kind) ? inst.target : 0, i);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ConvBtbWorkload, ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadId> &info) {
        return workloadSlug(info.param);
    });

// ---------------------------------------------------------------------
// Property: Figure 10's shape — adding the overflow buffer never hurts
// AirBTB coverage, and B:4 never does worse than B:3.

class AirBtbSweepWorkload : public ::testing::TestWithParam<WorkloadId>
{
  protected:
    double
    mpkiFor(unsigned branch_entries, unsigned overflow)
    {
        FunctionalConfig fc;
        fc.warmupInsts = 80000;
        fc.measureInsts = 150000;
        FunctionalSetup setup;
        setup.useL1I = true;
        setup.useShift = true;
        const SystemConfig cfg = makeSystemConfig(1);
        return runFunctionalStudy(
            GetParam(), setup, cfg, fc,
            [&](const Program &program, const Predecoder &pre) {
                AirBtbParams p;
                p.branchEntries = branch_entries;
                p.overflowEntries = overflow;
                return std::make_unique<AirBtb>(p, program.image, pre);
            })
            .btbMpki();
    }
};

TEST_P(AirBtbSweepWorkload, OverflowAndBundleSizeHelp)
{
    const double b3_ob0 = mpkiFor(3, 0);
    const double b3_ob32 = mpkiFor(3, 32);
    const double b4_ob32 = mpkiFor(4, 32);
    EXPECT_LE(b3_ob32, b3_ob0 + 0.2);
    EXPECT_LE(b4_ob32, b3_ob32 + 0.2);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, AirBtbSweepWorkload,
    ::testing::Values(WorkloadId::OltpDb2, WorkloadId::WebFrontend,
                      WorkloadId::DssQry),
    [](const ::testing::TestParamInfo<WorkloadId> &info) {
        return workloadSlug(info.param);
    });
