/**
 * @file Calibration tests: the paper's headline *shapes* must hold.
 *
 * These are integration tests over the full simulator; they use reduced
 * instruction budgets, so the asserted bands are intentionally loose —
 * the bench binaries reproduce the actual figures at full scale.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/sweep.hh"

using namespace cfl;

namespace
{

struct Speedups
{
    double fdp, phantom_fdp, two_fdp;
    double phantom_shift, two_shift, idealbtb_shift, confluence;
    double ideal;
};

const Speedups &
measured()
{
    static const Speedups s = [] {
        RunScale scale;
        scale.timingWarmupInsts = 500000;
        scale.timingMeasureInsts = 250000;
        scale.timingCores = 1;
        const SystemConfig cfg = makeSystemConfig(1);
        const WorkloadId wl = WorkloadId::OltpDb2;

        auto ipc = [&](FrontendKind k) {
            return evaluateSweepPoint({k, wl, scale}, cfg,
                                      kDefaultCmpSeedBase)
                .meanIpc();
        };
        const double base = ipc(FrontendKind::Baseline);
        Speedups out;
        out.fdp = ipc(FrontendKind::Fdp) / base;
        out.phantom_fdp = ipc(FrontendKind::PhantomFdp) / base;
        out.two_fdp = ipc(FrontendKind::TwoLevelFdp) / base;
        out.phantom_shift = ipc(FrontendKind::PhantomShift) / base;
        out.two_shift = ipc(FrontendKind::TwoLevelShift) / base;
        out.idealbtb_shift = ipc(FrontendKind::IdealBtbShift) / base;
        out.confluence = ipc(FrontendKind::Confluence) / base;
        out.ideal = ipc(FrontendKind::Ideal) / base;
        return out;
    }();
    return s;
}

} // namespace

TEST(Calibration, EveryDesignBeatsBaseline)
{
    const Speedups &s = measured();
    EXPECT_GT(s.fdp, 1.0);
    EXPECT_GT(s.phantom_fdp, 1.0);
    EXPECT_GT(s.two_fdp, 1.0);
    EXPECT_GT(s.confluence, 1.0);
    EXPECT_GT(s.ideal, 1.0);
}

TEST(Calibration, FdpAloneGainsLittle)
{
    // Figure 2: FDP with a 1K BTB improves performance by just ~5%.
    EXPECT_LT(measured().fdp, 1.15);
}

TEST(Calibration, BetterBtbsHelpFdp)
{
    // Figure 2 ordering: FDP < PhantomBTB+FDP < 2LevelBTB+FDP.
    const Speedups &s = measured();
    EXPECT_GT(s.phantom_fdp, s.fdp);
    EXPECT_GT(s.two_fdp, s.phantom_fdp);
}

TEST(Calibration, ConfluenceIsBestRealizableDesign)
{
    // Figure 6: Confluence is the closest realizable point to Ideal.
    const Speedups &s = measured();
    EXPECT_GT(s.confluence, s.two_shift);
    EXPECT_GT(s.confluence, s.phantom_shift);
    EXPECT_GT(s.confluence, s.two_fdp);
    EXPECT_LT(s.confluence, s.ideal);
}

TEST(Calibration, ConfluenceNearIdealBtbShift)
{
    // Figure 7: Confluence attains ~90% of IdealBTB+SHIFT's speedup.
    const Speedups &s = measured();
    const double fraction = (s.confluence - 1.0) /
                            std::max(1e-9, s.idealbtb_shift - 1.0);
    EXPECT_GT(fraction, 0.8);
}

TEST(Calibration, IdealSpeedupInPaperBand)
{
    // Section 2.3/5.1: Ideal achieves ~35% over the baseline. Allow a
    // generous band for the reduced-budget test run.
    const Speedups &s = measured();
    EXPECT_GT(s.ideal, 1.2);
    EXPECT_LT(s.ideal, 1.9);
}

TEST(Calibration, ShiftDesignsBeatFdpDesigns)
{
    // Figure 2/6: 2LevelBTB+SHIFT outperforms every FDP-based design.
    const Speedups &s = measured();
    EXPECT_GT(s.two_shift, s.fdp);
    EXPECT_GT(s.two_shift, s.phantom_fdp);
}

// ---------------------------------------------------------------------------
// Golden-value regression tests.
//
// Unlike the shape tests above, these pin the *exact* numbers the sweep
// engine produces at the quick-scale preset, so a perf refactor that
// accidentally changes simulated behaviour (instead of just running it
// faster) fails loudly. The simulator is deterministic: every value here
// is a pure function of the sweep-point seeds. If a deliberate modeling
// change shifts them, re-baseline by updating the constants — never by
// widening the tolerances.
// ---------------------------------------------------------------------------

namespace
{

/** The CONFLUENCE_SCALE=quick timing preset, spelled out explicitly so
 *  the goldens don't depend on the test process's environment. */
RunScale
quickScale()
{
    RunScale scale;
    scale.timingWarmupInsts = 800'000;
    scale.timingMeasureInsts = 400'000;
    scale.timingCores = 1;
    return scale;
}

const SweepResult &
goldenSweep()
{
    static const SweepResult r = [] {
        SweepEngine engine(2);
        return runTimingSweep(
            {FrontendKind::Baseline, FrontendKind::Confluence},
            {WorkloadId::DssQry, WorkloadId::WebFrontend},
            makeSystemConfig(1), quickScale(), engine);
    }();
    return r;
}

} // namespace

TEST(CalibrationGolden, QuickScaleGeomeanSpeedup)
{
    EXPECT_NEAR(goldenSweep().geomeanSpeedup(FrontendKind::Confluence,
                                             FrontendKind::Baseline),
                1.217584361106137, 1e-9);
}

TEST(CalibrationGolden, QuickScaleBtbMpki)
{
    const SweepResult &r = goldenSweep();
    EXPECT_NEAR(r.btbMpki(FrontendKind::Baseline, WorkloadId::DssQry),
                8.557499999999999, 1e-9);
    EXPECT_NEAR(r.btbMpki(FrontendKind::Baseline, WorkloadId::WebFrontend),
                46.867382831542919, 1e-9);
    EXPECT_NEAR(r.btbMpki(FrontendKind::Confluence, WorkloadId::DssQry),
                5.097474512627437, 1e-9);
    EXPECT_NEAR(r.btbMpki(FrontendKind::Confluence,
                          WorkloadId::WebFrontend),
                19.57, 1e-9);
}

TEST(CalibrationGolden, QuickScaleRawCounters)
{
    // Integer counters are exact: any drift at all is a behaviour change.
    const SweepResult &r = goldenSweep();
    const auto counters = [&](FrontendKind k, WorkloadId wl) {
        const SweepOutcome *o = r.find(k, wl);
        EXPECT_NE(o, nullptr);
        return o->metrics.cores.at(0);
    };

    const CoreMetrics base_dss =
        counters(FrontendKind::Baseline, WorkloadId::DssQry);
    EXPECT_EQ(base_dss.retired, 400000u);
    EXPECT_EQ(base_dss.cycles, 278308u);
    EXPECT_EQ(base_dss.btbTakenMisses, 3423u);

    const CoreMetrics base_web =
        counters(FrontendKind::Baseline, WorkloadId::WebFrontend);
    EXPECT_EQ(base_web.retired, 400001u);
    EXPECT_EQ(base_web.cycles, 356607u);
    EXPECT_EQ(base_web.btbTakenMisses, 18747u);

    const CoreMetrics cfl_dss =
        counters(FrontendKind::Confluence, WorkloadId::DssQry);
    EXPECT_EQ(cfl_dss.retired, 400002u);
    EXPECT_EQ(cfl_dss.cycles, 237071u);
    EXPECT_EQ(cfl_dss.btbTakenMisses, 2039u);

    const CoreMetrics cfl_web =
        counters(FrontendKind::Confluence, WorkloadId::WebFrontend);
    EXPECT_EQ(cfl_web.retired, 400000u);
    EXPECT_EQ(cfl_web.cycles, 282384u);
    EXPECT_EQ(cfl_web.btbTakenMisses, 7828u);
}
