/** @file Tests for the experiment harness and metric helpers. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

#include "death_test_style.hh"
#include "sim/experiment.hh"
#include "sim/metrics.hh"

using namespace cfl;

TEST(Metrics, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({1.1, 1.2, 1.3}), 1.1972, 1e-3);
    EXPECT_DOUBLE_EQ(geomean({2.5}), 2.5);
}

TEST(Metrics, GeomeanRejectsNonPositiveValues)
{
    // Never -inf/NaN: a non-positive or NaN element dies loudly, in
    // every build type, naming the offending element.
    EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
    EXPECT_DEATH(geomean({-1.0}), "positive");
    EXPECT_DEATH(geomean({2.0, std::nan(""), 3.0}), "positive");
}

TEST(Metrics, Mean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Metrics, MissCoverage)
{
    EXPECT_DOUBLE_EQ(missCoverage(7, 100), 0.93);
    EXPECT_DOUBLE_EQ(missCoverage(100, 100), 0.0);
    EXPECT_LT(missCoverage(150, 100), 0.0);  // Figure 10's negative bars
    EXPECT_DOUBLE_EQ(missCoverage(5, 0), 0.0);
}

TEST(Metrics, SpeedupAndFractionOfIdeal)
{
    EXPECT_DOUBLE_EQ(speedup(1.3, 1.0), 1.3);
    EXPECT_DOUBLE_EQ(speedup(1.0, 0.0), 0.0);
    EXPECT_NEAR(fractionOfIdeal(1.30, 1.35), 0.857, 1e-3);
    EXPECT_DOUBLE_EQ(fractionOfIdeal(1.2, 1.0), 0.0);
}

TEST(Experiment, RunScalePresets)
{
    const RunScale scale = currentScale();
    EXPECT_GT(scale.timingMeasureInsts, 0u);
    EXPECT_GT(scale.timingCores, 0u);
    const FunctionalConfig fc = functionalConfigFromScale(scale);
    EXPECT_EQ(fc.measureInsts, scale.functionalMeasureInsts);
}

TEST(Experiment, UnknownScaleNameDies)
{
    // A typo must not silently run the default scale.
    EXPECT_DEATH(
        {
            setenv("CONFLUENCE_SCALE", "quik", 1);
            currentScale();
        },
        "unknown scale \"quik\"");
}

TEST(Experiment, EmptyScaleNameIsTheDefault)
{
    const char *saved = std::getenv("CONFLUENCE_SCALE");
    const std::string restore = saved != nullptr ? saved : "";
    setenv("CONFLUENCE_SCALE", "", 1);
    const RunScale scale = currentScale();
    if (saved != nullptr)
        setenv("CONFLUENCE_SCALE", restore.c_str(), 1);
    else
        unsetenv("CONFLUENCE_SCALE");
    EXPECT_EQ(scale.timingMeasureInsts, RunScale{}.timingMeasureInsts);
    EXPECT_EQ(scale.timingCores, RunScale{}.timingCores);
}

TEST(Experiment, PaperConfigIsSixteenCores)
{
    const SystemConfig cfg = paperSystemConfig();
    EXPECT_EQ(cfg.numCores, 16u);
    EXPECT_EQ(cfg.llc.numCores, 16u);
}
