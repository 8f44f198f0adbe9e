/**
 * @file Runs a binary's death tests in GoogleTest's "threadsafe" style.
 *
 * The default "fast" style forks the test process as it stands, and a
 * fork carries only the calling thread: a child that exits through
 * static destructors (a SweepEngine whose workers stayed behind in the
 * parent) can crash on its way out. "threadsafe" re-executes the binary
 * and runs the death test's body from the start in the child instead.
 * Include this header in every test binary that has death tests.
 */

#ifndef CFL_TESTS_DEATH_TEST_STYLE_HH
#define CFL_TESTS_DEATH_TEST_STYLE_HH

#include <gtest/gtest.h>

// GTEST_FLAG_SET arrived in GoogleTest 1.12; older releases expose
// only the flag variable itself.
#ifndef GTEST_FLAG_SET
#define GTEST_FLAG_SET(name, value) (void)(::testing::GTEST_FLAG(name) = value)
#endif

namespace cfl::test
{

/** Sets the style once flags are parsed, before the first test. */
class ThreadsafeDeathTests : public ::testing::Environment
{
  public:
    void SetUp() override
    {
        GTEST_FLAG_SET(death_test_style, "threadsafe");
    }
};

inline ::testing::Environment *const kThreadsafeDeathTests =
    ::testing::AddGlobalTestEnvironment(new ThreadsafeDeathTests);

} // namespace cfl::test

#endif // CFL_TESTS_DEATH_TEST_STYLE_HH
