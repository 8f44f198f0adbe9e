/** @file Unit tests for the common infrastructure. */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>

#include "common/bitops.hh"
#include "common/delegate.hh"
#include "common/flat_map.hh"
#include "common/report.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/strings.hh"
#include "common/types.hh"
#include "death_test_style.hh"

using namespace cfl;

TEST(Types, BlockAlignment)
{
    EXPECT_EQ(blockAlign(0x1000), 0x1000u);
    EXPECT_EQ(blockAlign(0x103f), 0x1000u);
    EXPECT_EQ(blockAlign(0x1040), 0x1040u);
    EXPECT_EQ(blockOffset(0x1004), 4u);
    EXPECT_EQ(instIndexInBlock(0x1004), 1u);
    EXPECT_EQ(instIndexInBlock(0x103c), 15u);
    EXPECT_TRUE(isInstAligned(0x1004));
    EXPECT_FALSE(isInstAligned(0x1002));
}

TEST(Bitops, PowersAndLogs)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
}

TEST(Bitops, BitsAndMasks)
{
    EXPECT_EQ(bits(0xff00, 8, 8), 0xffull);
    EXPECT_EQ(mask(4), 0xfull);
    EXPECT_EQ(mask(0), 0ull);
    EXPECT_EQ(signExtend(0x3ffffff, 26), -1);
    EXPECT_EQ(signExtend(0x1, 26), 1);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.next(), b.next());
    Rng a2(42);
    EXPECT_NE(a2.next(), c.next());
}

TEST(Rng, BoundsRespected)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.nextBelow(17), 17u);
        const auto v = rng.nextRange(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliRoughlyCalibrated)
{
    Rng rng(11);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(Rng, ZipfSkewsLow)
{
    Rng rng(3);
    Counter low = 0, total = 20000;
    for (Counter i = 0; i < total; ++i) {
        if (rng.nextZipf(100, 1.0) < 10)
            ++low;
    }
    // With skew 1.0 the first 10% of values get far more than 10%.
    EXPECT_GT(low, total / 4);
}

TEST(Rng, HashMixAvalanche)
{
    // Flipping one input bit should flip many output bits.
    const std::uint64_t a = hashMix(0x1234);
    const std::uint64_t b = hashMix(0x1235);
    EXPECT_GE(__builtin_popcountll(a ^ b), 16);
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Stats, ScalarBasics)
{
    StatSet set("unit");
    set.scalar("a").inc();
    set.scalar("a").inc(4);
    EXPECT_EQ(set.get("a"), 5u);
    set.resetAll();
    EXPECT_EQ(set.get("a"), 0u);
}

TEST(Stats, GetDiesOnAnUnregisteredName)
{
    // Metrics are read by name; a renamed counter must fail loudly
    // instead of reading as a silent zero.
    StatSet set("unit");
    set.scalar("a").inc();
    EXPECT_DEATH(set.get("missing"), "unit: no stat named \"missing\"");
}

TEST(Report, RendersAllRows)
{
    Report r("Title", {"col1", "col2"});
    r.addRow({"a", "b"});
    r.addRow({"long-cell", "x"});
    const std::string out = r.render();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("long-cell"), std::string::npos);
    EXPECT_NE(out.find("col2"), std::string::npos);
}

TEST(Report, Formatters)
{
    EXPECT_EQ(Report::num(1.2345, 2), "1.23");
    EXPECT_EQ(Report::pct(0.931, 1), "93.1%");
    EXPECT_EQ(Report::ratio(1.3, 2), "1.30x");
}

TEST(BlockRange, CoversRegionBlocks)
{
    const BlockRange r = blockRangeOf(0x1038, 4);  // crosses into 0x1040
    EXPECT_EQ(r.first, 0x1000u);
    EXPECT_EQ(r.count, 2u);
    std::vector<Addr> blocks;
    for (const Addr b : r)
        blocks.push_back(b);
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[0], 0x1000u);
    EXPECT_EQ(blocks[1], 0x1040u);
    EXPECT_TRUE(blockRangeOf(0x1000, 0).empty());
}

TEST(FlatMap, InsertFindEraseGrow)
{
    FlatMap<int> m(8);
    for (std::uint64_t k = 0; k < 1000; ++k)
        m[k * 64] = static_cast<int>(k);
    EXPECT_EQ(m.size(), 1000u);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        const int *v = m.find(k * 64);
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(*v, static_cast<int>(k));
    }
    EXPECT_EQ(m.find(64001), nullptr);

    // Erase half, re-check, then churn through tombstones.
    for (std::uint64_t k = 0; k < 1000; k += 2)
        EXPECT_TRUE(m.erase(k * 64));
    EXPECT_FALSE(m.erase(0));
    EXPECT_EQ(m.size(), 500u);
    for (std::uint64_t k = 1; k < 1000; k += 2)
        ASSERT_NE(m.find(k * 64), nullptr);
    for (int round = 0; round < 2000; ++round) {
        m[12345] = round;
        EXPECT_TRUE(m.erase(12345));
    }
    EXPECT_EQ(m.size(), 500u);

    std::size_t visited = 0;
    m.forEach([&](std::uint64_t, const int &) { ++visited; });
    EXPECT_EQ(visited, 500u);

    // Odd-k keys below 320 are 64 (k=1) and 192 (k=3).
    m.retainIf([](std::uint64_t k, const int &) { return k < 320; });
    EXPECT_EQ(m.size(), 2u);
}

TEST(RingBuffer, FifoWrapAndGrow)
{
    RingBuffer<int> ring(2);
    for (int i = 0; i < 100; ++i) {
        ring.push_back(i);
        ring.push_back(i + 1000);
        EXPECT_EQ(ring.front(), i);
        ring.pop_front();
        EXPECT_EQ(ring.front(), i + 1000);
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());

    for (int i = 0; i < 37; ++i)
        ring.push_back(i);
    EXPECT_EQ(ring.size(), 37u);
    EXPECT_EQ(ring[0], 0);
    EXPECT_EQ(ring.back(), 36);
    EXPECT_TRUE(ring.contains(20));
    EXPECT_FALSE(ring.contains(99));
    int expect = 0;
    for (const int v : ring)
        EXPECT_EQ(v, expect++);
    ring.clear();
    EXPECT_TRUE(ring.empty());
}

namespace
{

struct Accumulator
{
    int total = 0;
    void add(int v) { total += v; }
};

} // namespace

TEST(Delegate, BindsMembersAndCallables)
{
    Accumulator acc;
    auto d = Delegate<void(int)>::bind<&Accumulator::add>(&acc);
    EXPECT_TRUE(static_cast<bool>(d));
    d(5);
    d(7);
    EXPECT_EQ(acc.total, 12);

    int seen = 0;
    auto fn = [&](int v) { seen = v; };
    auto c = Delegate<void(int)>::callable(&fn);
    c(42);
    EXPECT_EQ(seen, 42);

    Delegate<void(int)> empty;
    EXPECT_FALSE(static_cast<bool>(empty));
}

TEST(Strings, ParseUnsignedFlagAcceptsTheWholeRange)
{
    EXPECT_EQ(parseUnsignedFlag("--n", "0"), 0u);
    EXPECT_EQ(parseUnsignedFlag("--n", "17"), 17u);
    EXPECT_EQ(parseUnsignedFlag("--n", "4294967295"), 4294967295u);
}

TEST(Strings, ParseUnsignedFlagRejectsSignsSpacesJunkAndOverflow)
{
    // Each value once slipped through: a narrowed strtoul result, or a
    // sign strtoul skips past leading whitespace to accept.
    for (const char *text : {"", "-1", " -1", "+5", " 12", "12abc",
                             "4294967296", "18446744073709551617"}) {
        SCOPED_TRACE(text);
        EXPECT_DEATH(parseUnsignedFlag("--workers", text),
                     "--workers needs an unsigned integer");
    }
}

TEST(Strings, ParseUint64FlagAcceptsTheWholeRange)
{
    EXPECT_EQ(parseUint64Flag("--seed", "0"), 0u);
    EXPECT_EQ(parseUint64Flag("--seed", "4294967296"), 4294967296u);
    EXPECT_EQ(parseUint64Flag("--seed", "18446744073709551615"),
              18446744073709551615u);
}

TEST(Strings, ParseUint64FlagRejectsSignsSpacesJunkAndOverflow)
{
    // strtoull read "abc" as seed 0 and wrapped "-1" to 2^64 - 1.
    for (const char *text : {"", "abc", "-1", "+5", " 12", "12abc",
                             "18446744073709551616"}) {
        SCOPED_TRACE(text);
        EXPECT_DEATH(parseUint64Flag("--seed", text),
                     "--seed needs an unsigned integer");
    }
}

TEST(Strings, ParseDoubleFlagAcceptsDecimals)
{
    EXPECT_EQ(parseDoubleFlag("--rate", "0"), 0.0);
    EXPECT_EQ(parseDoubleFlag("--rate", "0.25"), 0.25);
    EXPECT_EQ(parseDoubleFlag("--rate", "-1.5"), -1.5);
    EXPECT_EQ(parseDoubleFlag("--rate", ".5"), 0.5);
    EXPECT_EQ(parseDoubleFlag("--rate", "25e-2"), 0.25);
}

TEST(Strings, ParseDoubleFlagRejectsSignsSpacesJunkAndNonFinite)
{
    // strtod reads "0.8x" as 0.8, " 1" and "+1" as 1, "abc" as 0, and
    // takes "inf", "nan" and hex forms.
    for (const char *text : {"", "abc", "0.8x", " 1", "+1", "-", ".", "1e",
                             "inf", "-inf", "nan", "0x10", "1e999"}) {
        SCOPED_TRACE(text);
        EXPECT_DEATH(parseDoubleFlag("--rate", text),
                     "--rate needs a finite number");
    }
}
