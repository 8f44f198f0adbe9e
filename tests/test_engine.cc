/** @file Tests for the execution engine and branch behaviour model. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "trace/behavior.hh"
#include "trace/engine.hh"
#include "trace/trace_buffer.hh"
#include "workloads/generator.hh"
#include "workloads/suite.hh"

using namespace cfl;

namespace
{

WorkloadParams
smallParams()
{
    WorkloadParams p;
    p.layerWidths = {2, 4, 6};
    p.seed = 5;
    p.numRequestTypes = 4;
    return p;
}

} // namespace

TEST(Behavior, HabitIsDeterministicPerRequestType)
{
    BranchBehavior behavior(0.0);
    BranchInfo info;
    info.kind = BranchKind::Cond;
    info.bias = 0.5;
    const bool first = behavior.habitualDirection(0x1000, info, 3);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(behavior.habitualDirection(0x1000, info, 3), first);
}

TEST(Behavior, BiasShapesTakenFraction)
{
    BranchBehavior behavior(0.0);
    BranchInfo hi, lo;
    hi.bias = 0.9;
    lo.bias = 0.1;
    int hi_taken = 0, lo_taken = 0;
    for (std::uint32_t rt = 0; rt < 2000; ++rt) {
        hi_taken += behavior.habitualDirection(0x1000, hi, rt) ? 1 : 0;
        lo_taken += behavior.habitualDirection(0x1000, lo, rt) ? 1 : 0;
    }
    EXPECT_NEAR(hi_taken / 2000.0, 0.9, 0.05);
    EXPECT_NEAR(lo_taken / 2000.0, 0.1, 0.05);
}

TEST(Behavior, NoiseFlipsOutcomesOccasionally)
{
    BranchBehavior behavior(0.1);
    BranchInfo info;
    info.bias = 1.0;  // habit: always taken
    Rng rng(1);
    int flipped = 0;
    for (int i = 0; i < 10000; ++i) {
        if (!behavior.conditionalOutcome(0x1000, info, 0, rng))
            ++flipped;
    }
    EXPECT_NEAR(flipped / 10000.0, 0.1, 0.02);
}

TEST(Behavior, LoopTripWithinRange)
{
    BranchBehavior behavior(0.0);
    BranchInfo info;
    info.isLoopBack = true;
    info.tripBase = 3;
    info.tripRange = 4;
    for (std::uint32_t rt = 0; rt < 100; ++rt) {
        const auto trip = behavior.loopTrip(0x1000, info, rt);
        EXPECT_GE(trip, 3u);
        EXPECT_LE(trip, 7u);
    }
}

TEST(Behavior, IndirectChoiceInBounds)
{
    BranchBehavior behavior(0.05);
    BranchInfo info;
    Rng rng(2);
    for (std::uint32_t rt = 0; rt < 500; ++rt)
        EXPECT_LT(behavior.indirectChoice(0x1000, info, rt, 7, rng), 7u);
}

TEST(Engine, DeterministicStream)
{
    const Program p = generateWorkload(smallParams());
    ExecEngine a(p, EngineParams{1, 0.5, 0.02});
    ExecEngine b(p, EngineParams{1, 0.5, 0.02});
    for (int i = 0; i < 50000; ++i) {
        const DynInst &x = a.next();
        const DynInst &y = b.next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.target, y.target);
    }
}

TEST(Engine, ControlFlowIsConsistent)
{
    const Program p = generateWorkload(smallParams());
    ExecEngine e(p, EngineParams{});
    Addr expected_next = p.entry;
    for (int i = 0; i < 200000; ++i) {
        const DynInst &inst = e.next();
        ASSERT_EQ(inst.pc, expected_next)
            << "discontinuity at step " << i;
        ASSERT_TRUE(p.image.contains(inst.pc));
        if (inst.isBranch() && inst.taken) {
            ASSERT_TRUE(p.image.contains(inst.target));
        }
        expected_next = inst.nextPc();
    }
}

TEST(Engine, ServesManyRequests)
{
    const Program p = generateWorkload(smallParams());
    ExecEngine e(p, EngineParams{});
    for (int i = 0; i < 500000; ++i)
        e.next();
    EXPECT_GT(e.requestCount(), 10u)
        << "dispatch loop should cycle through requests";
}

TEST(Engine, CallStackStaysBounded)
{
    const Program p = generateWorkload(smallParams());
    ExecEngine e(p, EngineParams{});
    std::size_t max_depth = 0;
    for (int i = 0; i < 300000; ++i) {
        e.next();
        max_depth = std::max(max_depth, e.stackDepth());
    }
    // Layered call graph: depth bounded by the number of layers + 1.
    EXPECT_LE(max_depth, smallParams().layerWidths.size() + 1);
    EXPECT_GE(max_depth, 2u);
}

TEST(Engine, RecurringControlFlow)
{
    // The same request type must traverse substantially similar paths on
    // repeat visits — the property SHIFT's temporal streams rely on.
    const Program p = generateWorkload(smallParams());
    StreamGenerator gen(p, EngineParams{9, 0.5, 0.0});  // no noise

    // Blocks each request touches, and each request's type as the
    // generator draws it at the dispatcher's call. Request 0 is the
    // dispatcher prologue, not a request.
    struct Requests
    {
        const Program &program;
        const StreamGenerator &gen;
        std::vector<std::set<Addr>> blocks{std::set<Addr>()};
        std::vector<std::uint32_t> types{0u};
        Addr pc = 0;

        void
        branch(std::uint64_t, const FlowState &flow)
        {
            pc = flow.pc;
        }

        void cond(bool) {}
        void choice(std::size_t) {}

        void
        executed(const DynInst &inst)
        {
            for (Addr b = blockAlign(pc); b <= inst.pc; b += kBlockBytes)
                blocks.back().insert(b);
            if (inst.pc == program.dispatchCallPc) {
                blocks.emplace_back();
                types.push_back(gen.requestType());
            }
        }
    } requests{p, gen};
    gen.generateTo(400000, requests);

    std::map<std::uint32_t, std::set<Addr>> first_visit;
    std::map<std::uint32_t, std::set<Addr>> second_visit;
    std::map<std::uint32_t, int> visits;
    // The last request is still running.
    for (std::size_t r = 1; r + 1 < requests.blocks.size(); ++r) {
        const std::uint32_t type = requests.types[r];
        auto &count = visits[type];
        if (count == 0)
            first_visit[type] = requests.blocks[r];
        else if (count == 1)
            second_visit[type] = requests.blocks[r];
        ++count;
    }

    int compared = 0;
    for (const auto &[type, blocks] : second_visit) {
        const auto it = first_visit.find(type);
        if (it == first_visit.end() || blocks.empty())
            continue;
        std::size_t common = 0;
        for (const Addr b : blocks)
            common += it->second.count(b);
        // Without noise, repeat visits of the same type are identical.
        EXPECT_GT(static_cast<double>(common) / blocks.size(), 0.95);
        ++compared;
    }
    EXPECT_GT(compared, 0);
}
