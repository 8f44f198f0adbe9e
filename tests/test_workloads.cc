/** @file Tests for the program builder and workload generator. */

#include <gtest/gtest.h>

#include <bit>

#include "workloads/generator.hh"
#include "workloads/program.hh"
#include "workloads/suite.hh"

using namespace cfl;

TEST(ProgramBuilder, LabelsAndFixups)
{
    ProgramBuilder b("t");
    const auto target = b.newLabel();
    b.emitStraight(2);
    b.emitCondTo(target, 0.5);
    b.emitStraight(3);
    b.bind(target);
    b.emitStraight(1);
    const Addr call_site_target = b.here();
    b.emitStraight(1);
    b.emitCondSkip(2, 0.25);
    b.emitStraight(2);
    b.emitReturn();

    Program p = b.finish(0x10000, 0x10000, {call_site_target}, 1);
    // The conditional at inst index 2 must target the bound label.
    const Addr cond_pc = 0x10000 + 2 * kInstBytes;
    const BranchInfo *info = p.branchAt(cond_pc);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->kind, BranchKind::Cond);
    EXPECT_EQ(info->target, 0x10000u + 6 * kInstBytes);
    EXPECT_EQ(directTarget(cond_pc, p.image.at(cond_pc)), info->target);

    // The skip at inst index 8 jumps over the next two instructions
    // to the return.
    const Addr skip_pc = 0x10000 + 8 * kInstBytes;
    const BranchInfo *skip = p.branchAt(skip_pc);
    ASSERT_NE(skip, nullptr);
    EXPECT_EQ(skip->kind, BranchKind::Cond);
    EXPECT_EQ(skip->bias, 0.25);
    EXPECT_EQ(skip->target, skip_pc + 3 * kInstBytes);
    EXPECT_EQ(directTarget(skip_pc, p.image.at(skip_pc)), skip->target);
    EXPECT_EQ(skip->targetBranch, skip->id + 1);
}

TEST(ProgramBuilder, LoopBackAndJumpBack)
{
    ProgramBuilder b("t");
    const Addr head = b.here();
    b.emitStraight(3);
    b.emitLoopBack(head, 2, 3);
    b.emitJumpBack(head);
    b.emitReturn();
    Program p = b.finish(head, head, {head}, 1);

    const Addr loop_pc = head + 3 * kInstBytes;
    const BranchInfo *loop = p.branchAt(loop_pc);
    ASSERT_NE(loop, nullptr);
    EXPECT_TRUE(loop->isLoopBack);
    EXPECT_EQ(loop->target, head);
    EXPECT_EQ(loop->tripBase, 2);
    EXPECT_EQ(loop->tripRange, 3);

    const BranchInfo *jump = p.branchAt(loop_pc + kInstBytes);
    ASSERT_NE(jump, nullptr);
    EXPECT_EQ(jump->kind, BranchKind::Uncond);
    EXPECT_EQ(jump->target, head);
}

TEST(ProgramBuilder, IndirectSets)
{
    ProgramBuilder b("t");
    b.emitStraight(4);
    const Addr f1 = b.here();
    b.emitReturn();
    const Addr f2 = b.here();
    b.emitReturn();
    const auto set = b.addIndirectSet({f1, f2});
    b.emitIndirectCall(set);
    b.emitReturn();
    Program p = b.finish(0x10000, 0x10000, {f1}, 1);
    ASSERT_EQ(p.indirectSets.size(), 1u);
    EXPECT_EQ(p.indirectSets[0].size(), 2u);
}

TEST(Generator, DeterministicBySeed)
{
    WorkloadParams params;
    params.layerWidths = {2, 4, 8};
    params.seed = 99;
    const Program a = generateWorkload(params);
    const Program b = generateWorkload(params);
    EXPECT_EQ(a.image.sizeBytes(), b.image.sizeBytes());
    EXPECT_EQ(a.numStaticBranches(), b.numStaticBranches());
    EXPECT_EQ(a.entry, b.entry);

    params.seed = 100;
    const Program c = generateWorkload(params);
    EXPECT_NE(a.image.sizeBytes(), c.image.sizeBytes());
}

TEST(Generator, StructureIsWellFormed)
{
    WorkloadParams params;
    params.layerWidths = {3, 6, 9};
    const Program p = generateWorkload(params);

    EXPECT_EQ(p.handlers.size(), 3u);  // layer-0 functions
    EXPECT_GT(p.numStaticBranches(), 0u);
    EXPECT_TRUE(p.image.contains(p.entry));
    EXPECT_TRUE(p.image.contains(p.dispatchCallPc));
    // finish() already validates every direct/indirect target; touching
    // each function entry validates layout metadata.
    EXPECT_EQ(p.functions.size(), 3u + 6u + 9u + 1u);  // + dispatcher
    for (const FunctionInfo &f : p.functions) {
        EXPECT_TRUE(p.image.contains(f.entry));
        EXPECT_LE(f.limit, p.image.limit());
        EXPECT_LT(f.entry, f.limit);
    }
}

TEST(Suite, AllWorkloadsGenerate)
{
    for (const WorkloadId id : allWorkloads()) {
        const Program &p = workloadProgram(id);
        EXPECT_GT(p.image.sizeBytes(), 100u * 1024)
            << workloadName(id) << " should have a server-scale image";
        EXPECT_GT(p.numStaticBranches(), 5000u) << workloadName(id);
        EXPECT_FALSE(p.handlers.empty());
    }
}

namespace
{

/** Id of the first branch at or after @p pc, found by decoding the
 *  image word by word (branches.size() when there is none). */
std::uint32_t
firstBranchByScan(const Program &p, Addr pc)
{
    for (; pc < p.image.limit(); pc += kInstBytes)
        if (decodeKind(p.image.at(pc)) != BranchKind::None)
            return p.branchAt(pc)->id;
    return static_cast<std::uint32_t>(p.branches.size());
}

} // namespace

TEST(Suite, BranchTableMatchesTheImage)
{
    // The static counts are fixed by the generator's RNG consumption;
    // a change to either moves every downstream golden.
    struct Pin
    {
        WorkloadId id;
        std::size_t branches;
        std::size_t insts;
    };
    const Pin pins[] = {
        {WorkloadId::OltpDb2, 29163, 135799},
        {WorkloadId::OltpOracle, 68749, 418167},
        {WorkloadId::DssQry, 21319, 89991},
        {WorkloadId::MediaStreaming, 19678, 81639},
        {WorkloadId::WebFrontend, 15244, 63079},
    };
    for (const Pin &pin : pins) {
        const Program &p = workloadProgram(pin.id);
        const std::string name = workloadName(pin.id);
        EXPECT_EQ(p.numStaticBranches(), pin.branches) << name;
        EXPECT_EQ(p.image.numInsts(), pin.insts) << name;

        for (Addr pc = p.image.base(); pc < p.image.limit();
             pc += kInstBytes) {
            const InstWord word = p.image.at(pc);
            const BranchKind kind = decodeKind(word);
            const BranchInfo *info = p.branchAt(pc);
            ASSERT_EQ(info != nullptr, kind != BranchKind::None)
                << name << " pc " << std::hex << pc;
            ASSERT_EQ(p.branchAt(pc + 2), nullptr)
                << name << " misaligned pc " << std::hex << pc + 2;
            if (info == nullptr)
                continue;
            ASSERT_EQ(info->kind, kind) << name << " pc " << std::hex << pc;
            ASSERT_LT(info->id, p.branches.size());
            ASSERT_EQ(&p.branches[info->id], info);
            ASSERT_EQ(info->pc, pc);
            // The table names the fall-through's first branch, which
            // is the next id because ids follow address order.
            if (pc + kInstBytes < p.image.limit()) {
                ASSERT_EQ(p.firstBranchAt(pc + kInstBytes),
                          firstBranchByScan(p, pc + kInstBytes))
                    << name << " pc " << std::hex << pc;
            }
            if (info->id + 1 < p.branches.size()) {
                ASSERT_EQ(p.firstBranchAt(pc + kInstBytes), info->id + 1);
            }
            if (hasDirectTarget(kind)) {
                ASSERT_EQ(info->target, directTarget(pc, word))
                    << name << " pc " << std::hex << pc;
                ASSERT_EQ(info->targetBranch,
                          firstBranchByScan(p, info->target))
                    << name << " pc " << std::hex << pc;
                ASSERT_EQ(info->targetBranch, p.firstBranchAt(info->target));
            }
        }
        EXPECT_EQ(p.branchAt(p.image.base() - kInstBytes), nullptr) << name;
        EXPECT_EQ(p.branchAt(0), nullptr) << name;
        EXPECT_EQ(p.branchAt(p.image.limit()), nullptr) << name;
    }
}

namespace
{

/** FNV-1a over every table of a finished program, each value fed as
 *  its 8 little-endian bytes. */
std::uint64_t
programDigest(const Program &p)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    const auto add = [&](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    add(p.image.numInsts());
    for (Addr pc = p.image.base(); pc < p.image.limit(); pc += kInstBytes)
        add(p.image.at(pc));
    add(p.branches.size());
    for (const BranchInfo &b : p.branches) {
        add(b.pc);
        add(b.target);
        add(b.id);
        add(b.targetBranch);
        add(static_cast<std::uint64_t>(b.kind));
        add(b.isLoopBack);
        add(b.tripBase);
        add(b.tripRange);
        add(b.indirectSet);
        add(std::bit_cast<std::uint64_t>(b.bias));
    }
    add(p.firstBranch.size());
    for (const std::uint32_t id : p.firstBranch)
        add(id);
    add(p.indirectSets.size());
    for (const std::vector<Addr> &set : p.indirectSets) {
        add(set.size());
        for (const Addr target : set)
            add(target);
    }
    add(p.entry);
    add(p.dispatchCallPc);
    add(p.handlers.size());
    for (const Addr handler : p.handlers)
        add(handler);
    add(p.numRequestTypes);
    add(p.functions.size());
    for (const FunctionInfo &f : p.functions) {
        add(f.entry);
        add(f.limit);
        add(f.layer);
    }
    return hash;
}

} // namespace

TEST(Suite, ProgramsArePinned)
{
    // Every table of every preset, bit for bit: the image, each
    // BranchInfo field (bias by its bit pattern), firstBranch, the
    // indirect sets, the handlers and the functions. Synthesis may get
    // faster, but any change to what it builds moves every golden.
    const std::pair<WorkloadId, std::uint64_t> pins[] = {
        {WorkloadId::OltpDb2, 0x047fbed2297cb505ull},
        {WorkloadId::OltpOracle, 0xacb21fe72b0f1998ull},
        {WorkloadId::DssQry, 0xdeda61567a1a715cull},
        {WorkloadId::MediaStreaming, 0x64129356d9b6f43eull},
        {WorkloadId::WebFrontend, 0xd41875da81fd28a8ull},
    };
    for (const auto &[id, digest] : pins) {
        const std::uint64_t got = programDigest(workloadProgram(id));
        EXPECT_EQ(got, digest)
            << workloadName(id) << std::hex << " digest 0x" << got;
    }
}

TEST(Suite, StaticDensityTracksTable2Ordering)
{
    // Table 2: Web Frontend is densest, OLTP Oracle sparsest.
    const double web =
        workloadProgram(WorkloadId::WebFrontend).staticBranchDensity();
    const double oracle =
        workloadProgram(WorkloadId::OltpOracle).staticBranchDensity();
    const double db2 =
        workloadProgram(WorkloadId::OltpDb2).staticBranchDensity();
    EXPECT_GT(web, db2);
    EXPECT_GT(db2, oracle);
}

TEST(Suite, OracleHasLargestFootprint)
{
    std::size_t oracle_size =
        workloadProgram(WorkloadId::OltpOracle).image.sizeBytes();
    for (const WorkloadId id : allWorkloads()) {
        if (id == WorkloadId::OltpOracle)
            continue;
        EXPECT_GT(oracle_size, workloadProgram(id).image.sizeBytes());
    }
}

TEST(Suite, NamesAndSlugsAreUnique)
{
    std::set<std::string> names, slugs;
    for (const WorkloadId id : allWorkloads()) {
        EXPECT_TRUE(names.insert(workloadName(id)).second);
        EXPECT_TRUE(slugs.insert(workloadSlug(id)).second);
    }
}
