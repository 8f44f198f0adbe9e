/**
 * @file
 * Static program representation for the synthetic scale-out workloads.
 *
 * A Program bundles the code image with the oracle metadata the execution
 * engine needs to steer control flow: per-branch behaviour parameters
 * (bias, loop trip counts, indirect target sets) and the request dispatch
 * structure (entry loop + request handler entry points).
 *
 * The branch metadata is a dense table: `branches` is indexed by
 * BranchInfo::id, and ids follow address order, so branch b falls
 * through to branch b + 1. `firstBranch` holds one 32-bit entry per
 * image instruction: the id of the first branch at or after it. That
 * one table serves lookup and execution: branchAt() is two loads and a
 * compare, and control flow steps from branch to branch, because a
 * direct branch records the first branch at or after its target
 * (BranchInfo::targetBranch) and an indirect or return target's next
 * branch is one firstBranch load away. An outcome trace
 * (trace/trace_buffer.hh) is decoded against this table.
 *
 * The front-end simulator never reads this metadata directly — it sees
 * only the dynamic instruction stream and the raw code image, exactly like
 * hardware.
 */

#ifndef CFL_WORKLOADS_PROGRAM_HH
#define CFL_WORKLOADS_PROGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/code_image.hh"
#include "isa/inst.hh"

namespace cfl
{

/** Oracle behaviour metadata for one static branch site. */
struct BranchInfo
{
    // The fields control flow reads at every dynamic branch come first.
    Addr pc = 0;                   ///< address of the branch
    Addr target = 0;               ///< direct target (Cond/Uncond/Call)
    std::uint32_t id = 0;          ///< dense static branch id
    std::uint32_t targetBranch = 0; ///< first branch at or after target
    BranchKind kind = BranchKind::None;
    bool isLoopBack = false;       ///< Cond backedge of a loop
    std::uint8_t tripBase = 0;     ///< minimum loop trip count
    std::uint8_t tripRange = 0;    ///< trip varies in [base, base+range]
    std::uint32_t indirectSet = 0; ///< index into Program::indirectSets
    double bias = 0.5;             ///< P(taken) shaping for Cond branches
};

/** A function's layout metadata (for reporting and tests). */
struct FunctionInfo
{
    Addr entry = 0;
    Addr limit = 0;        ///< one past the last instruction
    unsigned layer = 0;    ///< software-stack layer (0 = request handlers)
};

/** A complete synthetic program. */
struct Program
{
    std::string name;
    CodeImage image;

    /** Branch-site oracle metadata, indexed by BranchInfo::id (ids
     *  ascend with the branch address). */
    std::vector<BranchInfo> branches;

    /** One entry per image instruction: the id of the first branch at
     *  or after it (branches.size() past the last branch). */
    std::vector<std::uint32_t> firstBranch;

    /** Target sets for indirect branches. */
    std::vector<std::vector<Addr>> indirectSets;

    /** Entry of the top-level dispatch loop. */
    Addr entry = 0;

    /** PC of the dispatcher's indirect call (request boundary marker). */
    Addr dispatchCallPc = 0;

    /** Request handler entry points (targets of the dispatch call). */
    std::vector<Addr> handlers;

    /** Number of distinct request types the workload serves. */
    unsigned numRequestTypes = 1;

    /** All functions, for analysis. */
    std::vector<FunctionInfo> functions;

    Program() : image(0x10000) {}

    /** Metadata of the branch at @p pc; nullptr for a non-branch, a pc
     *  outside the image, or a misaligned pc. */
    const BranchInfo *branchAt(Addr pc) const
    {
        // Below the base the subtraction wraps past every slot.
        const Addr offset = pc - image.base();
        if (offset % kInstBytes != 0 ||
            offset / kInstBytes >= firstBranch.size())
            return nullptr;
        const std::uint32_t id = firstBranch[offset / kInstBytes];
        return id < branches.size() && branches[id].pc == pc
                   ? &branches[id]
                   : nullptr;
    }

    /** Id of the first branch at or after @p pc, an aligned address
     *  inside the image. */
    std::uint32_t firstBranchAt(Addr pc) const
    {
        return firstBranch[(pc - image.base()) / kInstBytes];
    }

    /** Static branch-per-block density over the whole image. */
    double staticBranchDensity() const;

    /** Number of static branch sites. */
    std::size_t numStaticBranches() const { return branches.size(); }
};

/**
 * Incremental program builder used by the workload generator.
 *
 * The builder emits instructions sequentially and resolves forward
 * branch targets with labels + fixups.
 */
class ProgramBuilder
{
  public:
    explicit ProgramBuilder(std::string name);

    /** An opaque forward-reference label. */
    using Label = std::uint32_t;

    /** Create an unbound label. */
    Label newLabel();

    /** Bind @p label to the current emission address. */
    void bind(Label label);

    /** Current emission address. */
    Addr here() const;

    /** Emit @p count non-branch instructions. */
    void emitStraight(unsigned count);

    /** Emit a conditional branch to @p label with taken-bias @p bias. */
    void emitCondTo(Label label, double bias);

    /** Emit a conditional loop backedge to an already-bound address. */
    void emitLoopBack(Addr head, std::uint8_t trip_base,
                      std::uint8_t trip_range);

    /** Emit an unconditional jump to @p label. */
    void emitJumpTo(Label label);

    /** Emit an unconditional jump to an already-bound address. */
    void emitJumpBack(Addr target);

    /** Emit a direct call to an address resolved later via patchCalls. */
    void emitCallTo(Addr callee);

    /** Emit an indirect call through target set @p set_id. */
    void emitIndirectCall(std::uint32_t set_id);

    /** Emit a return. */
    void emitReturn();

    /** Align to the next 64B block boundary (function alignment). */
    void alignBlock();

    /** Register an indirect target set; returns its id. */
    std::uint32_t addIndirectSet(std::vector<Addr> targets);

    /** Record a function's extent. */
    void noteFunction(Addr entry, Addr limit, unsigned layer);

    /**
     * Size the image and branch table for about @p insts instructions
     * and @p branches branches (an estimate; both still grow past it).
     */
    void reserve(std::size_t insts, std::size_t branches);

    /**
     * Resolve all labels, build the branch-at-or-after table, verify
     * that control flow cannot leave the image (every target and every
     * fall-through reaches a branch), and return the finished program.
     * The builder must not be used after.
     */
    Program finish(Addr entry, Addr dispatch_call_pc,
                   std::vector<Addr> handlers, unsigned num_request_types);

  private:
    struct Fixup
    {
        std::uint32_t branch; ///< id of the branch to patch
        Label label;
    };

    /** Append @p info as the branch at @p pc; returns its id. */
    std::uint32_t recordBranch(Addr pc, BranchInfo info);

    Program program_;
    std::vector<Addr> labelAddrs_;
    std::vector<bool> labelBound_;
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace cfl

#endif // CFL_WORKLOADS_PROGRAM_HH
