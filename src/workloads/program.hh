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
 * BranchInfo::id, and `branchSlots` holds one 32-bit entry per image
 * instruction (id + 1, or 0 for a non-branch), so branchAt() is two
 * indexed loads and synthesis allocates nothing per branch.
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
    BranchKind kind = BranchKind::None;
    Addr target = 0;               ///< direct target (Cond/Uncond/Call)
    double bias = 0.5;             ///< P(taken) shaping for Cond branches
    bool isLoopBack = false;       ///< Cond backedge of a loop
    std::uint8_t tripBase = 0;     ///< minimum loop trip count
    std::uint8_t tripRange = 0;    ///< trip varies in [base, base+range]
    std::uint32_t indirectSet = 0; ///< index into Program::indirectSets
    std::uint32_t id = 0;          ///< dense static branch id
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

    /** Branch-site oracle metadata, indexed by BranchInfo::id. */
    std::vector<BranchInfo> branches;

    /** One entry per image instruction: the branch's id + 1, or 0 when
     *  the instruction is not a branch. */
    std::vector<std::uint32_t> branchSlots;

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
            offset / kInstBytes >= branchSlots.size())
            return nullptr;
        const std::uint32_t slot = branchSlots[offset / kInstBytes];
        return slot == 0 ? nullptr : &branches[slot - 1];
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

    /** Emit an indirect jump through target set @p set_id. */
    void emitIndirectJump(std::uint32_t set_id);

    /** Emit a return. */
    void emitReturn();

    /** Align to the next 64B block boundary (function alignment). */
    void alignBlock();

    /** Register an indirect target set; returns its id. */
    std::uint32_t addIndirectSet(std::vector<Addr> targets);

    /** Record a function's extent. */
    void noteFunction(Addr entry, Addr limit, unsigned layer);

    /**
     * Resolve all labels, verify every branch target is inside the image,
     * and return the finished program. The builder must not be used after.
     */
    Program finish(Addr entry, Addr dispatch_call_pc,
                   std::vector<Addr> handlers, unsigned num_request_types);

  private:
    struct Fixup
    {
        Addr branchPc;
        Label label;
        BranchKind kind;
    };

    void recordBranch(Addr pc, BranchInfo info);

    Program program_;
    std::vector<Addr> labelAddrs_;
    std::vector<bool> labelBound_;
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace cfl

#endif // CFL_WORKLOADS_PROGRAM_HH
