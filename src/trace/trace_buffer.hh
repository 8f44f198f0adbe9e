/**
 * @file
 * Immutable branch-only storage for a pre-generated oracle trace.
 *
 * A TraceBuffer captures the first N dynamic instructions an ExecEngine
 * with a given (program, params) pair would produce, but stores only
 * the branches: the instruction index of each branch, ascending, plus
 * one 16-byte record per branch (pc and target as 32-bit image slots,
 * kind, taken, and the request count after the branch) — about 20
 * bytes per branch, where a per-instruction layout costs 22 bytes per
 * instruction. Every non-branch instruction is rebuilt on demand: it
 * sits a whole number of instructions past the previous branch's next
 * pc (or the program entry), carries that branch's request count, and
 * is otherwise all zeros. Readers address records by branch index,
 * which the region walks already hold. The buffer is deeply const, so
 * any number of engines on any threads can replay one buffer
 * concurrently (the sharing the TraceCache exploits).
 *
 * The buffer also carries the generator state snapshot taken *after*
 * instruction N-1, so an engine that consumes past the buffered prefix
 * seamlessly resumes live generation with a bit-identical stream.
 */

#ifndef CFL_TRACE_TRACE_BUFFER_HH
#define CFL_TRACE_TRACE_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/engine.hh"
#include "workloads/program.hh"

namespace cfl
{

/** One immutable pre-generated instruction trace. */
class TraceBuffer
{
  public:
    /**
     * Generate the first @p num_insts instructions of
     * ExecEngine(program, params) and keep their branches.
     */
    TraceBuffer(const Program &program, const EngineParams &params,
                std::uint64_t num_insts);

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Instructions stored. */
    std::uint64_t size() const { return numInsts_; }

    /**
     * Branch-skip predecode index: the instruction indices of every
     * branch in the trace, ascending. Shared by every replayer, it lets
     * a region walk jump from branch to branch instead of
     * materializing each non-branch instruction; entry b is the
     * position of branch record b.
     */
    const std::uint32_t *branchPositions() const
    {
        return branchPos_.data();
    }

    /** Number of entries in branchPositions(). */
    std::uint64_t numBranches() const { return branchPos_.size(); }

    /** PC of branch @p b. */
    Addr branchPc(std::uint64_t b) const { return addrOf(records_[b].pc); }

    /** Taken flag of branch @p b (touch-only walks need just this). */
    bool branchTaken(std::uint64_t b) const { return records_[b].taken; }

    /** Load branch @p b into @p out. */
    void
    readBranch(std::uint64_t b, DynInst &out) const
    {
        const Record &r = records_[b];
        out.pc = addrOf(r.pc);
        out.kind = r.kind;
        out.taken = r.taken;
        out.target = addrOf(r.target);
        out.requestId = requestsBefore(b);
    }

    /** Request count in effect from the previous branch up to and
     *  including branch @p b (numBranches() is valid: the tail). */
    std::uint32_t
    requestsBefore(std::uint64_t b) const
    {
        return b == 0 ? 0 : records_[b - 1].requestsAfter;
    }

    /**
     * PC of the instruction at position @p pos, where @p next_branch
     * is the index of the first branch at or after @p pos (or
     * numBranches() when there is none).
     */
    Addr
    instPc(std::uint64_t pos, std::uint64_t next_branch) const
    {
        if (next_branch < numBranches() && branchPos_[next_branch] == pos)
            return branchPc(next_branch);
        if (next_branch == 0)
            return startPc_ + pos * kInstBytes;
        const Record &prev = records_[next_branch - 1];
        const Addr resume =
            addrOf(prev.taken ? prev.target : prev.pc + 1);
        return resume +
               (pos - branchPos_[next_branch - 1] - 1) * kInstBytes;
    }

    /** Generator state after the last stored instruction. */
    const EngineSnapshot &tailSnapshot() const { return tail_; }

    /** The parameters the trace was generated with. */
    const EngineParams &params() const { return tail_.params; }

    /** Bytes the branch columns occupy (for cache budgeting). */
    std::uint64_t
    bytes() const
    {
        return branchPos_.capacity() * sizeof(std::uint32_t) +
               records_.capacity() * sizeof(Record);
    }

    /**
     * Upper bound on bytes() for a buffer of @p num_insts instructions:
     * every instruction a branch.
     */
    static std::uint64_t
    arenaBytesFor(std::uint64_t num_insts)
    {
        return num_insts * (sizeof(std::uint32_t) + sizeof(Record));
    }

  private:
    /** One branch; addresses are image slots (instruction indices). */
    struct Record
    {
        std::uint32_t pc;
        std::uint32_t target;
        std::uint32_t requestsAfter; ///< request count after the branch
        BranchKind kind;
        bool taken;
    };
    static_assert(sizeof(Record) == 16, "branch record grew");

    Addr addrOf(std::uint32_t slot) const
    {
        return base_ + Addr{slot} * kInstBytes;
    }

    std::uint32_t slotOf(Addr addr) const;

    Addr base_;    ///< image base: slot 0
    Addr startPc_; ///< pc of instruction 0
    std::uint64_t numInsts_;

    /** Instruction indices of every branch, ascending (predecode). */
    std::vector<std::uint32_t> branchPos_;
    std::vector<Record> records_;

    EngineSnapshot tail_;
};

} // namespace cfl

#endif // CFL_TRACE_TRACE_BUFFER_HH
