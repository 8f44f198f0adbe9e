/**
 * @file
 * Branch-to-branch control flow over a Program, shared by the stream
 * generator and the trace decoder.
 *
 * Between two branches the dynamic stream is fixed by the static
 * branch table: it runs straight from the current pc to the first
 * branch at or after it (Program::firstBranch). Only branch outcomes
 * are dynamic, and only three kinds of them carry information: a
 * conditional's direction, an indirect branch's target choice, and a
 * return's target, which the call stack already determines.
 *
 * stepBranch() is the one per-branch routine that applies an outcome:
 * it asks an outcome source for the direction or the target choice,
 * keeps the call stack and request count, and moves the flow to the
 * next pc and its first branch. The StreamGenerator drives it with
 * outcomes drawn from the behavior model; a TraceCursor drives it with
 * outcomes read back from a TraceBuffer. The two cannot drift.
 *
 * An outcome source provides
 *   bool cond(const BranchInfo &)                      // taken?
 *   std::size_t choice(const BranchInfo &, std::size_t num_targets)
 */

#ifndef CFL_TRACE_TRACE_CURSOR_HH
#define CFL_TRACE_TRACE_CURSOR_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "isa/inst.hh"
#include "workloads/program.hh"

namespace cfl
{

class TraceBuffer;

/** Control-flow state between two dynamic instructions. */
struct FlowState
{
    Addr pc = 0;                     ///< next instruction
    std::uint32_t nextBranch = 0;    ///< first branch at or after pc
    std::uint64_t requestCount = 0;  ///< requests dispatched so far
    std::vector<Addr> stack;         ///< return addresses
};

/**
 * Execute the branch @p info, which sits at @p flow's next branch, with
 * the direction or target choice @p outcomes supplies: fills @p out
 * with the dynamic branch and moves @p flow past it.
 */
template <typename Outcomes>
inline void
stepBranch(const Program &program, const BranchInfo &info, FlowState &flow,
           Outcomes &outcomes, DynInst &out)
{
    out.pc = info.pc;
    out.kind = info.kind;
    out.requestId = static_cast<std::uint32_t>(flow.requestCount);
    out.target = info.target;

    if (info.kind == BranchKind::Cond) {
        // Selects rather than branches: the host cannot predict the
        // direction, and most dynamic branches are conditionals.
        const bool taken = outcomes.cond(info);
        out.taken = taken;
        flow.pc = taken ? info.target : info.pc + kInstBytes;
        flow.nextBranch = taken ? info.targetBranch : info.id + 1;
        return;
    }

    out.taken = true;
    switch (info.kind) {
      case BranchKind::Call:
        flow.stack.push_back(info.pc + kInstBytes);
        break;

      case BranchKind::Cond:
      case BranchKind::Uncond:
        break;

      case BranchKind::IndCall:
      case BranchKind::IndJump: {
        // The dispatcher's call is the request boundary.
        if (info.pc == program.dispatchCallPc)
            ++flow.requestCount;
        const std::vector<Addr> &targets =
            program.indirectSets[info.indirectSet];
        out.target = targets[outcomes.choice(info, targets.size())];
        if (info.kind == BranchKind::IndCall)
            flow.stack.push_back(info.pc + kInstBytes);
        flow.pc = out.target;
        flow.nextBranch = program.firstBranchAt(out.target);
        return;
      }

      case BranchKind::Return:
        cfl_assert(!flow.stack.empty(),
                   "return with empty call stack at %llx",
                   static_cast<unsigned long long>(info.pc));
        out.target = flow.stack.back();
        flow.stack.pop_back();
        flow.pc = out.target;
        flow.nextBranch = program.firstBranchAt(out.target);
        return;

      case BranchKind::None:
        cfl_panic("branch-table entry of kind None at %llx",
                  static_cast<unsigned long long>(info.pc));
    }
    flow.pc = info.target;
    flow.nextBranch = info.targetBranch;
}

/**
 * A read position in a TraceBuffer: decodes the buffered stream
 * instruction by instruction or branch to branch, and seeks anywhere
 * in it through the buffer's checkpoints. Any number of cursors can
 * read one buffer concurrently.
 */
class TraceCursor
{
  public:
    /** Bind to @p trace at instruction 0. */
    void attach(const TraceBuffer &trace);

    /** Index of the next instruction to decode. */
    std::uint64_t position() const { return pos_; }

    /** Instructions in the buffer: the cursor stops there. */
    std::uint64_t size() const { return size_; }

    /** PC of the instruction at position(). */
    Addr pc() const { return flow_.pc; }

    /** Control state before the instruction at position(). */
    const FlowState &flow() const { return flow_; }

    /**
     * Non-branch instructions before the next branch: 0 when the
     * instruction at position() is a branch. The next branch may lie
     * at or past size(), where no outcome is stored.
     */
    std::uint64_t toBranch() const { return branchPos_ - pos_; }

    /** Step over @p n non-branch instructions (n <= toBranch()). */
    void
    advance(std::uint64_t n)
    {
        pos_ += n;
        flow_.pc += n * kInstBytes;
    }

    /** Decode the branch at position() into @p out and step past it;
     *  the branch must lie inside the buffer. */
    void
    takeBranch(DynInst &out)
    {
        cfl_assert(branchPos_ < size_, "decoding past the buffered prefix");
        Reader reader{*this};
        stepBranch(*program_, branches_[flow_.nextBranch], flow_, reader,
                   out);
        ++branchCount_;
        pos_ = branchPos_ + 1;
        findBranch();
    }

    /** Decode the instruction at position() into @p out and step. */
    void
    next(DynInst &out)
    {
        if (pos_ == branchPos_) {
            takeBranch(out);
            return;
        }
        out = DynInst{};
        out.pc = flow_.pc;
        out.requestId = static_cast<std::uint32_t>(flow_.requestCount);
        advance(1);
    }

    /**
     * Move to instruction @p pos (at most size()): forward by decoding
     * when no checkpoint lies between, otherwise from the last
     * checkpoint at or before @p pos.
     */
    void seek(std::uint64_t pos);

  private:
    /** The outcome source stepBranch reads a buffer through. */
    struct Reader
    {
        TraceCursor &c;

        bool
        cond(const BranchInfo &)
        {
            const std::uint64_t i = c.condPos_++;
            return (c.condBits_[i >> 6] >> (i & 63)) & 1;
        }

        std::size_t
        choice(const BranchInfo &, std::size_t)
        {
            return c.choices_[c.choicePos_++];
        }
    };

    /** Locate the next branch after a jump of the flow's pc. */
    void
    findBranch()
    {
        branchPos_ =
            pos_ + (branches_[flow_.nextBranch].pc - flow_.pc) / kInstBytes;
    }

    const TraceBuffer *trace_ = nullptr;
    const Program *program_ = nullptr;
    const BranchInfo *branches_ = nullptr;
    const std::uint64_t *condBits_ = nullptr;
    const std::uint8_t *choices_ = nullptr;
    std::uint64_t size_ = 0;

    std::uint64_t pos_ = 0;       ///< next instruction
    std::uint64_t branchPos_ = 0; ///< position of the next branch
    std::uint64_t branchCount_ = 0; ///< branches decoded before pos_
    std::uint64_t condPos_ = 0;   ///< next conditional outcome bit
    std::uint64_t choicePos_ = 0; ///< next indirect choice byte
    FlowState flow_;
};

} // namespace cfl

#endif // CFL_TRACE_TRACE_CURSOR_HH
