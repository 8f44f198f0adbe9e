#include "trace/trace_cursor.hh"

#include <algorithm>

#include "trace/trace_buffer.hh"

namespace cfl
{

void
TraceCursor::attach(const TraceBuffer &trace)
{
    trace_ = &trace;
    program_ = &trace.program();
    branches_ = program_->branches.data();
    condBits_ = trace.condBits_.data();
    choices_ = trace.choices_.data();
    size_ = trace.size();

    pos_ = 0;
    branchCount_ = 0;
    condPos_ = 0;
    choicePos_ = 0;
    flow_.pc = program_->entry;
    flow_.nextBranch = program_->firstBranchAt(flow_.pc);
    flow_.requestCount = 0;
    flow_.stack.clear();
    findBranch();
}

void
TraceCursor::seek(std::uint64_t pos)
{
    cfl_assert(pos <= size_, "seek past the buffered prefix");
    const std::vector<TraceBuffer::Checkpoint> &checkpoints =
        trace_->checkpoints_;
    // Checkpoint k sits before branch k * kCheckpointBranches; c is the
    // number of checkpoints at or before pos.
    const std::uint64_t c =
        std::upper_bound(checkpoints.begin(), checkpoints.end(), pos,
                         [](std::uint64_t p,
                            const TraceBuffer::Checkpoint &cp) {
                             return p < cp.pos;
                         }) -
        checkpoints.begin();
    const std::uint64_t first_branch =
        c == 0 ? 0 : (c - 1) * TraceBuffer::kCheckpointBranches;
    if (pos < pos_ || first_branch > branchCount_) {
        if (c == 0) {
            attach(*trace_);
        } else {
            const TraceBuffer::Checkpoint &cp = checkpoints[c - 1];
            pos_ = cp.pos;
            branchCount_ = first_branch;
            condPos_ = cp.condBits;
            choicePos_ = cp.choices;
            flow_.pc = cp.pc;
            flow_.nextBranch = program_->firstBranchAt(cp.pc);
            flow_.requestCount = cp.requestCount;
            const auto stack = trace_->stacks_.begin() + cp.stackBegin;
            flow_.stack.assign(stack, stack + cp.stackSize);
            findBranch();
        }
    }
    DynInst skipped;
    while (branchPos_ < pos)
        takeBranch(skipped);
    advance(pos - pos_);
}

} // namespace cfl
