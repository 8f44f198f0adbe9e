#include "trace/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/trace_buffer.hh"
#include "workloads/generator.hh"

namespace cfl
{

ExecEngine::ExecEngine(const Program &program, const EngineParams &params)
    : program_(program),
      behavior_(params.branchNoise),
      rng_(params.seed),
      zipfSkew_(params.zipfSkew),
      params_(params),
      pc_(program.entry)
{
    cfl_assert(program_.image.contains(pc_), "program entry outside image");
    cfl_assert(!program_.handlers.empty(), "program has no request handlers");
    stack_.reserve(64);
}

ExecEngine::ExecEngine(const Program &program, const WorkloadParams &wparams,
                       std::uint64_t seed)
    : ExecEngine(program,
                 EngineParams{seed, wparams.zipfSkew, wparams.branchNoise})
{
}

void
ExecEngine::attachTrace(std::shared_ptr<const TraceBuffer> trace)
{
    cfl_assert(trace != nullptr, "attachTrace(nullptr)");
    cfl_assert(instCount_ == 0 && !hasPeek_,
               "attachTrace after instructions were consumed");
    trace_ = std::move(trace);
    traceCursor_ = 0;
    replaySynced_ = false;
}

EngineSnapshot
ExecEngine::snapshot() const
{
    cfl_assert(trace_ == nullptr, "snapshot of a replaying engine");
    EngineSnapshot s;
    s.params = params_;
    s.rng = rng_;
    s.pc = pc_;
    s.stack = stack_;
    s.loopCounters = loopCounters_;
    s.requestType = requestType_;
    s.requestCount = requestCount_;
    s.instCount = instCount_;
    return s;
}

void
ExecEngine::restore(const EngineSnapshot &snap)
{
    rng_ = snap.rng;
    pc_ = snap.pc;
    stack_ = snap.stack;
    loopCounters_ = snap.loopCounters;
    requestType_ = snap.requestType;
    requestCount_ = snap.requestCount;
    cfl_assert(instCount_ == snap.instCount,
               "trace tail snapshot out of sync with replay cursor");
    trace_.reset();
    traceCursor_ = 0;
}

void
ExecEngine::skipReplay(std::uint64_t n)
{
    cfl_assert(trace_ != nullptr && !hasPeek_,
               "skipReplay outside plain replay");
    cfl_assert(traceCursor_ + n <= trace_->size(),
               "skipReplay past the buffered prefix");
    traceCursor_ += n;
    instCount_ += n;
    replaySynced_ = false;
}

void
ExecEngine::fastForward(std::uint64_t n)
{
    if (n == 0)
        return;
    if (hasPeek_) {
        // The buffered instruction was already produced; dropping it
        // consumes one of the n.
        hasPeek_ = false;
        --n;
    }
    while (n > 0) {
        if (trace_ != nullptr) {
            const std::uint64_t left = trace_->size() - traceCursor_;
            const std::uint64_t skip = std::min(n, left);
            traceCursor_ += skip;
            instCount_ += skip;
            replaySynced_ = false;
            n -= skip;
            if (n == 0)
                return;
            // Prefix exhausted mid-skip: continue generating (and
            // discarding) from the buffer's tail state.
            restore(trace_->tailSnapshot());
        }
        generate();
        --n;
    }
}

void
ExecEngine::restoreSnapshot(const EngineSnapshot &snap)
{
    trace_.reset();
    traceCursor_ = 0;
    hasPeek_ = false;
    rng_ = snap.rng;
    pc_ = snap.pc;
    stack_ = snap.stack;
    loopCounters_ = snap.loopCounters;
    requestType_ = snap.requestType;
    requestCount_ = snap.requestCount;
    instCount_ = snap.instCount;
}

const DynInst &
ExecEngine::peek()
{
    if (!hasPeek_) {
        step();
        hasPeek_ = true;
    }
    return cur_;
}

const DynInst &
ExecEngine::next()
{
    if (!hasPeek_)
        step();
    hasPeek_ = false;
    return cur_;
}

void
ExecEngine::step()
{
    if (trace_ != nullptr) {
        if (traceCursor_ < trace_->size()) {
            replayStep();
            return;
        }
        // Buffered prefix exhausted: continue generating from the
        // buffer's tail state; the combined stream is bit-identical to
        // one generated from scratch.
        restore(trace_->tailSnapshot());
    }
    generate();
}

void
ExecEngine::seekReplay()
{
    const TraceBuffer &trace = *trace_;
    const std::uint32_t *pos = trace.branchPositions();
    const std::uint64_t num_branches = trace.numBranches();
    replayBranch_ =
        std::lower_bound(pos, pos + num_branches, traceCursor_) - pos;
    replayBranchPos_ =
        replayBranch_ < num_branches ? pos[replayBranch_] : trace.size();
    replayPc_ = trace.instPc(traceCursor_, replayBranch_);
    replayRequestId_ = trace.requestsBefore(replayBranch_);
    replaySynced_ = true;
}

void
ExecEngine::replayStep()
{
    const TraceBuffer &trace = *trace_;
    if (!replaySynced_)
        seekReplay();
    if (traceCursor_ == replayBranchPos_) {
        trace.readBranch(replayBranch_, cur_);
        replayPc_ = cur_.nextPc();
        ++replayBranch_;
        replayRequestId_ = trace.requestsBefore(replayBranch_);
        replayBranchPos_ = replayBranch_ < trace.numBranches()
                               ? trace.branchPositions()[replayBranch_]
                               : trace.size();
    } else {
        cur_ = DynInst{};
        cur_.pc = replayPc_;
        cur_.requestId = replayRequestId_;
        replayPc_ += kInstBytes;
    }
    ++traceCursor_;
    ++instCount_;
}

void
ExecEngine::generate()
{
    // The program's branch table doubles as the decoder: an instruction
    // without an entry is a non-branch, and a branch's kind is the one
    // its word encodes.
    cfl_assert(program_.image.contains(pc_) && isInstAligned(pc_),
               "fetch outside image: %llx",
               static_cast<unsigned long long>(pc_));
    const BranchInfo *info = program_.branchAt(pc_);

    cur_ = DynInst{};
    cur_.pc = pc_;
    cur_.requestId = static_cast<std::uint32_t>(requestCount_);
    if (info == nullptr) {
        pc_ += kInstBytes;
        ++instCount_;
        return;
    }
    const BranchKind kind = info->kind;
    cur_.kind = kind;

    switch (kind) {
      case BranchKind::None:
        cfl_panic("branch-table entry of kind None at %llx",
                  static_cast<unsigned long long>(pc_));

      case BranchKind::Cond: {
        if (info->isLoopBack) {
            // The backedge is taken until the per-invocation trip count is
            // reached, then falls through and resets.
            const std::uint32_t trip =
                behavior_.loopTrip(pc_, *info, requestType_);
            std::uint32_t &count = loopCounters_[pc_];
            ++count;
            if (count < trip) {
                cur_.taken = true;
            } else {
                cur_.taken = false;
                count = 0;
            }
        } else {
            cur_.taken =
                behavior_.conditionalOutcome(pc_, *info, requestType_, rng_);
        }
        cur_.target = info->target;
        break;
      }

      case BranchKind::Uncond: {
        cur_.taken = true;
        cur_.target = info->target;
        break;
      }

      case BranchKind::Call: {
        cur_.taken = true;
        cur_.target = info->target;
        stack_.push_back(pc_ + kInstBytes);
        break;
      }

      case BranchKind::IndCall:
      case BranchKind::IndJump: {
        const auto &targets = program_.indirectSets[info->indirectSet];
        if (pc_ == program_.dispatchCallPc) {
            // Request boundary: draw the next request type (Zipf over
            // types), then dispatch to that type's handler.
            ++requestCount_;
            requestType_ = static_cast<std::uint32_t>(
                rng_.nextZipf(program_.numRequestTypes, zipfSkew_));
            const std::size_t idx =
                hashMix(requestType_ * 0x9e3779b9ull) % targets.size();
            cur_.target = targets[idx];
        } else {
            const std::size_t idx = behavior_.indirectChoice(
                pc_, *info, requestType_, targets.size(), rng_);
            cur_.target = targets[idx];
        }
        cur_.taken = true;
        if (kind == BranchKind::IndCall)
            stack_.push_back(pc_ + kInstBytes);
        break;
      }

      case BranchKind::Return: {
        cfl_assert(!stack_.empty(), "return with empty call stack at %llx",
                   static_cast<unsigned long long>(pc_));
        cur_.taken = true;
        cur_.target = stack_.back();
        stack_.pop_back();
        break;
      }
    }

    pc_ = cur_.nextPc();
    ++instCount_;
}

} // namespace cfl
