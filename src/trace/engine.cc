#include "trace/engine.hh"

#include <algorithm>

#include "common/logging.hh"
#include "trace/trace_buffer.hh"
#include "workloads/generator.hh"

namespace cfl
{

ExecEngine::ExecEngine(const Program &program, const EngineParams &params)
    : program_(program),
      params_(params),
      oracle_{program, BranchBehavior(params.branchNoise), Rng(params.seed),
              params.zipfSkew, FlatMap<std::uint32_t>(), 0}
{
    cfl_assert(program_.image.contains(program.entry),
               "program entry outside image");
    cfl_assert(!program_.handlers.empty(), "program has no request handlers");
    flow_.pc = program.entry;
    flow_.nextBranch = program.firstBranchAt(program.entry);
    flow_.stack.reserve(64);
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
    cfl_assert(&trace->program() == &program_,
               "trace generated from another program");
    trace_ = std::move(trace);
    cursor_.attach(*trace_);
}

EngineSnapshot
ExecEngine::snapshot() const
{
    cfl_assert(trace_ == nullptr, "snapshot of a replaying engine");
    EngineSnapshot s;
    s.params = params_;
    s.rng = oracle_.rng;
    s.pc = flow_.pc;
    s.stack = flow_.stack;
    s.loopCounters = oracle_.loopCounters;
    s.requestType = oracle_.requestType;
    s.requestCount = flow_.requestCount;
    s.instCount = instCount_;
    return s;
}

void
ExecEngine::restore(const EngineSnapshot &snap)
{
    cfl_assert(cursor_.position() == snap.instCount &&
                   cursor_.pc() == snap.pc,
               "trace tail snapshot out of sync with replay cursor");
    restoreSnapshot(snap);
}

void
ExecEngine::skipReplay(std::uint64_t n)
{
    cfl_assert(trace_ != nullptr && !hasPeek_,
               "skipReplay outside plain replay");
    cfl_assert(cursor_.position() + n <= cursor_.size(),
               "skipReplay past the buffered prefix");
    cursor_.seek(cursor_.position() + n);
}

namespace
{

/** A generateTo sink that keeps nothing. */
struct Discard
{
    void branch(std::uint64_t, const FlowState &) {}
    void cond(bool) {}
    void choice(std::size_t) {}
};

} // namespace

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
    if (trace_ != nullptr) {
        const std::uint64_t skip =
            std::min(n, cursor_.size() - cursor_.position());
        cursor_.seek(cursor_.position() + skip);
        n -= skip;
        if (n == 0)
            return;
        // Prefix exhausted mid-skip: continue generating (and
        // discarding) from the buffer's tail state.
        restore(trace_->tailSnapshot());
    }
    Discard discard;
    generateTo(instCount_ + n, discard);
}

void
ExecEngine::restoreSnapshot(const EngineSnapshot &snap)
{
    trace_.reset();
    hasPeek_ = false;
    oracle_.rng = snap.rng;
    oracle_.loopCounters = snap.loopCounters;
    oracle_.requestType = snap.requestType;
    flow_.pc = snap.pc;
    flow_.nextBranch = program_.firstBranchAt(snap.pc);
    flow_.stack = snap.stack;
    flow_.requestCount = snap.requestCount;
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
        if (cursor_.position() < cursor_.size()) {
            cursor_.next(cur_);
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
ExecEngine::generate()
{
    const BranchInfo &info = program_.branches[flow_.nextBranch];
    if (flow_.pc == info.pc) {
        stepBranch(program_, info, flow_, oracle_, cur_);
    } else {
        cur_ = DynInst{};
        cur_.pc = flow_.pc;
        cur_.requestId = static_cast<std::uint32_t>(flow_.requestCount);
        flow_.pc += kInstBytes;
    }
    ++instCount_;
}

bool
ExecEngine::Oracle::cond(const BranchInfo &info)
{
    if (!info.isLoopBack)
        return behavior.conditionalOutcome(info.pc, info, requestType, rng);
    // The backedge is taken until the per-invocation trip count is
    // reached, then falls through and resets.
    const std::uint32_t trip = behavior.loopTrip(info.pc, info, requestType);
    std::uint32_t &count = loopCounters[info.pc];
    if (++count < trip)
        return true;
    count = 0;
    return false;
}

std::size_t
ExecEngine::Oracle::choice(const BranchInfo &info, std::size_t num_targets)
{
    if (info.pc != program.dispatchCallPc)
        return behavior.indirectChoice(info.pc, info, requestType,
                                       num_targets, rng);
    // Request boundary: draw the next request type (Zipf over types),
    // then dispatch to that type's handler.
    requestType = static_cast<std::uint32_t>(
        rng.nextZipf(program.numRequestTypes, zipfSkew));
    return hashMix(requestType * 0x9e3779b9ull) % num_targets;
}

} // namespace cfl
