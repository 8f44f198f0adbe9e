#include "trace/trace_buffer.hh"

namespace cfl
{

StreamGenerator::StreamGenerator(const Program &program,
                                 const EngineParams &params)
    : program_(program),
      behavior_(params.branchNoise),
      rng_(params.seed),
      zipfSkew_(params.zipfSkew)
{
    cfl_assert(program.image.contains(program.entry),
               "program entry outside image");
    cfl_assert(!program.handlers.empty(), "program has no request handlers");
    flow_.pc = program.entry;
    flow_.nextBranch = program.firstBranchAt(program.entry);
    flow_.stack.reserve(64);
}

bool
StreamGenerator::cond(const BranchInfo &info)
{
    if (!info.isLoopBack)
        return behavior_.conditionalOutcome(info.pc, info, requestType_,
                                            rng_);
    // The backedge is taken until the per-invocation trip count is
    // reached, then falls through and resets.
    const std::uint32_t trip =
        behavior_.loopTrip(info.pc, info, requestType_);
    std::uint32_t &count = loopCounters_[info.pc];
    if (++count < trip)
        return true;
    count = 0;
    return false;
}

std::size_t
StreamGenerator::choice(const BranchInfo &info, std::size_t num_targets)
{
    if (info.pc != program_.dispatchCallPc)
        return behavior_.indirectChoice(info.pc, info, requestType_,
                                        num_targets, rng_);
    // Request boundary: draw the next request type (Zipf over types),
    // then dispatch to that type's handler.
    requestType_ = static_cast<std::uint32_t>(
        rng_.nextZipf(program_.numRequestTypes, zipfSkew_));
    return hashMix(requestType_ * 0x9e3779b9ull) % num_targets;
}

/** Appends the generator's outcomes and checkpoints to a buffer. */
struct TraceBuffer::Writer
{
    TraceBuffer &buf;
    std::uint64_t numConds = 0;

    void
    branch(std::uint64_t pos, const FlowState &flow)
    {
        if (buf.numBranches_++ % kCheckpointBranches != 0)
            return;
        buf.checkpoints_.push_back(
            {flow.pc, static_cast<std::uint32_t>(pos),
             static_cast<std::uint32_t>(numConds),
             static_cast<std::uint32_t>(buf.choices_.size()),
             static_cast<std::uint32_t>(flow.requestCount),
             static_cast<std::uint32_t>(buf.stacks_.size()),
             static_cast<std::uint32_t>(flow.stack.size())});
        buf.stacks_.insert(buf.stacks_.end(), flow.stack.begin(),
                           flow.stack.end());
    }

    void
    cond(bool taken)
    {
        if (numConds % 64 == 0)
            buf.condBits_.push_back(0);
        buf.condBits_.back() |= std::uint64_t{taken} << (numConds % 64);
        ++numConds;
    }

    void
    choice(std::size_t index)
    {
        buf.choices_.push_back(static_cast<std::uint8_t>(index));
    }

    void executed(const DynInst &) {}
};

TraceBuffer::TraceBuffer(const Program &program, const EngineParams &params,
                         std::uint64_t num_insts)
    : program_(program),
      params_(params),
      numInsts_(num_insts)
{
    cfl_assert(num_insts > 0, "empty trace buffer");
    cfl_assert(num_insts <= kMaxInsts,
               "trace too long for 32-bit checkpoint positions");

    StreamGenerator generator(program, params);
    Writer writer{*this};
    generator.generateTo(num_insts, writer);

    // Growth slack would be charged as cached bytes; drop it.
    condBits_.shrink_to_fit();
    choices_.shrink_to_fit();
    checkpoints_.shrink_to_fit();
    stacks_.shrink_to_fit();
}

std::uint64_t
TraceBuffer::bytes() const
{
    return condBits_.capacity() * sizeof(std::uint64_t) +
           choices_.capacity() +
           checkpoints_.capacity() * sizeof(Checkpoint) +
           stacks_.capacity() * sizeof(Addr);
}

std::uint64_t
TraceBuffer::arenaBytesFor(std::uint64_t num_insts)
{
    // Checkpoint call stacks grow with the program's call depth, not
    // with the trace length: allow 64 frames per checkpoint (no preset
    // nests 16 calls deep).
    constexpr std::uint64_t kFrameBytes = 64 * sizeof(Addr);
    const std::uint64_t checkpoints = num_insts / kCheckpointBranches + 1;
    return num_insts + sizeof(std::uint64_t) +
           checkpoints * (sizeof(Checkpoint) + kFrameBytes);
}

} // namespace cfl
