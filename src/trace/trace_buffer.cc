#include "trace/trace_buffer.hh"

#include "common/logging.hh"

namespace cfl
{

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
};

TraceBuffer::TraceBuffer(const Program &program, const EngineParams &params,
                         std::uint64_t num_insts)
    : program_(program),
      numInsts_(num_insts)
{
    cfl_assert(num_insts > 0, "empty trace buffer");
    cfl_assert(num_insts <= ~std::uint32_t{0},
               "trace too long for 32-bit checkpoint positions");

    ExecEngine engine(program, params);
    Writer writer{*this};
    engine.generateTo(num_insts, writer);
    tail_ = engine.snapshot();

    // A zero loop counter reads the same as a missing one, so the tail
    // keeps only the loops in progress.
    FlatMap<std::uint32_t> in_progress;
    tail_.loopCounters.forEach([&](std::uint64_t pc, std::uint32_t count) {
        if (count != 0)
            in_progress.assign(pc, count);
    });
    tail_.loopCounters = std::move(in_progress);

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
           stacks_.capacity() * sizeof(Addr) +
           tail_.stack.capacity() * sizeof(Addr) +
           tail_.loopCounters.heapBytes();
}

std::uint64_t
TraceBuffer::arenaBytesFor(std::uint64_t num_insts)
{
    // Call stacks and loops in progress grow with the program's call
    // depth, not with the trace length: allow 64 frames per checkpoint
    // and 4 KiB for the tail snapshot (no preset nests 16 calls deep).
    constexpr std::uint64_t kFrameBytes = 64 * sizeof(Addr);
    constexpr std::uint64_t kTailBytes = 4096;
    const std::uint64_t checkpoints = num_insts / kCheckpointBranches + 1;
    return num_insts + sizeof(std::uint64_t) +
           checkpoints * (sizeof(Checkpoint) + kFrameBytes) + kTailBytes;
}

} // namespace cfl
