#include "trace/engine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cfl
{

ExecEngine::ExecEngine(const Program &program, const EngineParams &params)
    : program_(program), params_(params)
{
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
    cfl_assert(cursor_.position() == 0,
               "attachTrace after instructions were consumed");
    cfl_assert(&trace->program() == &program_,
               "trace generated from another program");
    trace_ = std::move(trace);
    cursor_.attach(*trace_);
}

void
ExecEngine::fastForward(std::uint64_t n)
{
    if (n != 0)
        cursor(n).seek(cursor_.position() + n);
}

void
ExecEngine::extend(std::uint64_t end)
{
    // Doubling bounds the regeneration a long consumer causes to the
    // length it finally reads.
    constexpr std::uint64_t kMinInsts = 1 << 16;
    cfl_assert(end <= TraceBuffer::kMaxInsts,
               "stream position %llu past the longest trace",
               static_cast<unsigned long long>(end));
    const std::uint64_t length =
        std::min(TraceBuffer::kMaxInsts,
                 std::max({end, 2 * cursor_.size(), kMinInsts}));
    const std::uint64_t pos = cursor_.position();
    trace_ = std::make_shared<const TraceBuffer>(program_, params_, length);
    cursor_.attach(*trace_);
    cursor_.seek(pos);
}

} // namespace cfl
