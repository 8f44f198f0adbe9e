#include "trace/trace_buffer.hh"

#include "common/logging.hh"

namespace cfl
{

TraceBuffer::TraceBuffer(const Program &program, const EngineParams &params,
                         std::uint64_t num_insts)
    : base_(program.image.base()),
      startPc_(program.entry),
      numInsts_(num_insts)
{
    cfl_assert(num_insts > 0, "empty trace buffer");
    cfl_assert(num_insts <= ~std::uint32_t{0},
               "trace too long for the 32-bit branch index");

    ExecEngine engine(program, params);
    for (std::uint64_t i = 0; i < num_insts; ++i) {
        const DynInst &inst = engine.next();
        if (inst.kind == BranchKind::None)
            continue;
        branchPos_.push_back(static_cast<std::uint32_t>(i));
        records_.push_back(
            {slotOf(inst.pc), slotOf(inst.target),
             static_cast<std::uint32_t>(engine.requestCount()), inst.kind,
             inst.taken});
    }
    tail_ = engine.snapshot();
    // Growth slack would be charged as cached bytes; drop it.
    branchPos_.shrink_to_fit();
    records_.shrink_to_fit();
}

std::uint32_t
TraceBuffer::slotOf(Addr addr) const
{
    const Addr offset = addr - base_;
    cfl_assert(offset % kInstBytes == 0 &&
                   offset / kInstBytes <= ~std::uint32_t{0},
               "trace address %llx is no image slot",
               static_cast<unsigned long long>(addr));
    return static_cast<std::uint32_t>(offset / kInstBytes);
}

} // namespace cfl
