/**
 * @file
 * The straight-line reference stream for stream-identity tests.
 *
 * referenceStream() drives the StreamGenerator with a sink that
 * materializes every instruction, so the reference never goes through
 * a TraceBuffer or a TraceCursor: an engine, a BPU walk or a sampling
 * tier that reads the stream through them is checked against what the
 * generator itself executed.
 */

#ifndef CFL_TESTS_REFERENCE_STREAM_HH
#define CFL_TESTS_REFERENCE_STREAM_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "trace/trace_buffer.hh"

namespace cfl::test
{

/** The first @p n instructions of (program, params), materialized. */
inline std::vector<DynInst>
referenceStream(const Program &program, const EngineParams &params,
                std::uint64_t n)
{
    struct Materialize
    {
        std::vector<DynInst> &out;
        Addr pc = 0;
        std::uint32_t request = 0;

        /** Straight-line instructions up to (not including) @p end. */
        void
        straightTo(Addr end)
        {
            for (; pc != end; pc += kInstBytes) {
                DynInst inst;
                inst.pc = pc;
                inst.requestId = request;
                out.push_back(inst);
            }
        }

        void
        branch(std::uint64_t, const FlowState &flow)
        {
            pc = flow.pc;
            request = static_cast<std::uint32_t>(flow.requestCount);
        }

        void cond(bool) {}
        void choice(std::size_t) {}

        void
        executed(const DynInst &inst)
        {
            straightTo(inst.pc);
            out.push_back(inst);
        }
    };

    std::vector<DynInst> out;
    out.reserve(n);
    StreamGenerator generator(program, params);
    Materialize sink{out};
    generator.generateTo(n, sink);
    // The straight run after the last branch.
    const FlowState &flow = generator.flow();
    sink.request = static_cast<std::uint32_t>(flow.requestCount);
    sink.pc = flow.pc - (n - out.size()) * kInstBytes;
    sink.straightTo(flow.pc);
    return out;
}

/** Field-by-field equality with the stream offset in the message. */
inline void
expectSameInst(const DynInst &got, const DynInst &want, std::uint64_t pos)
{
    ASSERT_EQ(got.pc, want.pc) << "stream diverged at offset " << pos;
    ASSERT_EQ(got.kind, want.kind) << "at offset " << pos;
    ASSERT_EQ(got.taken, want.taken) << "at offset " << pos;
    ASSERT_EQ(got.target, want.target) << "at offset " << pos;
    ASSERT_EQ(got.requestId, want.requestId) << "at offset " << pos;
}

/** True when two instructions agree field for field. */
inline bool
sameInst(const DynInst &a, const DynInst &b)
{
    return a.pc == b.pc && a.kind == b.kind && a.taken == b.taken &&
           a.target == b.target && a.requestId == b.requestId;
}

} // namespace cfl::test

#endif // CFL_TESTS_REFERENCE_STREAM_HH
