/**
 * @file
 * Execution engine: one core's read position in its oracle stream.
 *
 * An ExecEngine is a TraceCursor over an immutable TraceBuffer of its
 * (program, params) stream: the shared buffer attachTrace() hands it,
 * or a private one it generates on first use. Every instruction a
 * consumer sees is decoded by that cursor: next() one at a time,
 * fastForward() by seeking through the buffer's checkpoints, and the
 * BPU's region walks branch to branch through cursor().
 *
 * A consumer that needs instructions past the buffer's end gets a
 * private buffer at least twice as long, with the cursor seeked back to
 * the same position. The stream is a pure function of (program,
 * params), so it is bit-identical at any buffer length: two engines
 * constructed with the same (program, params) produce identical
 * streams, whatever buffers they read.
 */

#ifndef CFL_TRACE_ENGINE_HH
#define CFL_TRACE_ENGINE_HH

#include <cstdint>
#include <memory>

#include "isa/inst.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_cursor.hh"
#include "workloads/generator.hh"
#include "workloads/program.hh"

namespace cfl
{

/** Reads the dynamic instruction stream of one core. */
class ExecEngine
{
  public:
    ExecEngine(const Program &program, const EngineParams &params);

    /** Convenience: defaults drawn from the generating WorkloadParams. */
    ExecEngine(const Program &program, const WorkloadParams &wparams,
               std::uint64_t seed);

    /** Decode and return the next dynamic instruction. */
    const DynInst &
    next()
    {
        cursor(1).next(cur_);
        return cur_;
    }

    /**
     * Read the stream from @p trace instead of a private buffer. Must be
     * called before the first instruction is consumed, and the buffer
     * must have been generated from the same (program, params) pair for
     * the stream to be faithful.
     */
    void attachTrace(std::shared_ptr<const TraceBuffer> trace);

    /** True once the engine reads a buffer, attached or generated. */
    bool hasTrace() const { return trace_ != nullptr; }

    /**
     * The engine's cursor, with at least @p insts instructions buffered
     * past its position. Consumers that walk the stream branch to
     * branch (the BPU's region walks) move it directly, which consumes
     * the stream exactly as the same number of next() calls would. The
     * reference stays valid, but the next call may re-point the cursor
     * at a longer buffer.
     */
    TraceCursor &
    cursor(std::uint64_t insts)
    {
        if (cursor_.size() - cursor_.position() < insts) [[unlikely]]
            extend(cursor_.position() + insts);
        return cursor_;
    }

    /** Skip @p n instructions by seeking the cursor; the stream observed
     *  afterwards is the one n calls to next() would leave. */
    void fastForward(std::uint64_t n);

    /** Number of requests dispatched so far. */
    std::uint64_t requestCount() const
    {
        return cursor_.flow().requestCount;
    }

    /** Total instructions consumed. */
    std::uint64_t instCount() const { return cursor_.position(); }

    /** Current call-stack depth. */
    std::size_t stackDepth() const { return cursor_.flow().stack.size(); }

    const Program &program() const { return program_; }

  private:
    /** Move the cursor onto a private buffer of at least @p end
     *  instructions (and at least twice the current one). */
    void extend(std::uint64_t end);

    const Program &program_;
    EngineParams params_;
    std::shared_ptr<const TraceBuffer> trace_;
    TraceCursor cursor_;
    DynInst cur_;
};

} // namespace cfl

#endif // CFL_TRACE_ENGINE_HH
