/**
 * @file
 * Immutable outcome trace: a pre-generated oracle stream stored as its
 * dynamic branch outcomes only.
 *
 * A TraceBuffer captures the first N dynamic instructions an ExecEngine
 * with a given (program, params) pair would produce. Everything the
 * program's static branch table already fixes (every pc, every branch's
 * kind, fall-through and direct target) is left out, the split that
 * hardware branch tracers rely on. What remains is
 *  - one bit per conditional branch (taken or not),
 *  - one byte per indirect branch: the index of its target in the
 *    branch's target set (no preset set has more than 14 targets),
 *  - a checkpoint every kCheckpointBranches branches, holding the flow
 *    state there (instruction position, stream offsets, request count
 *    and call stack), so a reader can seek without decoding from the
 *    start, and
 *  - the generator state snapshot taken *after* instruction N-1, so an
 *    engine that consumes past the buffered prefix seamlessly resumes
 *    live generation with a bit-identical stream.
 * Return targets come from the call stack the decoder keeps. That is
 * a few hundredths of a byte per instruction in the five presets.
 *
 * A TraceCursor (trace/trace_cursor.hh) decodes the buffer against the
 * program's branch table. The buffer is deeply const, so any number of
 * cursors on any threads can replay one buffer concurrently (the
 * sharing the TraceCache exploits).
 */

#ifndef CFL_TRACE_TRACE_BUFFER_HH
#define CFL_TRACE_TRACE_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/engine.hh"
#include "trace/trace_cursor.hh"
#include "workloads/program.hh"

namespace cfl
{

/** One immutable pre-generated instruction trace. */
class TraceBuffer
{
  public:
    /**
     * Generate the first @p num_insts instructions of
     * ExecEngine(program, params) and keep their branch outcomes.
     * @p program must outlive the buffer.
     */
    TraceBuffer(const Program &program, const EngineParams &params,
                std::uint64_t num_insts);

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** Instructions stored. */
    std::uint64_t size() const { return numInsts_; }

    /** Dynamic branches among them. */
    std::uint64_t numBranches() const { return numBranches_; }

    /** The program the trace decodes against. */
    const Program &program() const { return program_; }

    /** Generator state after the last stored instruction. */
    const EngineSnapshot &tailSnapshot() const { return tail_; }

    /** The parameters the trace was generated with. */
    const EngineParams &params() const { return tail_.params; }

    /** Every heap byte the buffer owns, tail snapshot and checkpoints
     *  included (for cache budgeting). */
    std::uint64_t bytes() const;

    /**
     * Bytes reserved while a buffer of @p num_insts instructions is
     * generated: a bound on its bytes() when every instruction is an
     * indirect branch and no call stack is deeper than 64 frames.
     */
    static std::uint64_t arenaBytesFor(std::uint64_t num_insts);

    /** Branches between two checkpoints. */
    static constexpr std::uint64_t kCheckpointBranches = 4096;

  private:
    friend class TraceCursor;

    /** Flow state before dynamic branch k * kCheckpointBranches. */
    struct Checkpoint
    {
        Addr pc;                    ///< next instruction's pc
        std::uint32_t pos;          ///< next instruction's index
        std::uint32_t condBits;     ///< conditional outcomes before it
        std::uint32_t choices;      ///< indirect choices before it
        std::uint32_t requestCount; ///< requests dispatched before it
        std::uint32_t stackBegin;   ///< its call stack in stacks_
        std::uint32_t stackSize;
    };

    /** Receives the generator's outcomes (ExecEngine::generateTo). */
    struct Writer;

    const Program &program_;
    std::uint64_t numInsts_;
    std::uint64_t numBranches_ = 0;

    std::vector<std::uint64_t> condBits_; ///< one bit per conditional
    std::vector<std::uint8_t> choices_;   ///< one byte per indirect
    std::vector<Checkpoint> checkpoints_;
    std::vector<Addr> stacks_;            ///< checkpoint call stacks

    EngineSnapshot tail_;
};

} // namespace cfl

#endif // CFL_TRACE_TRACE_BUFFER_HH
