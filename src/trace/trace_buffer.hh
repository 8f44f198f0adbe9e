/**
 * @file
 * The oracle stream's generator and the immutable outcome trace it
 * writes.
 *
 * A StreamGenerator is the stand-in for Flexus full-system traces: it
 * keeps a call stack and per-loop counters, draws a new typed request
 * at every iteration of the dispatch loop (Zipf-distributed
 * popularity), and asks the BranchBehavior model for every outcome.
 * It runs branch to branch, drawing the RNG only at branches, and
 * never materializes the instructions between them. Two generators
 * with the same (program, params) produce identical streams.
 *
 * A TraceBuffer captures the first N dynamic instructions of that
 * stream. Everything the program's static branch table already fixes
 * (every pc, every branch's kind, fall-through and direct target) is
 * left out, the split that hardware branch tracers rely on. What
 * remains is
 *  - one bit per conditional branch (taken or not),
 *  - one byte per indirect branch: the index of its target in the
 *    branch's target set (no preset set has more than 14 targets), and
 *  - a checkpoint every kCheckpointBranches branches, holding the flow
 *    state there (instruction position, stream offsets, request count
 *    and call stack), so a reader can seek without decoding from the
 *    start.
 * Return targets come from the call stack the decoder keeps. That is
 * a few hundredths of a byte per instruction in the five presets.
 *
 * A TraceCursor (trace/trace_cursor.hh) decodes the buffer against the
 * program's branch table. The buffer is deeply const, so any number of
 * cursors on any threads can replay one buffer concurrently (the
 * sharing the TraceCache exploits). The stream is a pure function of
 * (program, params), so a longer buffer continues a shorter one bit for
 * bit.
 */

#ifndef CFL_TRACE_TRACE_BUFFER_HH
#define CFL_TRACE_TRACE_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/flat_map.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/behavior.hh"
#include "trace/trace_cursor.hh"
#include "workloads/program.hh"

namespace cfl
{

/** Oracle-stream tunables (defaults come from the workload). */
struct EngineParams
{
    std::uint64_t seed = 0x5eed;
    double zipfSkew = 0.6;
    double branchNoise = 0.03;
};

/** Generates the oracle stream of one (program, params) pair. */
class StreamGenerator
{
  public:
    StreamGenerator(const Program &program, const EngineParams &params);

    /**
     * Run branch to branch to instruction @p end, no earlier than the
     * last call's end. For every branch, @p sink sees
     * sink.branch(pos, flow) with the state before it (pos is the index
     * of the instruction at flow.pc), then sink.cond(taken) or
     * sink.choice(index) for each outcome the behavior model draws,
     * then sink.executed(inst) with the branch as executed.
     */
    template <typename Sink>
    void generateTo(std::uint64_t end, Sink &sink);

    /** Control state before the next instruction to generate. */
    const FlowState &flow() const { return flow_; }

    /** Request type drawn at the last dispatch (0 before the first). */
    std::uint32_t requestType() const { return requestType_; }

  private:
    bool cond(const BranchInfo &info);
    std::size_t choice(const BranchInfo &info, std::size_t num_targets);

    const Program &program_;
    BranchBehavior behavior_;
    Rng rng_;
    double zipfSkew_;
    FlatMap<std::uint32_t> loopCounters_;
    std::uint32_t requestType_ = 0;
    FlowState flow_;
    std::uint64_t pos_ = 0;
};

template <typename Sink>
void
StreamGenerator::generateTo(std::uint64_t end, Sink &sink)
{
    cfl_assert(end >= pos_, "generateTo behind the generator");
    struct Recorded
    {
        StreamGenerator &gen;
        Sink &sink;

        bool
        cond(const BranchInfo &info)
        {
            const bool taken = gen.cond(info);
            sink.cond(taken);
            return taken;
        }

        std::size_t
        choice(const BranchInfo &info, std::size_t num_targets)
        {
            const std::size_t index = gen.choice(info, num_targets);
            sink.choice(index);
            return index;
        }
    } outcomes{*this, sink};

    DynInst inst;
    while (true) {
        const BranchInfo &info = program_.branches[flow_.nextBranch];
        const std::uint64_t at = pos_ + (info.pc - flow_.pc) / kInstBytes;
        if (at >= end)
            break;
        sink.branch(pos_, flow_);
        stepBranch(program_, info, flow_, outcomes, inst);
        sink.executed(inst);
        pos_ = at + 1;
    }
    flow_.pc += (end - pos_) * kInstBytes;
    pos_ = end;
}

/** One immutable pre-generated instruction trace. */
class TraceBuffer
{
  public:
    /**
     * Generate the first @p num_insts instructions of
     * StreamGenerator(program, params) and keep their branch outcomes.
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

    /** The parameters the trace was generated with. */
    const EngineParams &params() const { return params_; }

    /** Every heap byte the buffer owns, checkpoints included (for
     *  cache budgeting). */
    std::uint64_t bytes() const;

    /**
     * Bytes reserved while a buffer of @p num_insts instructions is
     * generated: a bound on its bytes() when every instruction is an
     * indirect branch and no call stack is deeper than 64 frames.
     */
    static std::uint64_t arenaBytesFor(std::uint64_t num_insts);

    /** Longest buffer: checkpoint positions are 32-bit. */
    static constexpr std::uint64_t kMaxInsts = ~std::uint32_t{0};

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

    /** Receives the generator's outcomes. */
    struct Writer;

    const Program &program_;
    EngineParams params_;
    std::uint64_t numInsts_;
    std::uint64_t numBranches_ = 0;

    std::vector<std::uint64_t> condBits_; ///< one bit per conditional
    std::vector<std::uint8_t> choices_;   ///< one byte per indirect
    std::vector<Checkpoint> checkpoints_;
    std::vector<Addr> stacks_;            ///< checkpoint call stacks
};

} // namespace cfl

#endif // CFL_TRACE_TRACE_BUFFER_HH
