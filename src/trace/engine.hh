/**
 * @file
 * Execution engine: turns a static Program into the dynamic instruction
 * stream (the oracle trace) one instruction at a time.
 *
 * The engine is the stand-in for Flexus full-system traces: it maintains
 * a call stack and per-loop counters, draws a new typed request at every
 * iteration of the dispatch loop (Zipf-distributed popularity), and asks
 * the BranchBehavior model for every outcome. Two engines constructed
 * with the same (program, seed) produce identical streams.
 *
 * Engines run in one of two modes:
 *  - *generation* (default): execute the program. Non-branch
 *    instructions cost a compare against the next branch's pc; every
 *    branch goes through stepBranch() with outcomes drawn from the
 *    behavior model, which draws the RNG only at branches.
 *    generateTo() runs the same steps branch to branch without
 *    materializing the instructions between them, which is how a
 *    TraceBuffer is recorded and how fastForward() discards;
 *  - *replay*: attachTrace() hands the engine an immutable, pre-generated
 *    TraceBuffer for the same (program, params) pair; next()/peek() then
 *    decode instructions from the buffer's outcomes through a
 *    TraceCursor, with no RNG or behavior-model work at all. If a
 *    consumer runs past the buffered prefix, the engine restores the
 *    generator state snapshot the buffer carries and continues
 *    generating — so a replayed stream is bit-identical to a generated
 *    one at every length.
 */

#ifndef CFL_TRACE_ENGINE_HH
#define CFL_TRACE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "isa/inst.hh"
#include "trace/behavior.hh"
#include "trace/trace_cursor.hh"
#include "workloads/generator.hh"
#include "workloads/program.hh"

namespace cfl
{

class TraceBuffer;

/** Execution-engine tunables (defaults come from the workload). */
struct EngineParams
{
    std::uint64_t seed = 0x5eed;
    double zipfSkew = 0.6;
    double branchNoise = 0.03;
};

/**
 * Complete generator state of an ExecEngine, detached from the engine.
 * A TraceBuffer stores the snapshot taken after its last instruction so
 * replay can continue generating past the buffered prefix.
 */
struct EngineSnapshot
{
    EngineParams params;
    Rng rng{0};
    Addr pc = 0;
    std::vector<Addr> stack;
    FlatMap<std::uint32_t> loopCounters;
    std::uint32_t requestType = 0;
    std::uint64_t requestCount = 0;
    std::uint64_t instCount = 0;
};

/** Generates (or replays) the dynamic instruction stream of one core. */
class ExecEngine
{
  public:
    ExecEngine(const Program &program, const EngineParams &params);

    /** Convenience: defaults drawn from the generating WorkloadParams. */
    ExecEngine(const Program &program, const WorkloadParams &wparams,
               std::uint64_t seed);

    /** Execute and return the next dynamic instruction. */
    const DynInst &next();

    /** The instruction that next() will return, without advancing. */
    const DynInst &peek();

    /**
     * Switch to replay mode: stream instructions from @p trace instead
     * of generating them. Must be called before the first instruction is
     * consumed, and the buffer must have been generated from the same
     * (program, params) pair for the stream to be faithful.
     */
    void attachTrace(std::shared_ptr<const TraceBuffer> trace);

    /** True while instructions come from an attached trace. */
    bool replaying() const { return trace_ != nullptr; }

    /**
     * The replay cursor, for consumers that walk the buffered stream
     * branch to branch (the BPU's region walks): moving it consumes the
     * stream, exactly as the same number of next() calls would. nullptr
     * when generating live or while a peek()ed instruction is pending.
     */
    TraceCursor *
    replayCursor()
    {
        return trace_ != nullptr && !hasPeek_ ? &cursor_ : nullptr;
    }

    /**
     * Advance the replay cursor past @p n instructions without
     * materializing them. The engine must be replaying with no peek
     * outstanding, and the skip must stay within the buffered prefix;
     * it is then indistinguishable from n calls to next().
     */
    void skipReplay(std::uint64_t n);

    /**
     * Advance the stream past @p n instructions without handing them to
     * a consumer. Within a replayed prefix the skip is a cursor seek;
     * past the buffer tail (or in generation mode) the engine generates
     * branch to branch and discards. A pending peek()ed instruction
     * counts as the first of the @p n. Bit-identical to n calls to
     * next(): the stream observed afterwards is the same either way.
     */
    void fastForward(std::uint64_t n);

    /**
     * Generation mode, no peek pending: run to instruction @p end (at
     * least instCount()) branch to branch. @p sink sees, for every
     * branch, sink.branch(pos, flow) with the state before it (pos is
     * the index of the instruction after the previous branch), then
     * sink.cond(taken) or sink.choice(index) for each outcome the
     * behavior model draws.
     */
    template <typename Sink>
    void generateTo(std::uint64_t end, Sink &sink);

    /** Capture the current generator state (generation mode only). */
    EngineSnapshot snapshot() const;

    /**
     * Rewind (or advance) to a previously captured snapshot of this
     * engine. Leaves replay mode if active and discards any pending
     * peek; the subsequent stream is bit-identical to the one observed
     * after the original snapshot() call.
     */
    void restoreSnapshot(const EngineSnapshot &snap);

    /** Number of requests dispatched so far. */
    std::uint64_t requestCount() const { return flow().requestCount; }

    /** Request type currently being served (generation mode). */
    std::uint32_t currentRequestType() const { return oracle_.requestType; }

    /** Total instructions executed. */
    std::uint64_t
    instCount() const
    {
        return trace_ != nullptr ? cursor_.position() : instCount_;
    }

    /** Current call-stack depth. */
    std::size_t stackDepth() const { return flow().stack.size(); }

    const Program &program() const { return program_; }

  private:
    /** Draws every dynamic outcome from the behavior model. */
    struct Oracle
    {
        const Program &program;
        BranchBehavior behavior;
        Rng rng;
        double zipfSkew;
        FlatMap<std::uint32_t> loopCounters;
        std::uint32_t requestType = 0;

        bool cond(const BranchInfo &info);
        std::size_t choice(const BranchInfo &info, std::size_t num_targets);
    };

    const FlowState &
    flow() const
    {
        return trace_ != nullptr ? cursor_.flow() : flow_;
    }

    void step();
    void generate();

    /** Leave replay mode by adopting the trace's tail snapshot. */
    void restore(const EngineSnapshot &snap);

    const Program &program_;
    EngineParams params_;
    Oracle oracle_;
    FlowState flow_;
    std::uint64_t instCount_ = 0;

    std::shared_ptr<const TraceBuffer> trace_;
    TraceCursor cursor_;

    DynInst cur_;
    bool hasPeek_ = false;
};

template <typename Sink>
void
ExecEngine::generateTo(std::uint64_t end, Sink &sink)
{
    cfl_assert(trace_ == nullptr && !hasPeek_ && end >= instCount_,
               "generateTo outside plain generation");
    struct Recorded
    {
        Oracle &oracle;
        Sink &sink;

        bool
        cond(const BranchInfo &info)
        {
            const bool taken = oracle.cond(info);
            sink.cond(taken);
            return taken;
        }

        std::size_t
        choice(const BranchInfo &info, std::size_t num_targets)
        {
            const std::size_t index = oracle.choice(info, num_targets);
            sink.choice(index);
            return index;
        }
    } outcomes{oracle_, sink};

    DynInst inst;
    while (true) {
        const BranchInfo &info = program_.branches[flow_.nextBranch];
        const std::uint64_t at =
            instCount_ + (info.pc - flow_.pc) / kInstBytes;
        if (at >= end)
            break;
        sink.branch(instCount_, flow_);
        stepBranch(program_, info, flow_, outcomes, inst);
        instCount_ = at + 1;
    }
    flow_.pc += (end - instCount_) * kInstBytes;
    instCount_ = end;
}

} // namespace cfl

#endif // CFL_TRACE_ENGINE_HH
