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
 *  - *generation* (default): execute the program instruction by
 *    instruction, exactly as before;
 *  - *replay*: attachTrace() hands the engine an immutable, pre-generated
 *    TraceBuffer for the same (program, params) pair; next()/peek() then
 *    stream instructions out of the buffer's branch records, rebuilding
 *    each non-branch instruction from the previous branch's next pc,
 *    with no RNG, behavior-model, or image work at all. If a consumer
 *    runs past the buffered prefix, the engine restores the generator
 *    state snapshot the buffer carries and continues generating — so a
 *    replayed stream is bit-identical to a generated one at every
 *    length.
 */

#ifndef CFL_TRACE_ENGINE_HH
#define CFL_TRACE_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "common/rng.hh"
#include "isa/inst.hh"
#include "trace/behavior.hh"
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

    /** The attached trace, or nullptr when generating live. */
    const TraceBuffer *replayBuffer() const { return trace_.get(); }

    /** Index of the next instruction next() would replay. */
    std::uint64_t replayCursor() const { return traceCursor_; }

    /** True when peek() buffered an instruction next() hasn't taken. */
    bool peekPending() const { return hasPeek_; }

    /**
     * Advance the replay cursor past @p n instructions without
     * materializing them. Callers must have consumed them some other
     * way (e.g. straight from the buffer's branch records) and must stay
     * within the buffered prefix with no peek outstanding — the skip
     * is then indistinguishable from n calls to next().
     */
    void skipReplay(std::uint64_t n);

    /**
     * Advance the stream past @p n instructions without handing them to
     * a consumer. Within a replayed prefix the skip is pure cursor
     * arithmetic; past the buffer tail (or in generation mode) the
     * engine generates and discards. A pending peek()ed instruction
     * counts as the first of the @p n. Bit-identical to n calls to
     * next(): the stream observed afterwards is the same either way.
     */
    void fastForward(std::uint64_t n);

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
    std::uint64_t requestCount() const { return requestCount_; }

    /** Request type currently being served. */
    std::uint32_t currentRequestType() const { return requestType_; }

    /** Total instructions executed. */
    std::uint64_t instCount() const { return instCount_; }

    /** Current call-stack depth. */
    std::size_t stackDepth() const { return stack_.size(); }

    const Program &program() const { return program_; }

  private:
    void step();
    void generate();

    /** Rebuild the instruction at the replay cursor into cur_. */
    void replayStep();

    /** Re-derive the sequential replay state after a cursor jump. */
    void seekReplay();

    /** Leave replay mode by adopting the trace's tail snapshot. */
    void restore(const EngineSnapshot &snap);

    const Program &program_;
    BranchBehavior behavior_;
    Rng rng_;
    double zipfSkew_;
    EngineParams params_;

    Addr pc_;
    std::vector<Addr> stack_;
    FlatMap<std::uint32_t> loopCounters_;

    std::uint32_t requestType_ = 0;
    std::uint64_t requestCount_ = 0;
    std::uint64_t instCount_ = 0;

    std::shared_ptr<const TraceBuffer> trace_;
    std::uint64_t traceCursor_ = 0;

    // Sequential replay: the next branch record, its position, and the
    // pc and request id the next non-branch instruction has. A cursor
    // jump (skipReplay, fastForward) clears replaySynced_, and the next
    // replayed instruction re-derives them.
    std::uint64_t replayBranch_ = 0;
    std::uint64_t replayBranchPos_ = 0;
    Addr replayPc_ = 0;
    std::uint32_t replayRequestId_ = 0;
    bool replaySynced_ = false;

    DynInst cur_;
    bool hasPeek_ = false;
};

} // namespace cfl

#endif // CFL_TRACE_ENGINE_HH
