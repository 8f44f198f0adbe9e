#include "workloads/generator.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"

namespace cfl
{

namespace
{

/** Transient state while laying out one program. */
struct GenState
{
    const WorkloadParams &params;
    ProgramBuilder &builder;
    Rng rng;

    /** Entry addresses per layer, filled back-to-front. */
    std::vector<std::vector<Addr>> layerEntries;

    GenState(const WorkloadParams &p, ProgramBuilder &b)
        : params(p), builder(b), rng(p.seed)
    {
    }

    unsigned
    straightLen()
    {
        return static_cast<unsigned>(
            rng.nextRange(params.minStraight, params.maxStraight));
    }

    /**
     * Emit a straight run seasoned with guard branches: rarely-taken
     * forward conditionals that skip a couple of instructions. Either
     * outcome is valid control flow, so guards raise static branch
     * density without perturbing the request path.
     */
    void
    straightRun(unsigned len)
    {
        unsigned remaining = len;
        while (remaining > 0) {
            const unsigned chunk =
                static_cast<unsigned>(rng.nextRange(1, 3));
            const unsigned take = std::min(chunk, remaining);
            builder.emitStraight(take);
            remaining -= take;
            if (remaining > 1 && rng.nextBool(params.guardProb)) {
                const unsigned body = std::min(
                    remaining,
                    static_cast<unsigned>(rng.nextRange(1, 2)));
                builder.emitCondSkip(body, params.guardBias);
                builder.emitStraight(body);
                remaining -= body;
            }
        }
    }

    double
    diamondBias()
    {
        // Conditional branches in real server code lean heavily toward
        // fall-through (error checks, uncommon cases): draw biases with
        // a mean around 0.3 so roughly a third of diamond branches are
        // taken under a given request type, while still letting request
        // types disagree on path selection.
        const double u = rng.nextDouble();
        return 0.05 + 0.55 * u;
    }

    Addr
    randomCallee(unsigned next_layer)
    {
        const auto &entries = layerEntries[next_layer];
        cfl_assert(!entries.empty(), "empty callee layer");
        // 80/20 callee popularity: most call sites target the hot
        // prefix of the layer (shared helpers/libraries).
        if (rng.nextBool(params.hotCalleeProb)) {
            const std::size_t hot = std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       entries.size() * params.hotCalleeFrac));
            return entries[rng.nextBelow(hot)];
        }
        return entries[rng.nextBelow(entries.size())];
    }

    std::vector<Addr>
    indirectTargets(unsigned next_layer)
    {
        const auto &entries = layerEntries[next_layer];
        const unsigned fanout = static_cast<unsigned>(rng.nextRange(
            params.indirectFanoutMin,
            std::min<std::uint64_t>(params.indirectFanoutMax,
                                    entries.size())));
        std::vector<Addr> targets;
        targets.reserve(fanout);
        for (unsigned i = 0; i < fanout; ++i)
            targets.push_back(entries[rng.nextBelow(entries.size())]);
        std::sort(targets.begin(), targets.end());
        targets.erase(std::unique(targets.begin(), targets.end()),
                      targets.end());
        return targets;
    }
};

/** One planned call site inside a function body. */
struct CallPlan
{
    bool indirect = false;
    bool insideDiamond = false;  ///< executes on ~half the request types
};

/**
 * Emit one function. Layout grammar per function:
 *
 *   entry:  straight
 *           { diamond | loop | call-site | straight }*
 *           ret
 *
 * Diamonds place optional call sites in their arms so that the set of
 * callees executed depends on the request type.
 */
void
emitFunction(GenState &st, unsigned layer, bool is_leaf)
{
    const WorkloadParams &p = st.params;
    ProgramBuilder &b = st.builder;

    // Functions pack tightly (no block alignment): real server binaries
    // do not align functions to cache blocks, and padding NOPs would
    // dilute the per-block branch density Table 2 calibrates.
    const Addr entry = b.here();

    // Plan call sites so the *expected executed* count hits callsExpected.
    // A site inside a diamond arm runs on roughly half the request types,
    // a site in straight-line code always runs.
    std::vector<CallPlan> calls;
    if (!is_leaf) {
        double expected = 0.0;
        while (expected < p.callsExpected) {
            CallPlan cp;
            cp.indirect = st.rng.nextBool(p.indirectCallFrac);
            cp.insideDiamond = st.rng.nextBool(0.5);
            expected += cp.insideDiamond ? 0.5 : 1.0;
            calls.push_back(cp);
        }
    }
    std::size_t next_call = 0;

    auto emit_call_site = [&](bool diamond_context) -> bool {
        if (next_call >= calls.size())
            return false;
        if (calls[next_call].insideDiamond != diamond_context)
            return false;
        const CallPlan cp = calls[next_call++];
        if (cp.indirect) {
            const auto id = st.builder.addIndirectSet(
                st.indirectTargets(layer + 1));
            b.emitIndirectCall(id);
        } else {
            b.emitCallTo(st.randomCallee(layer + 1));
        }
        return true;
    };

    st.straightRun(st.straightLen());

    const unsigned diamonds = static_cast<unsigned>(
        st.rng.nextRange(p.minDiamonds, p.maxDiamonds));
    const unsigned loops = static_cast<unsigned>(
        st.rng.nextRange(p.minLoops, p.maxLoops));

    // Interleave diamonds, loops, and straight-context call sites.
    for (unsigned d = 0; d < diamonds; ++d) {
        // Straight-context call site between structures.
        emit_call_site(false);
        st.straightRun(st.straightLen());

        const auto else_label = b.newLabel();
        const auto join_label = b.newLabel();
        b.emitCondTo(else_label, st.diamondBias());
        // then-arm (fall-through)
        st.straightRun(st.straightLen());
        emit_call_site(true);
        b.emitJumpTo(join_label);
        // else-arm (taken path)
        b.bind(else_label);
        st.straightRun(st.straightLen());
        emit_call_site(true);
        b.bind(join_label);
        st.straightRun(st.straightLen());
    }

    for (unsigned l = 0; l < loops; ++l) {
        const Addr head = b.here();
        st.straightRun(st.straightLen());
        b.emitLoopBack(head, p.tripBase, p.tripRange);
        st.straightRun(st.straightLen());
    }

    // Any call sites not yet placed go at the tail in straight context;
    // diamond-context leftovers execute unconditionally, which only
    // raises the executed-call expectation slightly.
    while (next_call < calls.size()) {
        const CallPlan cp = calls[next_call++];
        if (cp.indirect) {
            const auto id =
                st.builder.addIndirectSet(st.indirectTargets(layer + 1));
            b.emitIndirectCall(id);
        } else {
            b.emitCallTo(st.randomCallee(layer + 1));
        }
        st.straightRun(st.straightLen());
    }

    b.emitReturn();
    st.builder.noteFunction(entry, b.here(), layer);
    st.layerEntries[layer].push_back(entry);
}

/**
 * Reserve the builder's image and branch table for the program
 * @p params lays out: the function count is fixed, and the grammar
 * above gives each function's expected straight runs and branches.
 * An estimate, so synthesis does not regrow its largest vectors; they
 * still grow past it.
 */
void
reserveProgram(const WorkloadParams &p, ProgramBuilder &b)
{
    double functions = 0;
    for (const unsigned w : p.layerWidths)
        functions += w;
    const double straight = (p.minStraight + p.maxStraight) / 2.0;
    const double diamonds = (p.minDiamonds + p.maxDiamonds) / 2.0;
    const double loops = (p.minLoops + p.maxLoops) / 2.0;
    // Straight runs: the entry run, four per diamond, two per loop and
    // one per call site. A run consumes a chunk of about two
    // instructions plus, with guardProb, a guard skipping about 1.5;
    // no guard follows the last chunk. Diamond call sites count half
    // toward callsExpected, so there are about 4/3 as many sites.
    const double sites = 4.0 / 3.0 * p.callsExpected;
    const double runs = 1 + 4 * diamonds + 2 * loops + sites;
    const double guards = std::max(0.0, straight - 2) /
                          (2 + 1.5 * p.guardProb) * p.guardProb;
    const double branches =
        runs * guards + 2 * diamonds + loops + sites + 1;
    const double insts = runs * straight + branches;
    b.reserve(static_cast<std::size_t>(functions * insts),
              static_cast<std::size_t>(functions * branches));
}

} // namespace

Program
generateWorkload(const WorkloadParams &params)
{
    cfl_assert(!params.layerWidths.empty(), "workload needs >= 1 layer");
    for (const unsigned w : params.layerWidths)
        cfl_assert(w > 0, "workload layer width must be > 0");
    cfl_assert(params.numRequestTypes > 0, "need >= 1 request type");

    ProgramBuilder builder(params.name);
    reserveProgram(params, builder);
    GenState st(params, builder);
    const unsigned num_layers =
        static_cast<unsigned>(params.layerWidths.size());
    st.layerEntries.resize(num_layers);

    // Reserve the dispatcher at the image base: we emit a placeholder
    // block now and lay the real dispatcher after functions exist, then
    // jump to it. Simpler: emit functions deepest-layer-first so callees
    // exist before their callers, then emit the dispatcher last and make
    // the program entry point at it.
    for (int layer = static_cast<int>(num_layers) - 1; layer >= 0; --layer) {
        const bool is_leaf = layer == static_cast<int>(num_layers) - 1;
        for (unsigned f = 0; f < params.layerWidths[layer]; ++f)
            emitFunction(st, static_cast<unsigned>(layer), is_leaf);
    }

    // Dispatcher: an endless loop around an indirect call through the set
    // of request handlers (all layer-0 functions). The execution engine
    // treats this call as the request boundary.
    builder.alignBlock();
    const Addr dispatch_entry = builder.here();
    builder.emitStraight(3);
    const std::vector<Addr> handlers = st.layerEntries[0];
    const auto handler_set = builder.addIndirectSet(handlers);
    const Addr dispatch_call_pc = builder.here();
    builder.emitIndirectCall(handler_set);
    builder.emitStraight(2);
    builder.emitJumpBack(dispatch_entry);
    builder.noteFunction(dispatch_entry, builder.here(), num_layers);

    return builder.finish(dispatch_entry, dispatch_call_pc, handlers,
                          params.numRequestTypes);
}

} // namespace cfl
