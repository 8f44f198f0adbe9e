/**
 * @file
 * Component replays: the hot structures of the front end driven in
 * isolation on each preset's own oracle stream (the stream core 0 of
 * that workload's Baseline point executes), reported as ns per call
 * with call counts so that ns x calls can be set against the in-situ
 * core.* spans. Every replay builds fresh structures per repetition
 * and reports the median of three repetitions.
 */

#include <memory>

#include "btb/btb.hh"
#include "prefetch/fdp.hh"
#include "prefetch/shift.hh"
#include "sim/presets.hh"
#include "trace/trace_cache.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace cfl;

namespace
{

/** Instructions replayed per preset (one quick measure window). */
constexpr std::uint64_t kStreamInsts = 400'000;
constexpr int kReps = 3;

volatile std::uint64_t gSink = 0;

/** The stream cut into the units each component consumes. */
struct Stream
{
    std::vector<DynInst> insts;
    std::vector<DynInst> branches;
    std::vector<DynInst> conds;
    std::vector<Addr> blocks; ///< block transitions, as the fetch unit sees
    /** Fetch regions ending at a taken branch, with their conditional
     *  branch counts (FDP's unresolved-branch input). */
    std::vector<std::pair<BlockRange, unsigned>> regions;
};

Stream
cutStream(std::vector<DynInst> insts)
{
    Stream s;
    Addr regionStart = insts.front().pc;
    unsigned regionConds = 0;
    for (const DynInst &inst : insts) {
        const Addr block = blockAlign(inst.pc);
        if (s.blocks.empty() || s.blocks.back() != block)
            s.blocks.push_back(block);
        if (!inst.isBranch())
            continue;
        s.branches.push_back(inst);
        if (inst.kind == BranchKind::Cond) {
            s.conds.push_back(inst);
            ++regionConds;
        }
        if (inst.taken) {
            const Addr first = blockAlign(regionStart);
            const unsigned count =
                static_cast<unsigned>((block - first) / kBlockBytes) + 1;
            s.regions.push_back({BlockRange{first, count}, regionConds});
            regionStart = inst.target;
            regionConds = 0;
        }
    }
    s.insts = std::move(insts);
    return s;
}

/** Accumulates one component's time and calls over the presets; each
 *  repetition keeps its own total so the median can be taken. */
struct Component
{
    double ns[kReps] = {};
    double calls = 0;

    template <typename Fn>
    void time(int rep, std::size_t n, Fn &&body)
    {
        const auto t0 = Clock::now();
        body();
        ns[rep] += std::chrono::duration<double, std::nano>(Clock::now() -
                                                           t0)
                       .count();
        if (rep == 0)
            calls += static_cast<double>(n);
    }

    double nsPerCall() const
    {
        std::vector<double> per;
        for (const double t : ns)
            per.push_back(t / calls);
        return median(per);
    }
};

} // namespace

void
componentReplays(Values &out)
{
    SystemConfig config = makeSystemConfig(1);
    Component gen, replay, mem, shift, fdp, predecode, direction;
    const char *btbNames[] = {"conventional", "two_level", "phantom", "air"};
    const FrontendKind btbKinds[] = {FrontendKind::Baseline,
                                     FrontendKind::TwoLevelFdp,
                                     FrontendKind::PhantomFdp,
                                     FrontendKind::Confluence};
    Component btb[4];
    double nInsts = 0, nBranches = 0, nConds = 0, nBlocks = 0, nRegions = 0;

    for (const WorkloadId wl : allWorkloads()) {
        const Program &program = workloadProgram(wl);
        const WorkloadParams wparams = workloadParams(wl);
        const std::uint64_t seed =
            sweepPointSeed(FrontendKind::Baseline, wl);

        std::vector<DynInst> insts(kStreamInsts);
        for (int rep = 0; rep < kReps; ++rep) {
            ExecEngine engine(program, wparams, seed);
            gen.time(rep, kStreamInsts, [&] {
                for (DynInst &inst : insts)
                    inst = engine.next();
            });
        }
        TraceCache local(std::uint64_t{1} << 32);
        const auto buffer = local.acquire(wl, seed, kStreamInsts);
        for (int rep = 0; rep < kReps; ++rep) {
            ExecEngine engine(program, wparams, seed);
            engine.attachTrace(buffer);
            replay.time(rep, kStreamInsts, [&] {
                std::uint64_t sum = 0;
                for (std::uint64_t i = 0; i < kStreamInsts; ++i)
                    sum += engine.next().pc;
                gSink = gSink + sum;
            });
        }
        const Stream s = cutStream(std::move(insts));
        nInsts += s.insts.size();
        nBranches += s.branches.size();
        nConds += s.conds.size();
        nBlocks += s.blocks.size();
        nRegions += s.regions.size();

        for (int rep = 0; rep < kReps; ++rep) {
            Llc llc(config.llc);
            SystemConfig cfg = config;
            cfg.phantom.llcLatency = llc.hitLatency();
            cfg.shift.historyReadLatency = llc.hitLatency();
            const Predecoder predecoder(cfg.predecodeLatency);

            for (int b = 0; b < 4; ++b) {
                SharedState shared;
                shared.llc = &llc;
                shared.phantomHistory =
                    std::make_shared<PhantomSharedHistory>(cfg.phantom);
                const std::unique_ptr<Btb> design = makeBtb(
                    btbKinds[b], cfg, program, predecoder, shared, 0);
                btb[b].time(rep, s.branches.size(), [&] {
                    Cycle now = 0;
                    std::uint64_t hits = 0;
                    for (const DynInst &inst : s.branches) {
                        const BtbLookupResult r = design->lookup(inst, ++now);
                        hits += r.hit;
                        if (!r.hit && inst.taken)
                            design->learn(inst.pc, inst.kind, inst.target,
                                          now);
                    }
                    gSink = gSink + hits;
                });
            }

            InstMemory fetchMem(cfg.instMem, llc);
            mem.time(rep, s.blocks.size(), [&] {
                Cycle now = 0;
                for (const Addr block : s.blocks) {
                    const InstMemory::FetchResult r =
                        fetchMem.demandFetch(block, now);
                    now = std::max(now + 1, r.readyAt);
                }
                gSink = gSink + now;
            });

            Llc shiftLlc(cfg.llc);
            ShiftHistory history(cfg.shift);
            InstMemory shiftMem(cfg.instMem, shiftLlc);
            ShiftEngine engine(cfg.shift, history, shiftMem, true);
            shift.time(rep, s.blocks.size(), [&] {
                Cycle now = 0;
                for (const Addr block : s.blocks)
                    engine.onDemandAccess(block, ++now);
            });

            Llc fdpLlc(cfg.llc);
            InstMemory fdpMem(cfg.instMem, fdpLlc);
            FdpPrefetcher prefetcher(fdpMem);
            fdp.time(rep, s.regions.size(), [&] {
                Cycle now = 0;
                for (const auto &[range, conds] : s.regions)
                    prefetcher.onFetchRegion(range, conds, ++now);
            });

            predecode.time(rep, s.blocks.size(), [&] {
                std::uint64_t bits = 0;
                for (const Addr block : s.blocks)
                    bits += predecoder.scan(program.image, block)
                                .branchBitmap;
                gSink = gSink + bits;
            });

            HybridPredictor predictor;
            direction.time(rep, s.conds.size(), [&] {
                std::uint64_t wrong = 0;
                for (const DynInst &inst : s.conds) {
                    wrong += predictor.predict(inst.pc) != inst.taken;
                    predictor.update(inst.pc, inst.taken);
                }
                gSink = gSink + wrong;
            });
        }
    }

    out["trace.gen_ns_per_inst"] = gen.nsPerCall();
    out["trace.replay_ns_per_inst"] = replay.nsPerCall();
    for (int b = 0; b < 4; ++b)
        out[std::string("btb.lookup_ns.") + btbNames[b]] = btb[b].nsPerCall();
    out["mem.fetch_ns"] = mem.nsPerCall();
    out["prefetch.shift_ns"] = shift.nsPerCall();
    out["prefetch.fdp_ns"] = fdp.nsPerCall();
    out["isa.predecode_ns"] = predecode.nsPerCall();
    out["branch.direction_ns"] = direction.nsPerCall();
    out["replay.insts"] = nInsts;
    out["replay.branches"] = nBranches;
    out["replay.cond_branches"] = nConds;
    out["replay.blocks"] = nBlocks;
    out["replay.regions"] = nRegions;
}

} // namespace perfbench
