#include "sim/experiment.hh"

#include "common/logging.hh"
#include "sim/metrics.hh"
#include "sim/sweep.hh"
#include "trace/trace_cache.hh"

namespace cfl
{

TimingPoint
runTiming(FrontendKind kind, WorkloadId workload,
          const SystemConfig &config, const RunScale &scale,
          std::uint64_t seed_base)
{
    SystemConfig cfg = config;
    cfg.numCores = scale.timingCores;

    Cmp cmp(kind, workload, cfg, seed_base);
    TimingPoint out;
    out.kind = kind;
    out.workload = workload;
    out.metrics =
        cmp.run(scale.timingWarmupInsts, scale.timingMeasureInsts);
    return out;
}

std::vector<ComparisonRow>
runComparison(const std::vector<FrontendKind> &kinds,
              const std::vector<WorkloadId> &workloads,
              const SystemConfig &config, const RunScale &scale)
{
    // Fan every (kind, workload) point — plus the Baseline normalization
    // points — out across the sweep engine's thread pool.
    const SweepResult sweep =
        runTimingSweep(withBaseline(kinds), workloads, config, scale);

    std::vector<ComparisonRow> rows;
    for (const FrontendKind kind : kinds) {
        ComparisonRow row;
        row.kind = kind;
        row.relArea = relativeArea(kind, config);

        std::vector<double> speedups;
        for (const WorkloadId wl : workloads) {
            const double s =
                kind == FrontendKind::Baseline
                    ? 1.0
                    : speedup(sweep.ipc(kind, wl),
                              sweep.ipc(FrontendKind::Baseline, wl));
            row.perWorkloadSpeedup[wl] = s;
            speedups.push_back(s);
        }
        row.relPerfGeomean = geomean(speedups);
        rows.push_back(std::move(row));
    }
    return rows;
}

FunctionalRun
runFunctionalStudy(WorkloadId workload, const FunctionalSetup &setup,
                   const SystemConfig &config,
                   const FunctionalConfig &fconfig,
                   const std::function<std::unique_ptr<Btb>(
                       const Program &, const Predecoder &)> &btb_factory)
{
    const Program &program = workloadProgram(workload);
    const WorkloadParams wparams = workloadParams(workload);

    Predecoder predecoder(config.predecodeLatency);
    ExecEngine engine(program, wparams, setup.engineSeed);

    // Coverage figures evaluate many BTB/prefetcher variants over the
    // same (workload, seed) stream; replaying one shared immutable trace
    // removes the per-point regeneration. The driver consumes exactly
    // warmup + measure instructions.
    const std::uint64_t insts = fconfig.warmupInsts + fconfig.measureInsts;
    if (auto trace = traceCache().acquire(workload, setup.engineSeed, insts))
        engine.attachTrace(std::move(trace));
    else
        engine.cursor(insts);  // private trace

    std::unique_ptr<Btb> btb = btb_factory(program, predecoder);
    cfl_assert(btb != nullptr, "btb_factory returned null");

    std::unique_ptr<Llc> llc;
    std::unique_ptr<InstMemory> mem;
    std::unique_ptr<ShiftHistory> history;
    std::unique_ptr<ShiftEngine> shift;

    if (setup.useL1I) {
        llc = std::make_unique<Llc>(config.llc);
        if (setup.useShift)
            llc->reserveMetadata(config.shift.historyLlcBytes());
        mem = std::make_unique<InstMemory>(config.instMem, *llc);
        if (setup.useShift) {
            ShiftParams sp = config.shift;
            sp.historyReadLatency = llc->hitLatency();
            history = std::make_unique<ShiftHistory>(sp);
            shift = std::make_unique<ShiftEngine>(sp, *history, *mem,
                                                  /*recorder=*/true);
        }
    } else {
        cfl_assert(!setup.useShift, "SHIFT needs an L1-I");
    }

    // Stack-local fill-request callable; it outlives the driver run.
    struct FillRequester
    {
        InstMemory *mem;
        ShiftEngine *pf;
        void
        operator()(Addr block, Cycle now)
        {
            if (pf != nullptr)
                pf->onDemandMiss(block, now);
            mem->prefetch(block, now);
        }
    } fill_requester{mem.get(), shift.get()};

    if (auto *air = dynamic_cast<AirBtb *>(btb.get())) {
        if (mem != nullptr)
            air->setFillRequest(
                AirBtb::FillRequest::callable(&fill_requester));
    }

    FunctionalDriver driver(engine, *btb, mem.get(), shift.get(),
                            predecoder);
    FunctionalRun out;
    out.result = driver.run(fconfig);
    return out;
}

FunctionalResult
runConventionalBtbStudy(WorkloadId workload, std::size_t entries,
                        unsigned ways, unsigned victim_entries,
                        bool with_l1i, const FunctionalConfig &fconfig)
{
    FunctionalSetup setup;
    setup.useL1I = with_l1i;
    setup.useShift = false;
    const SystemConfig config = makeSystemConfig(1);
    const auto run = runFunctionalStudy(
        workload, setup, config, fconfig,
        [&](const Program &, const Predecoder &) {
            ConventionalBtbParams p;
            p.entries = entries;
            p.ways = ways;
            p.victimEntries = victim_entries;
            return std::make_unique<ConventionalBtb>(p);
        });
    return run.result;
}

} // namespace cfl
