#include "sim/experiment.hh"

#include "common/logging.hh"
#include "trace/trace_cache.hh"

namespace cfl
{

FunctionalResult
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
        llc = std::make_unique<Llc>(
            config.llc, setup.useShift ? config.shift.historyLlcBytes() : 0);
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
    return driver.run(fconfig);
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
    return runFunctionalStudy(
        workload, setup, config, fconfig,
        [&](const Program &, const Predecoder &) {
            ConventionalBtbParams p;
            p.entries = entries;
            p.ways = ways;
            p.victimEntries = victim_entries;
            return std::make_unique<ConventionalBtb>(p);
        });
}

} // namespace cfl
