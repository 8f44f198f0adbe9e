#include "confluence/factory.hh"

#include "btb/ideal_btb.hh"
#include "common/logging.hh"
#include "prefetch/fdp.hh"

namespace cfl
{

std::string
frontendKindName(FrontendKind kind)
{
    switch (kind) {
      case FrontendKind::Baseline: return "Baseline(1K BTB)";
      case FrontendKind::Fdp: return "FDP";
      case FrontendKind::PhantomFdp: return "PhantomBTB+FDP";
      case FrontendKind::TwoLevelFdp: return "2LevelBTB+FDP";
      case FrontendKind::PhantomShift: return "PhantomBTB+SHIFT";
      case FrontendKind::TwoLevelShift: return "2LevelBTB+SHIFT";
      case FrontendKind::IdealBtbShift: return "IdealBTB+SHIFT";
      case FrontendKind::Confluence: return "Confluence";
      case FrontendKind::Ideal: return "Ideal";
    }
    return "?";
}

std::string
frontendKindSlug(FrontendKind kind)
{
    switch (kind) {
      case FrontendKind::Baseline: return "baseline";
      case FrontendKind::Fdp: return "fdp";
      case FrontendKind::PhantomFdp: return "phantom_fdp";
      case FrontendKind::TwoLevelFdp: return "two_level_fdp";
      case FrontendKind::PhantomShift: return "phantom_shift";
      case FrontendKind::TwoLevelShift: return "two_level_shift";
      case FrontendKind::IdealBtbShift: return "ideal_btb_shift";
      case FrontendKind::Confluence: return "confluence";
      case FrontendKind::Ideal: return "ideal";
    }
    return "?";
}

FrontendKind
frontendKindFromSlug(const std::string &slug)
{
    for (const FrontendKind kind : allFrontendKinds())
        if (frontendKindSlug(kind) == slug)
            return kind;
    cfl_fatal("unknown front-end kind \"%s\"", slug.c_str());
}

const std::vector<FrontendKind> &
allFrontendKinds()
{
    static const std::vector<FrontendKind> kAll = {
        FrontendKind::Baseline,       FrontendKind::Fdp,
        FrontendKind::PhantomFdp,     FrontendKind::TwoLevelFdp,
        FrontendKind::PhantomShift,   FrontendKind::TwoLevelShift,
        FrontendKind::IdealBtbShift,  FrontendKind::Confluence,
        FrontendKind::Ideal,
    };
    return kAll;
}

bool
usesShift(FrontendKind kind)
{
    return kind == FrontendKind::PhantomShift ||
           kind == FrontendKind::TwoLevelShift ||
           kind == FrontendKind::IdealBtbShift ||
           kind == FrontendKind::Confluence;
}

bool
usesFdp(FrontendKind kind)
{
    return kind == FrontendKind::Fdp || kind == FrontendKind::PhantomFdp ||
           kind == FrontendKind::TwoLevelFdp;
}

bool
usesPhantom(FrontendKind kind)
{
    return kind == FrontendKind::PhantomFdp ||
           kind == FrontendKind::PhantomShift;
}

std::uint64_t
llcReservedBytes(FrontendKind kind, const SystemConfig &config)
{
    std::uint64_t bytes = 0;
    if (usesShift(kind))
        bytes += config.shift.historyLlcBytes();
    if (usesPhantom(kind))
        bytes += config.phantom.numGroups * kBlockBytes;
    return bytes;
}

std::unique_ptr<Btb>
makeBtb(FrontendKind kind, const SystemConfig &config,
        const Program &program, const Predecoder &predecoder,
        SharedState &shared, unsigned core_id)
{
    switch (kind) {
      case FrontendKind::Baseline:
      case FrontendKind::Fdp:
        return std::make_unique<ConventionalBtb>(config.baselineBtb,
                                                 "btb.conv1k");

      case FrontendKind::PhantomFdp:
      case FrontendKind::PhantomShift: {
        cfl_assert(shared.phantomHistory != nullptr,
                   "Phantom design needs a shared history");
        return std::make_unique<PhantomBtb>(
            config.phantom, shared.phantomHistory, core_id);
      }

      case FrontendKind::TwoLevelFdp:
      case FrontendKind::TwoLevelShift:
        return std::make_unique<TwoLevelBtb>(config.twoLevel);

      case FrontendKind::IdealBtbShift:
        return std::make_unique<ConventionalBtb>(config.idealBtb,
                                                 "btb.conv16k");

      case FrontendKind::Confluence:
        return std::make_unique<AirBtb>(config.air, program.image,
                                        predecoder);

      case FrontendKind::Ideal:
        return std::make_unique<PerfectBtb>();
    }
    cfl_panic("unknown frontend kind");
}

CoreSim::CoreSim(FrontendKind kind, const Program &program,
                 const WorkloadParams &wparams, const SystemConfig &config,
                 SharedState &shared, unsigned core_id, std::uint64_t seed,
                 bool recorder)
    : kind_(kind), predecoder_(config.predecodeLatency)
{
    cfl_assert(shared.llc != nullptr, "CoreSim needs a shared LLC");

    engine_ = std::make_unique<ExecEngine>(program, wparams, seed);
    direction_ = std::make_unique<HybridPredictor>();
    ras_ = std::make_unique<ReturnAddressStack>();
    itc_ = std::make_unique<IndirectTargetCache>();
    btb_ = makeBtb(kind, config, program, predecoder_, shared, core_id);

    InstMemoryParams mem_params = config.instMem;
    if (kind == FrontendKind::Ideal)
        mem_params.perfectL1I = true;
    mem_ = std::make_unique<InstMemory>(mem_params, *shared.llc);

    if (usesShift(kind)) {
        cfl_assert(shared.shiftHistory != nullptr,
                   "SHIFT design needs a shared history");
        prefetcher_ = std::make_unique<ShiftEngine>(
            config.shift, *shared.shiftHistory, *mem_, recorder);
    } else if (usesFdp(kind)) {
        prefetcher_ = std::make_unique<FdpPrefetcher>(*mem_);
    }

    if (btb_->wantsBlockHooks()) {
        confluence_ = std::make_unique<ConfluenceController>(
            *mem_, *btb_, program.image, predecoder_);
    }
    if (auto *air = dynamic_cast<AirBtb *>(btb_.get())) {
        // Unified metadata: an AirBTB miss in a non-resident block is
        // the front-end's earliest view of an instruction miss. It
        // redirects the stream prefetcher (the same event an L1-I miss
        // would raise, since AirBTB mirrors the L1-I) and triggers the
        // block's own fill and bundle insertion.
        air->setFillRequest(
            AirBtb::FillRequest::bind<&CoreSim::requestAirFill>(this));
    }

    bpu_ = std::make_unique<Bpu>(config.bpu, *btb_, *direction_, *ras_,
                                 *itc_, *engine_, mem_.get());
    frontend_ = std::make_unique<Frontend>(config.frontend, *bpu_, *mem_,
                                           prefetcher_.get());
}

void
CoreSim::requestAirFill(Addr block, Cycle now)
{
    if (prefetcher_ != nullptr)
        prefetcher_->onDemandMiss(block, now);
    mem_->prefetch(block, now);
}

void
CoreSim::beginMeasurement()
{
    frontend_->beginMeasurement();
    bpu_->stats().resetAll();
    btb_->stats().resetAll();
    mem_->stats().resetAll();
    direction_->stats().resetAll();
    ras_->stats().resetAll();
    itc_->stats().resetAll();
    if (prefetcher_ != nullptr)
        prefetcher_->stats().resetAll();
}

} // namespace cfl
