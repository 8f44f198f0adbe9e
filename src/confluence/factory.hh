/**
 * @file
 * Front-end configuration factory: builds fully-wired single-core
 * front-end simulations for every design point the paper compares.
 *
 * Design points (Sections 2.3, 4.2, 5.1):
 *
 *   Baseline      1K-entry conventional BTB + 64-entry victim buffer,
 *                 no instruction prefetching (the normalization point)
 *   Fdp           Baseline BTB + fetch-directed prefetching
 *   PhantomFdp    PhantomBTB (shared virtualized L2) + FDP
 *   TwoLevelFdp   1K/16K two-level BTB + FDP
 *   PhantomShift  PhantomBTB + SHIFT
 *   TwoLevelShift 1K/16K two-level BTB + SHIFT
 *   IdealBtbShift 16K-entry single-cycle BTB + SHIFT (Figure 7 bound)
 *   Confluence    AirBTB + SHIFT with unified metadata (this paper)
 *   Ideal         perfect L1-I + perfect BTB
 */

#ifndef CFL_CONFLUENCE_FACTORY_HH
#define CFL_CONFLUENCE_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "branch/direction.hh"
#include "branch/indirect.hh"
#include "branch/ras.hh"
#include "btb/air_btb.hh"
#include "btb/btb.hh"
#include "btb/conventional_btb.hh"
#include "btb/phantom_btb.hh"
#include "btb/two_level_btb.hh"
#include "confluence/confluence.hh"
#include "core/bpu.hh"
#include "core/frontend.hh"
#include "isa/predecoder.hh"
#include "mem/hierarchy.hh"
#include "prefetch/shift.hh"
#include "trace/engine.hh"
#include "workloads/suite.hh"

namespace cfl
{

/** The design points of the paper's evaluation. */
enum class FrontendKind
{
    Baseline,
    Fdp,
    PhantomFdp,
    TwoLevelFdp,
    PhantomShift,
    TwoLevelShift,
    IdealBtbShift,
    Confluence,
    Ideal,
};

/** Display name as used in the paper's figures. */
std::string frontendKindName(FrontendKind kind);

/** Machine-friendly name ("two_level_shift") for files and CLIs. */
std::string frontendKindSlug(FrontendKind kind);

/** Inverse of frontendKindSlug; fatal() on an unknown slug. */
FrontendKind frontendKindFromSlug(const std::string &slug);

/** All design points, in the enum's (paper) order. */
const std::vector<FrontendKind> &allFrontendKinds();

/** True if the design point uses SHIFT for instruction prefetching. */
bool usesShift(FrontendKind kind);

/** True if the design point uses fetch-directed prefetching. */
bool usesFdp(FrontendKind kind);

/** True if the design point uses the PhantomBTB shared history. */
bool usesPhantom(FrontendKind kind);

/** Structure parameters of the modeled system (Table 1 defaults). */
struct SystemConfig
{
    unsigned numCores = 4;

    /** Core count used to amortize CMP-wide structures (SHIFT's index)
     *  in area accounting. The paper reports a 16-core CMP; timing runs
     *  may simulate fewer cores without changing the area story. */
    unsigned areaAmortizationCores = 16;

    FrontendParams frontend;
    BpuParams bpu;
    InstMemoryParams instMem;
    LlcParams llc;
    ShiftParams shift;
    PhantomBtbParams phantom;
    AirBtbParams air;
    ConventionalBtbParams baselineBtb{1024, 4, 64};
    ConventionalBtbParams idealBtb{16 * 1024, 4, 0};
    TwoLevelBtbParams twoLevel;
    unsigned predecodeLatency = 3;
};

/** Shared (per-CMP) state a core plugs into. */
struct SharedState
{
    Llc *llc = nullptr;
    ShiftHistory *shiftHistory = nullptr;
    std::shared_ptr<PhantomSharedHistory> phantomHistory;
};

/** A fully assembled single-core front-end simulation. */
class CoreSim
{
  public:
    /** @param recorder this core writes the shared SHIFT history */
    CoreSim(FrontendKind kind, const Program &program,
            const WorkloadParams &wparams, const SystemConfig &config,
            SharedState &shared, unsigned core_id, std::uint64_t seed,
            bool recorder);

    Frontend &frontend() { return *frontend_; }
    Bpu &bpu() { return *bpu_; }
    Btb &btb() { return *btb_; }
    InstMemory &mem() { return *mem_; }
    ExecEngine &engine() { return *engine_; }
    InstPrefetcher *prefetcher() { return prefetcher_.get(); }
    FrontendKind kind() const { return kind_; }

    /** Reset all measurement stats (post-warmup). */
    void beginMeasurement();

  private:
    /** AirBTB fill-request hook: unified-metadata miss -> L1-I fill. */
    void requestAirFill(Addr block, Cycle now);

    FrontendKind kind_;
    Predecoder predecoder_;
    std::unique_ptr<ExecEngine> engine_;
    std::unique_ptr<DirectionPredictor> direction_;
    std::unique_ptr<ReturnAddressStack> ras_;
    std::unique_ptr<IndirectTargetCache> itc_;
    std::unique_ptr<Btb> btb_;
    std::unique_ptr<InstMemory> mem_;
    std::unique_ptr<InstPrefetcher> prefetcher_;
    std::unique_ptr<ConfluenceController> confluence_;
    std::unique_ptr<Bpu> bpu_;
    std::unique_ptr<Frontend> frontend_;
};

/** LLC bytes a design point reserves for virtualized metadata (SHIFT
 *  history, PhantomBTB temporal groups); the Llc is built with them. */
std::uint64_t llcReservedBytes(FrontendKind kind,
                               const SystemConfig &config);

/** Build a Btb instance of the given design point (shared helpers for
 *  coverage studies that bypass CoreSim). */
std::unique_ptr<Btb> makeBtb(FrontendKind kind, const SystemConfig &config,
                             const Program &program,
                             const Predecoder &predecoder,
                             SharedState &shared, unsigned core_id);

} // namespace cfl

#endif // CFL_CONFLUENCE_FACTORY_HH
