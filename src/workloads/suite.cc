#include "workloads/suite.hh"

#include <array>
#include <memory>
#include <mutex>

#include "common/logging.hh"

namespace cfl
{

static_assert(kNumWorkloads == 5, "keep kNumWorkloads in sync with the enum");

const std::vector<WorkloadId> &
allWorkloads()
{
    static const std::vector<WorkloadId> kAll = {
        WorkloadId::OltpDb2,
        WorkloadId::OltpOracle,
        WorkloadId::DssQry,
        WorkloadId::MediaStreaming,
        WorkloadId::WebFrontend,
    };
    return kAll;
}

std::string
workloadName(WorkloadId id)
{
    switch (id) {
      case WorkloadId::OltpDb2: return "OLTP DB2";
      case WorkloadId::OltpOracle: return "OLTP Oracle";
      case WorkloadId::DssQry: return "DSS Qrys";
      case WorkloadId::MediaStreaming: return "Media Streaming";
      case WorkloadId::WebFrontend: return "Web Frontend";
    }
    return "?";
}

std::string
workloadSlug(WorkloadId id)
{
    switch (id) {
      case WorkloadId::OltpDb2: return "oltp_db2";
      case WorkloadId::OltpOracle: return "oltp_oracle";
      case WorkloadId::DssQry: return "dss_qry";
      case WorkloadId::MediaStreaming: return "media_streaming";
      case WorkloadId::WebFrontend: return "web_frontend";
    }
    return "?";
}

WorkloadId
workloadFromSlug(const std::string &slug)
{
    std::string known;
    for (const WorkloadId id : allWorkloads()) {
        if (workloadSlug(id) == slug)
            return id;
        known += known.empty() ? "" : ", ";
        known += workloadSlug(id);
    }
    cfl_fatal("unknown workload \"%s\" (expected %s)", slug.c_str(),
              known.c_str());
}

WorkloadParams
workloadParams(WorkloadId id)
{
    // Presets are calibrated against the paper's measured workload
    // properties: Table 2 branch densities (static 2.5-4.3 per block,
    // dynamic ~1.5), Figure 1 BTB capacity demand (most saturate near
    // 16K entries; OLTP Oracle keeps improving at 32K), and baseline
    // L1-I/BTB MPKI in the tens.
    WorkloadParams p;
    p.name = workloadSlug(id);

    switch (id) {
      case WorkloadId::OltpDb2:
        // Deep transaction stack; Table 2 static density 3.6.
        p.seed = 0xdb2;
        p.layerWidths = {10, 18, 30, 52, 88, 140, 210, 300, 400, 500};
        p.minStraight = 3;
        p.maxStraight = 7;
        p.minDiamonds = 1;
        p.maxDiamonds = 3;
        p.guardProb = 0.62;
        p.minLoops = 1;
        p.maxLoops = 2;
        p.tripBase = 2;
        p.tripRange = 3;
        p.callsExpected = 1.55;
        p.indirectCallFrac = 0.12;
        p.numRequestTypes = 32;
        p.zipfSkew = 0.6;
        p.branchNoise = 0.010;
        break;

      case WorkloadId::OltpOracle:
        // Largest instruction working set; sparser branches (density 2.5).
        p.seed = 0x0aac1e;
        p.layerWidths = {14, 26, 46, 80, 132, 216, 336, 500, 672, 840, 960};
        p.minStraight = 5;
        p.maxStraight = 11;
        p.minDiamonds = 1;
        p.maxDiamonds = 3;
        p.minLoops = 0;
        p.maxLoops = 2;
        p.tripBase = 2;
        p.tripRange = 3;
        p.callsExpected = 1.55;
        p.guardProb = 0.36;
        p.indirectCallFrac = 0.14;
        p.hotCalleeProb = 0.55;
        p.numRequestTypes = 48;
        p.zipfSkew = 0.5;
        p.branchNoise = 0.010;
        break;

      case WorkloadId::DssQry:
        // Few query types, scan-heavy: loops with larger trip counts.
        p.seed = 0xd55;
        p.layerWidths = {6, 12, 22, 40, 70, 115, 180, 260, 340};
        p.minStraight = 3;
        p.maxStraight = 7;
        p.minDiamonds = 1;
        p.maxDiamonds = 3;
        p.guardProb = 0.92;
        p.minLoops = 1;
        p.maxLoops = 3;
        p.tripBase = 3;
        p.tripRange = 6;
        p.callsExpected = 1.5;
        p.indirectCallFrac = 0.10;
        p.numRequestTypes = 4;
        p.zipfSkew = 0.2;
        p.branchNoise = 0.012;
        break;

      case WorkloadId::MediaStreaming:
        // Stream-serving loops, moderate request diversity.
        p.seed = 0x3ed1a;
        p.layerWidths = {8, 15, 26, 46, 78, 128, 195, 280, 360};
        p.minStraight = 3;
        p.maxStraight = 6;
        p.minDiamonds = 1;
        p.maxDiamonds = 3;
        p.guardProb = 0.92;
        p.minLoops = 1;
        p.maxLoops = 2;
        p.tripBase = 2;
        p.tripRange = 5;
        p.callsExpected = 1.5;
        p.indirectCallFrac = 0.12;
        p.numRequestTypes = 16;
        p.zipfSkew = 0.7;
        p.branchNoise = 0.010;
        break;

      case WorkloadId::WebFrontend:
        // Densest branch mix (Table 2: 4.3 static branches per block).
        p.seed = 0x3eb;
        p.layerWidths = {10, 18, 30, 50, 85, 135, 200, 280, 350};
        p.minStraight = 2;
        p.maxStraight = 4;
        p.minDiamonds = 2;
        p.maxDiamonds = 4;
        p.guardProb = 0.92;
        p.minLoops = 0;
        p.maxLoops = 1;
        p.tripBase = 2;
        p.tripRange = 2;
        p.callsExpected = 1.5;
        p.indirectCallFrac = 0.18;
        p.numRequestTypes = 64;
        p.zipfSkew = 0.8;
        p.branchNoise = 0.011;
        break;
    }
    return p;
}

const Program &
workloadProgram(WorkloadId id)
{
    // Dense per-id slots: the ids are interned integers, so the cache is
    // an array lookup rather than a map walk.
    static std::mutex mutex;
    static std::array<std::unique_ptr<Program>, kNumWorkloads> cache;

    std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<Program> &slot = cache.at(workloadIndex(id));
    if (slot == nullptr)
        slot = std::make_unique<Program>(
            generateWorkload(workloadParams(id)));
    return *slot;
}

} // namespace cfl
