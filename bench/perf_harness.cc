/**
 * @file
 * End-to-end simulator performance harness.
 *
 * Times the Figure-6 comparison sweep — the workhorse experiment every
 * figure bench, calibration test, and sharded run is built from — on
 * warmed shared traces, and gates what no other tool measures. perfbench
 * times the cold generate-then-replay sweep and the dispatch path with
 * quartiles; this harness answers four questions and writes the answers
 * to a small JSON file (BENCH_sweep.json):
 *
 *   cached   — points/s of the steady-state sweep. A first run warms
 *              the trace cache; it is the reference every later run and
 *              phase must equal byte for byte (sweepio::encodeResult),
 *              so a harness that made the simulator faster but wrong
 *              fails loudly;
 *   allocs   — heap allocations (a global operator new hook) per
 *              thousand simulated instructions over the last cached
 *              run; a replay path that allocates per instruction shows
 *              up in the hundreds instead of near 1;
 *   sampled  — (--sampled) the same grid under SMARTS sampling;
 *   queued   — (--queue) the same sweep pulled through the persistent
 *              work queue, the only measurement of its overhead.
 *
 * With --sampled a run does 2N+1 in-process sweeps (N = --iters): the
 * warming run, N timed cached runs and N timed sampled runs.
 *
 * Usage:
 *   perf_harness [--smoke] [--sampled] [--min-sampled-speedup S]
 *                [--iters N] [--out PATH]
 *                [--compare BASELINE [--min-ratio R]]
 *                [--queue WORKER_BIN]
 *
 *   --smoke     small point grid and budgets (CI-sized)
 *   --sampled   extra timed phase: the same grid with SMARTS sampling
 *               (defaultSamplingSpec), verified run-to-run bit-identical
 *               and statistically against the exact reference — every
 *               per-metric 95% CI must cover the exact value and the
 *               sampled fig06 geomean speedup must sit within 2% of the
 *               exact one
 *   --min-sampled-speedup  fail unless sampled points/s is at least
 *               S x cached points/s (CI's sampled-speedup gate)
 *   --iters     timed runs per phase, best-of-N (default 3, at least 1)
 *   --out       JSON output path (default BENCH_sweep.json)
 *   --compare   fail (exit 1) if cached points/sec — and, with
 *               --sampled, sampled points/sec — drops below R x the
 *               baseline file's value (default R = 0.8). The baseline
 *               must be recorded on this run's grid (same "points" and
 *               "sim_insts_per_point") and hold a section for every
 *               gated phase, or the run exits 1 before timing anything
 *   --queue     the same sweep through the persistent work queue
 *               (src/queue): two confluence_worker daemons (WORKER_BIN)
 *               pull the shards the coordinator enqueues and run the
 *               confluence_sweep beside WORKER_BIN; the merge must equal
 *               the reference byte for byte
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/strings.hh"
#include "dispatch/backend.hh"
#include "dispatch/dispatcher.hh"
#include "queue/backend.hh"
#include "queue/queue.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "sweepio/codec.hh"
#include "trace/trace_cache.hh"

// ---------------------------------------------------------------------------
// Global allocation counter (this binary only).
// ---------------------------------------------------------------------------

namespace
{

std::atomic<std::uint64_t> g_allocCount{0};

} // namespace

void *
operator new(std::size_t size)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace cfl;
using Clock = std::chrono::steady_clock;

/** Pull-worker daemons the queue phase starts. */
constexpr unsigned kQueueWorkers = 2;

struct HarnessConfig
{
    bool smoke = false;
    bool sampled = false;
    double minSampledSpeedup = 0.0; ///< 0 = no floor
    unsigned iters = 3;
    std::string outPath = "BENCH_sweep.json";
    std::string comparePath;
    double minRatio = 0.8;
    std::string queueWorkerBin;   ///< "" = skip the queue phase
};

std::vector<SweepPoint>
buildPoints(const HarnessConfig &cfg, RunScale &scale_out)
{
    std::vector<FrontendKind> kinds;
    std::vector<WorkloadId> workloads;
    if (cfg.smoke) {
        kinds = {FrontendKind::Baseline, FrontendKind::Confluence};
        workloads = {WorkloadId::DssQry, WorkloadId::WebFrontend};
        scale_out = scaleByName("quick");
        scale_out.timingWarmupInsts = 300'000;
        scale_out.timingMeasureInsts = 150'000;
    } else {
        // The Figure 6 grid: every compared front end over the suite.
        kinds = {
            FrontendKind::Baseline,      FrontendKind::Fdp,
            FrontendKind::PhantomFdp,    FrontendKind::TwoLevelFdp,
            FrontendKind::TwoLevelShift, FrontendKind::Confluence,
            FrontendKind::Ideal,
        };
        workloads = allWorkloads();
        scale_out = scaleByName("quick");
    }

    std::vector<SweepPoint> points;
    points.reserve(kinds.size() * workloads.size());
    for (const FrontendKind kind : kinds)
        for (const WorkloadId wl : workloads)
            points.push_back({kind, wl, scale_out, SamplingSpec{}});
    return points;
}

/** Repeated runs of one sweep, each checked against the first. */
struct Phase
{
    SweepResult first;            ///< the result every run encoded to
    std::vector<double> seconds;  ///< wall time of each run, in order
    std::uint64_t lastAllocs = 0; ///< heap allocations in the last run

    /** Best of runs [from, end): the least scheduler noise. */
    double
    best(std::size_t from) const
    {
        return *std::min_element(seconds.begin() + from, seconds.end());
    }
};

Phase
runPhase(const char *name, unsigned runs,
         const std::vector<SweepPoint> &points, const SystemConfig &config,
         SweepEngine &engine)
{
    Phase phase;
    std::string first_bytes;
    for (unsigned i = 0; i < runs; ++i) {
        const std::uint64_t allocs_before =
            g_allocCount.load(std::memory_order_relaxed);
        const auto start = Clock::now();
        SweepResult result = runTimingSweep(points, config, engine);
        const std::chrono::duration<double> elapsed = Clock::now() - start;
        phase.lastAllocs =
            g_allocCount.load(std::memory_order_relaxed) - allocs_before;
        phase.seconds.push_back(elapsed.count());

        std::string bytes = sweepio::encodeResult(result);
        if (i == 0) {
            first_bytes = std::move(bytes);
            phase.first = std::move(result);
        } else {
            cfl_assert(bytes == first_bytes,
                       "%s sweep run %u differs from its first run", name,
                       i);
        }
    }
    return phase;
}

/** First "model name" from /proc/cpuinfo, JSON-safe; "unknown" when
 *  the file is absent (non-Linux) or has no such line. */
std::string
hostCpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            break;
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(" \t"));
        std::string safe;
        for (const char c : model) {
            if (c == '"' || c == '\\')
                safe += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                safe += c;
        }
        if (!safe.empty())
            return safe;
        break;
    }
    return "unknown";
}

/** Points/s floors from a --compare baseline. */
struct Baseline
{
    double cached = 0.0;
    double sampled = 0.0; ///< read only with --sampled
};

/** The number after "key": in @p text, searched for from the object
 *  named @p section ("" = the top level). The baseline is outside
 *  input: a missing section, key or number is fatal. */
double
baselineNumber(const std::string &path, const std::string &text,
               const std::string &section, const std::string &key)
{
    std::size_t from = 0;
    if (!section.empty()) {
        from = text.find("\"" + section + "\"");
        if (from == std::string::npos)
            cfl_fatal("baseline %s has no \"%s\" section to gate that "
                      "phase against", path.c_str(), section.c_str());
    }
    const std::string quoted = "\"" + key + "\":";
    const std::size_t pos = text.find(quoted, from);
    if (pos == std::string::npos)
        cfl_fatal("baseline %s lacks \"%s\"", path.c_str(), key.c_str());
    const char *begin = text.c_str() + pos + quoted.size();
    char *end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin || !std::isfinite(value))
        cfl_fatal("baseline %s: \"%s\" is not a number", path.c_str(),
                  key.c_str());
    return value;
}

/** Read @p cfg.comparePath before anything is timed: a baseline from
 *  another grid, or one that cannot gate a phase this run measures,
 *  is fatal. */
Baseline
readBaseline(const HarnessConfig &cfg, std::size_t points,
             double sim_insts_per_point)
{
    const std::string &path = cfg.comparePath;
    std::ifstream in(path);
    if (!in)
        cfl_fatal("cannot read baseline %s", path.c_str());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    // Points/s is comparable only on the same grid: a 4-point smoke
    // record must not gate a 35-point full-grid run.
    const double base_points = baselineNumber(path, text, "", "points");
    const double base_insts =
        baselineNumber(path, text, "", "sim_insts_per_point");
    if (base_points != static_cast<double>(points) ||
        base_insts != sim_insts_per_point)
        cfl_fatal("baseline %s was recorded on another grid (%.17g "
                  "points of %.17g insts; this run has %zu of %.17g)",
                  path.c_str(), base_points, base_insts, points,
                  sim_insts_per_point);

    Baseline base;
    base.cached = baselineNumber(path, text, "cached", "points_per_sec");
    if (cfg.sampled)
        base.sampled =
            baselineNumber(path, text, "sampled", "points_per_sec");
    return base;
}

int
harnessMain(const HarnessConfig &cfg)
{
    RunScale scale;
    const std::vector<SweepPoint> points = buildPoints(cfg, scale);
    const SystemConfig config = makeSystemConfig(scale.timingCores);
    SweepEngine engine;

    const double sim_insts_per_point =
        static_cast<double>(scale.timingWarmupInsts +
                            scale.timingMeasureInsts) *
        scale.timingCores;
    const double total_minsts =
        sim_insts_per_point * points.size() / 1e6;

    const Baseline baseline =
        cfg.comparePath.empty()
            ? Baseline{}
            : readBaseline(cfg, points.size(), sim_insts_per_point);

    std::fprintf(stderr,
                 "perf_harness: %zu points, %.1fM simulated insts per "
                 "sweep, %u workers, %u iters per phase\n",
                 points.size(), total_minsts, engine.jobs(), cfg.iters);

    // A budget far above the harness working set, whatever
    // CONFLUENCE_TRACE_CACHE_MB says, so the cached phase never evicts.
    traceCache().setBudgetBytes(1ull << 30);

    // Cached phase. The first run warms the trace cache (its time is the
    // miss cost) and is the reference for every later run and phase.
    const Phase cached =
        runPhase("cached", 1 + cfg.iters, points, config, engine);
    const SweepResult &reference = cached.first;
    const double warm_seconds = cached.seconds.front();
    const double cached_seconds = cached.best(1);
    const double cached_pps = points.size() / cached_seconds;
    const double cached_mips = total_minsts / cached_seconds;
    const double allocs_per_kinst =
        cached.lastAllocs / (total_minsts * 1000.0);
    std::fprintf(stderr, "  cached : %7.2fs  %6.2f points/s  %7.2f "
                 "Minsts/s  (warm %.2fs, %.1f allocs/kinst)\n",
                 cached_seconds, cached_pps, cached_mips, warm_seconds,
                 allocs_per_kinst);

    // Sampled phase (opt-in): the same grid with SMARTS sampling.
    // Sampled results are not bit-comparable to exact ones — the gates
    // are statistical: run-to-run determinism, per-metric CI coverage
    // of the exact value, and a bounded geomean-speedup error.
    double sampled_seconds = 0.0;
    double sampled_pps = 0.0;
    double sampled_max_ipc_err = 0.0;
    double sampled_geo_err = 0.0;
    std::uint64_t sampled_intervals = 0;
    if (cfg.sampled) {
        std::vector<SweepPoint> spoints = points;
        for (SweepPoint &p : spoints)
            p.sampling = defaultSamplingSpec(p.scale);

        const Phase sampled =
            runPhase("sampled", cfg.iters, spoints, config, engine);
        const SweepResult &sampled_ref = sampled.first;
        sampled_seconds = sampled.best(0);
        sampled_pps = points.size() / sampled_seconds;

        // Coverage gate. Each estimator's CI is a per-metric 95%
        // interval; this loop tests ~100 of them simultaneously, so an
        // uncorrected gate would reject a correct sampler ~99% of the
        // time (expect ~5 misses in 105 at 95%). The slack widens each
        // test to a family-wise ~95% level (Sidak for ~100 tests means
        // ~3.5 sigma total, i.e. ~1.5 sigma beyond the t interval)
        // plus a 2% relative tolerance for residual warming bias,
        // matching the sweep-level IPC-error budget, plus a per-metric
        // discreteness quantum: an estimator built from short intervals
        // cannot resolve biases below ~one miss event per interval
        // (at 2k-inst intervals one L1-I miss is 0.5 MPKI, and one
        // LLC-fill-plus-redirect event is ~32 cycles of CPI), which is
        // exactly the scale of residual content-warming error on
        // workloads whose footprint nearly fits a cache level.
        const double interval_insts = static_cast<double>(
            spoints.front().sampling.intervalInsts);
        const double mpki_quantum = 1000.0 / interval_insts;
        const double cpi_quantum = 32.0 / interval_insts;
        unsigned uncovered = 0;
        const auto check = [&](const SweepOutcome &o, const char *metric,
                               const MetricEstimate &est, double exact,
                               double quantum) {
            const double slack = 1.5 * est.standardError() +
                                 0.02 * std::abs(exact) + quantum;
            if (est.covers(exact, slack))
                return;
            ++uncovered;
            std::fprintf(stderr,
                         "FAIL: (%s, %s) %s CI %.6f +- %.6f (+ slack "
                         "%.6f) does not cover exact %.6f\n",
                         frontendKindName(o.point.kind).c_str(),
                         workloadSlug(o.point.workload).c_str(), metric,
                         est.mean, est.halfWidth95(), slack, exact);
        };
        const auto mean_cpi = [](const CmpMetrics &m) {
            double sum = 0.0;
            for (const CoreMetrics &c : m.cores)
                sum += c.retired > 0
                           ? static_cast<double>(c.cycles) /
                                 static_cast<double>(c.retired)
                           : 0.0;
            return m.cores.empty() ? 0.0 : sum / m.cores.size();
        };
        for (std::size_t i = 0; i < points.size(); ++i) {
            const SweepOutcome &ex = reference.points[i];
            const SweepOutcome &sa = sampled_ref.points[i];
            const SampleEstimates &est = sa.metrics.sampling;
            cfl_assert(est.valid(), "sampled outcome lacks estimators");
            sampled_intervals = est.cpi.count;
            check(sa, "cpi", est.cpi, mean_cpi(ex.metrics), cpi_quantum);
            check(sa, "btb_mpki", est.btbMpki, ex.metrics.meanBtbMpki(),
                  mpki_quantum);
            check(sa, "l1i_mpki", est.l1iMpki, ex.metrics.meanL1iMpki(),
                  mpki_quantum);
            const double exact_ipc = ex.metrics.meanIpc();
            if (exact_ipc > 0.0)
                sampled_max_ipc_err = std::max(
                    sampled_max_ipc_err,
                    std::abs(est.ipcMean() - exact_ipc) / exact_ipc);
        }
        const double geo_exact = reference.geomeanSpeedup(
            FrontendKind::Confluence, FrontendKind::Baseline);
        const double geo_sampled = sampled_ref.geomeanSpeedup(
            FrontendKind::Confluence, FrontendKind::Baseline);
        sampled_geo_err = std::abs(geo_sampled - geo_exact) / geo_exact;

        // The 2% budget below is a *bias* limit, calibrated on the
        // quick grid; on smaller budgets (the smoke grid) estimator
        // noise alone can exceed it with a perfectly unbiased sampler.
        // Widen by the sampled geomean's own statistical resolution:
        // each per-workload speedup is a ratio of two independent CPI
        // estimates, so its relative variance is the sum of theirs,
        // and the geomean's 1/W exponent shrinks the combined SE.
        double ratio_rel_var_sum = 0.0;
        unsigned n_ratios = 0;
        for (const WorkloadId wl :
             sampled_ref.workloadsOf(FrontendKind::Confluence)) {
            const SweepOutcome *conf =
                sampled_ref.find(FrontendKind::Confluence, wl);
            const SweepOutcome *base =
                sampled_ref.find(FrontendKind::Baseline, wl);
            if (conf == nullptr || base == nullptr)
                continue;
            const MetricEstimate &ec = conf->metrics.sampling.cpi;
            const MetricEstimate &eb = base->metrics.sampling.cpi;
            if (ec.mean <= 0.0 || eb.mean <= 0.0)
                continue;
            const double rc = ec.standardError() / ec.mean;
            const double rb = eb.standardError() / eb.mean;
            ratio_rel_var_sum += rc * rc + rb * rb;
            ++n_ratios;
        }
        const double geo_rel_se =
            n_ratios > 0 ? std::sqrt(ratio_rel_var_sum) / n_ratios
                         : 0.0;
        const double geo_limit = 0.02 + 1.96 * geo_rel_se;

        std::fprintf(stderr,
                     "  sampled: %7.2fs  %6.2f points/s  (%.1fx vs "
                     "cached; %llu intervals/point, max IPC err %.2f%%, "
                     "geomean err %.2f%%)\n",
                     sampled_seconds, sampled_pps,
                     sampled_pps / cached_pps,
                     static_cast<unsigned long long>(sampled_intervals),
                     sampled_max_ipc_err * 100.0,
                     sampled_geo_err * 100.0);
        if (uncovered > 0) {
            std::fprintf(stderr,
                         "FAIL: %u sampled metric(s) missed their exact "
                         "value\n", uncovered);
            return 1;
        }
        if (sampled_geo_err > geo_limit) {
            std::fprintf(stderr,
                         "FAIL: sampled geomean speedup %.5f deviates "
                         "%.2f%% from exact %.5f (limit %.2f%% = 2%% "
                         "bias + 1.96x geomean SE %.2f%%)\n",
                         geo_sampled, sampled_geo_err * 100.0, geo_exact,
                         geo_limit * 100.0, geo_rel_se * 100.0);
            return 1;
        }
        if (cfg.minSampledSpeedup > 0.0 &&
            sampled_pps < cfg.minSampledSpeedup * cached_pps) {
            std::fprintf(stderr,
                         "FAIL: sampled speedup %.2fx below the "
                         "--min-sampled-speedup floor %.2fx\n",
                         sampled_pps / cached_pps,
                         cfg.minSampledSpeedup);
            return 1;
        }
    }

    // Queue phase (opt-in): the same sweep pulled through the persistent
    // work queue by confluence_worker daemons. Correctness first: the
    // merge must equal the reference byte for byte.
    double queued_seconds = 0.0;
    if (!cfg.queueWorkerBin.empty()) {
        // The shard binary sits beside the worker: the rule
        // confluence_dispatch's default --sweep-bin follows.
        const std::size_t slash = cfg.queueWorkerBin.rfind('/');
        const std::string sweep_bin =
            (slash == std::string::npos
                 ? std::string()
                 : cfg.queueWorkerBin.substr(0, slash + 1)) +
            "confluence_sweep";
        const std::string qdir = cfg.outPath + ".queue";
        std::filesystem::remove_all(qdir);
        queue::WorkQueue wq(qdir);

        // Real worker daemons, one subprocess each, pulling until the
        // stop marker drops.
        std::vector<std::thread> daemons;
        for (unsigned w = 0; w < kQueueWorkers; ++w)
            daemons.emplace_back([&, w] {
                const dispatch::RunStatus status =
                    dispatch::runLocalCommand(
                        dispatch::shellQuote(cfg.queueWorkerBin) +
                            " --queue " + dispatch::shellQuote(qdir) +
                            " --no-cache --poll-ms 20 --owner bench-w" +
                            std::to_string(w),
                        0);
                if (!status.ok())
                    cfl_warn("queue worker %u exited %d", w,
                             status.exitCode);
            });

        queue::QueueBackend::Options qbopts;
        qbopts.slots = kQueueWorkers;
        qbopts.pollMs = 20;
        queue::QueueBackend qbackend(wq, qbopts);
        dispatch::DispatchOptions qopts;
        qopts.sweepBin = sweep_bin;
        qopts.workDir = qdir + "/work";
        qopts.cacheWriteBack = false;
        // The harness owns its daemons; if they fail to start (bad
        // worker path) or die, no done record ever appears. A per-task
        // timeout turns that hang into a bounded, loud failure.
        qopts.retry.timeoutSec = 600;

        const auto start = Clock::now();
        const SweepResult merged = dispatch::runDispatchedSweep(
            points, qbackend, qopts, nullptr, nullptr);
        const std::chrono::duration<double> elapsed =
            Clock::now() - start;

        wq.requestStop();
        for (std::thread &t : daemons)
            t.join();

        cfl_assert(sweepio::encodeResult(merged) ==
                       sweepio::encodeResult(reference),
                   "queued sweep diverged from in-process sweep");
        queued_seconds = elapsed.count();
        std::fprintf(stderr, "  queue   : %6.2fs  %6.2f points/s  "
                     "%7.2f Minsts/s  (%u pull workers)\n",
                     queued_seconds, points.size() / queued_seconds,
                     total_minsts / queued_seconds, kQueueWorkers);
    }

    const std::uint64_t cache_lookups = traceCache().lookups();
    const std::uint64_t cache_hits = traceCache().hits();
    const std::uint64_t cache_misses = traceCache().misses();
    const std::uint64_t cache_bypasses = traceCache().bypasses();
    cfl_assert(cache_hits + cache_misses + cache_bypasses ==
                   cache_lookups,
               "trace-cache counters do not partition lookups");

    std::ostringstream json;
    json.precision(17);
    json << "{\n"
         << "  \"bench\": \"fig06_sweep\",\n"
         << "  \"smoke\": " << (cfg.smoke ? "true" : "false") << ",\n"
         << "  \"points\": " << points.size() << ",\n"
         << "  \"sim_insts_per_point\": " << sim_insts_per_point << ",\n"
         << "  \"host\": {\"cpu_model\": \"" << hostCpuModel()
         << "\", \"hw_threads\": "
         << std::thread::hardware_concurrency() << "},\n"
         << "  \"jobs\": " << engine.jobs() << ",\n"
         << "  \"iterations\": " << cfg.iters << ",\n"
         << "  \"geomean_speedup\": "
         << reference.geomeanSpeedup(FrontendKind::Confluence,
                                     FrontendKind::Baseline)
         << ",\n"
         << "  \"cached\": {\"seconds\": " << cached_seconds
         << ", \"points_per_sec\": " << cached_pps
         << ", \"minsts_per_sec\": " << cached_mips << "},\n";
    if (cfg.sampled)
        json << "  \"sampled\": {\"seconds\": " << sampled_seconds
             << ", \"points_per_sec\": " << sampled_pps
             << ", \"speedup_vs_cached\": " << sampled_pps / cached_pps
             << ", \"intervals_per_point\": " << sampled_intervals
             << ", \"max_rel_ipc_err\": " << sampled_max_ipc_err
             << ", \"geomean_rel_err\": " << sampled_geo_err << "},\n";
    if (!cfg.queueWorkerBin.empty())
        json << "  \"queued\": {\"seconds\": " << queued_seconds
             << ", \"points_per_sec\": " << points.size() / queued_seconds
             << ", \"minsts_per_sec\": " << total_minsts / queued_seconds
             << ", \"workers\": " << kQueueWorkers << "},\n";
    json
         << "  \"warm_seconds\": " << warm_seconds << ",\n"
         << "  \"allocs_per_kinst\": " << allocs_per_kinst << ",\n"
         << "  \"trace_cache\": {\"lookups\": " << cache_lookups
         << ", \"hits\": " << cache_hits
         << ", \"misses\": " << cache_misses
         << ", \"bypasses\": " << cache_bypasses << "}\n"
         << "}\n";

    std::ofstream out(cfg.outPath);
    out << json.str();
    if (!out.flush()) {
        std::fprintf(stderr, "failed writing %s\n", cfg.outPath.c_str());
        return 1;
    }
    std::fprintf(stderr, "wrote %s\n", cfg.outPath.c_str());

    // Steady-state allocation check: per-instruction allocation on the
    // replay path would put this in the hundreds.
    if (allocs_per_kinst > 50.0) {
        std::fprintf(stderr,
                     "FAIL: %.1f allocs per thousand simulated "
                     "instructions — the steady-state path is "
                     "allocating\n", allocs_per_kinst);
        return 1;
    }

    if (!cfg.comparePath.empty()) {
        const auto gate = [&](const char *phase, double measured,
                              double base) {
            const double floor = base * cfg.minRatio;
            std::fprintf(stderr,
                         "compare %s: %.2f points/s vs baseline %.2f "
                         "(floor %.2f)\n",
                         phase, measured, base, floor);
            if (measured >= floor)
                return true;
            std::fprintf(stderr,
                         "FAIL: %s throughput regressed more than %.0f%% "
                         "vs %s\n", phase, (1.0 - cfg.minRatio) * 100.0,
                         cfg.comparePath.c_str());
            return false;
        };
        if (!gate("cached", cached_pps, baseline.cached))
            return 1;
        if (cfg.sampled && !gate("sampled", sampled_pps, baseline.sampled))
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    HarnessConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                cfl_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--smoke")
            cfg.smoke = true;
        else if (arg == "--sampled")
            cfg.sampled = true;
        else if (arg == "--min-sampled-speedup")
            cfg.minSampledSpeedup = parseDoubleFlag(arg, value());
        else if (arg == "--iters")
            cfg.iters = parseUnsignedFlag(arg, value());
        else if (arg == "--out")
            cfg.outPath = value();
        else if (arg == "--compare")
            cfg.comparePath = value();
        else if (arg == "--min-ratio")
            cfg.minRatio = parseDoubleFlag(arg, value());
        else if (arg == "--queue")
            cfg.queueWorkerBin = value();
        else
            cfl_fatal("unknown flag \"%s\"", arg.c_str());
    }
    if (cfg.iters == 0)
        cfl_fatal("--iters must be >= 1");
    return harnessMain(cfg);
}
