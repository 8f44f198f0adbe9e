/**
 * @file
 * End-to-end simulator performance harness.
 *
 * Times the Figure-6 comparison sweep — the workhorse experiment every
 * figure bench, calibration test, and sharded run is built from — and
 * records the repo's perf trajectory in a small JSON file
 * (BENCH_sweep.json). Two phases are measured:
 *
 *   live    — the trace cache shares nothing (budget 0): every
 *             sweep point generates its oracle stream into a private,
 *             unshared trace and replays it;
 *   cached  — the trace cache is enabled and warmed: points replay
 *             shared immutable traces (the steady state for repeated
 *             sweeps, figure benches, and calibration runs).
 *
 * The harness also counts heap allocations (a global operator new hook)
 * over the final timed iteration, reporting allocations per thousand
 * simulated instructions; a steady-state replay path that allocates per
 * instruction shows up here as a number in the hundreds instead of the
 * single digits.
 *
 * Usage:
 *   perf_harness [--smoke] [--sampled] [--iters N]
 *                [--out PATH]
 *                [--compare BASELINE [--min-ratio R] [--strict]]
 *                [--min-sampled-speedup S]
 *                [--dispatch SWEEP_BIN [--dispatch-workers N]]
 *                [--queue WORKER_BIN [--queue-workers N]]
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
 *   --iters     timing iterations per phase, best-of-N (default 3)
 *   --out       JSON output path (default BENCH_sweep.json)
 *   --compare   fail (exit 1) if cached points/sec drops below
 *               R x the baseline file's value (default R = 0.8); phases
 *               measured here but absent from the baseline print a
 *               "not gated" warning — with --strict that warning is an
 *               error, so CI cannot silently lose a gate
 *   --dispatch  third timed phase: the same sweep through the shard
 *               dispatcher (src/dispatch) on a local subprocess pool
 *               running SWEEP_BIN, verified bit-identical against the
 *               in-process result — the multi-process overhead figure
 *   --queue     fourth timed phase (needs --dispatch for the sweep
 *               binary): the same sweep through the persistent work
 *               queue (src/queue) — N confluence_worker daemons
 *               (WORKER_BIN) pull the shards the coordinator enqueues
 *               — verified bit-identical; queue-vs-dispatch is the
 *               pull-model overhead figure
 *
 * Results are checked bit-identical across the two phases before
 * anything is written: a harness that made the simulator faster but
 * wrong must fail loudly.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

struct PhaseResult
{
    double seconds = 0.0;
    double pointsPerSec = 0.0;
    double minstsPerSec = 0.0;
    double geomean = 0.0;  ///< Confluence-vs-Baseline identity check
};

struct HarnessConfig
{
    bool smoke = false;
    bool sampled = false;
    bool strict = false;
    double minSampledSpeedup = 0.0; ///< 0 = no floor
    unsigned iters = 3;
    std::string outPath = "BENCH_sweep.json";
    std::string comparePath;
    double minRatio = 0.8;
    std::string dispatchSweepBin; ///< "" = skip the dispatched phase
    unsigned dispatchWorkers = 3;
    std::string queueWorkerBin;   ///< "" = skip the queue phase
    unsigned queueWorkers = 2;
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

double
runOnce(const std::vector<SweepPoint> &points, const SystemConfig &config,
        SweepEngine &engine, double *geomean_out)
{
    const auto start = Clock::now();
    const SweepResult result = runTimingSweep(points, config, engine);
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    if (geomean_out != nullptr)
        *geomean_out = result.geomeanSpeedup(FrontendKind::Confluence,
                                             FrontendKind::Baseline);
    return elapsed.count();
}

void
setTraceCacheEnabled(bool enabled)
{
    // 0 shares nothing; otherwise restore a budget comfortably above
    // the harness working set so the cached phase never evicts.
    traceCache().setBudgetBytes(enabled ? (1ull << 30) : 0);
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

/** Minimal extractor: the number following "key": inside the object
 *  after the first occurrence of "\"section\"". */
double
extractNumber(const std::string &text, const std::string &section,
              const std::string &key)
{
    const std::size_t sec = text.find("\"" + section + "\"");
    cfl_assert(sec != std::string::npos, "baseline JSON lacks \"%s\"",
               section.c_str());
    const std::size_t pos = text.find("\"" + key + "\":", sec);
    cfl_assert(pos != std::string::npos, "baseline JSON lacks \"%s\"",
               key.c_str());
    return std::strtod(text.c_str() + pos + key.size() + 3, nullptr);
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

    std::fprintf(stderr,
                 "perf_harness: %zu points, %.1fM simulated insts per "
                 "sweep, %u workers, %u iters per phase\n",
                 points.size(), total_minsts, engine.jobs(), cfg.iters);

    // Warm one-time process state (workload program synthesis, allocator
    // arenas) outside both timed phases so live and cached measurements
    // compare like for like.
    for (const WorkloadId wl : allWorkloads())
        (void)workloadProgram(wl);

    // Phase 1: a private trace per point (trace cache budget 0).
    // Best-of-N, same as the cached phase, for a fair comparison.
    setTraceCacheEnabled(false);
    PhaseResult live;
    live.seconds = 1e300;
    for (unsigned i = 0; i < cfg.iters; ++i) {
        double geomean = 0.0;
        const double s = runOnce(points, config, engine, &geomean);
        if (i > 0)
            cfl_assert(geomean == live.geomean, "live sweep not stable");
        live.geomean = geomean;
        if (s < live.seconds)
            live.seconds = s;
    }
    live.pointsPerSec = points.size() / live.seconds;
    live.minstsPerSec = total_minsts / live.seconds;
    std::fprintf(stderr, "  live   : %7.2fs  %6.2f points/s  %7.2f "
                 "Minsts/s\n", live.seconds, live.pointsPerSec,
                 live.minstsPerSec);

    // Phase 2: cached replay. The first run warms the cache (miss cost),
    // then the timed iterations measure the shared-trace steady state.
    setTraceCacheEnabled(true);
    double warm_geomean = 0.0;
    const double warm_seconds =
        runOnce(points, config, engine, &warm_geomean);
    cfl_assert(warm_geomean == live.geomean,
               "cached sweep diverged from live sweep");

    PhaseResult cached;
    cached.seconds = 1e300;
    std::uint64_t steady_allocs = 0;
    for (unsigned i = 0; i < cfg.iters; ++i) {
        const std::uint64_t allocs_before =
            g_allocCount.load(std::memory_order_relaxed);
        double geomean = 0.0;
        const double s = runOnce(points, config, engine, &geomean);
        steady_allocs = g_allocCount.load(std::memory_order_relaxed) -
                        allocs_before;
        cfl_assert(geomean == live.geomean,
                   "cached sweep diverged from live sweep");
        if (s < cached.seconds)
            cached.seconds = s;  // best-of-N: least scheduler noise
    }
    cached.geomean = live.geomean;
    cached.pointsPerSec = points.size() / cached.seconds;
    cached.minstsPerSec = total_minsts / cached.seconds;
    const double allocs_per_kinst =
        steady_allocs / (total_minsts * 1000.0);
    std::fprintf(stderr, "  cached : %7.2fs  %6.2f points/s  %7.2f "
                 "Minsts/s  (warm %.2fs, %.1f allocs/kinst)\n",
                 cached.seconds, cached.pointsPerSec, cached.minstsPerSec,
                 warm_seconds, allocs_per_kinst);

    // One in-process scalar reference serves the sampled and
    // multi-process phases: the harness has already asserted results
    // are run-to-run identical.
    SweepResult reference;
    if (cfg.sampled || !cfg.dispatchSweepBin.empty() ||
        !cfg.queueWorkerBin.empty())
        reference = runTimingSweep(points, config, engine);

    // Sampled phase (opt-in): the same grid with SMARTS sampling.
    // Sampled results are not bit-comparable to exact ones — the gates
    // are statistical: run-to-run determinism, per-metric CI coverage
    // of the exact value, and a bounded geomean-speedup error.
    PhaseResult sampled;
    bool have_sampled = false;
    double sampled_max_ipc_err = 0.0;
    double sampled_geo_err = 0.0;
    std::uint64_t sampled_intervals = 0;
    if (cfg.sampled) {
        std::vector<SweepPoint> spoints = points;
        for (SweepPoint &p : spoints)
            p.sampling = defaultSamplingSpec(p.scale);

        SweepResult sampled_ref;
        sampled.seconds = 1e300;
        for (unsigned i = 0; i < cfg.iters; ++i) {
            const auto start = Clock::now();
            SweepResult r = runTimingSweep(spoints, config, engine);
            const std::chrono::duration<double> elapsed =
                Clock::now() - start;
            if (i == 0)
                sampled_ref = std::move(r);
            else
                cfl_assert(sweepio::encodeResult(r) ==
                               sweepio::encodeResult(sampled_ref),
                           "sampled sweep not run-to-run deterministic");
            if (elapsed.count() < sampled.seconds)
                sampled.seconds = elapsed.count();
        }

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

        sampled.geomean = geo_sampled;
        sampled.pointsPerSec = points.size() / sampled.seconds;
        sampled.minstsPerSec = total_minsts / sampled.seconds;
        have_sampled = true;
        std::fprintf(stderr,
                     "  sampled: %7.2fs  %6.2f points/s  (%.1fx vs "
                     "cached; %llu intervals/point, max IPC err %.2f%%, "
                     "geomean err %.2f%%)\n",
                     sampled.seconds, sampled.pointsPerSec,
                     sampled.pointsPerSec / cached.pointsPerSec,
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
            sampled.pointsPerSec <
                cfg.minSampledSpeedup * cached.pointsPerSec) {
            std::fprintf(stderr,
                         "FAIL: sampled speedup %.2fx below the "
                         "--min-sampled-speedup floor %.2fx\n",
                         sampled.pointsPerSec / cached.pointsPerSec,
                         cfg.minSampledSpeedup);
            return 1;
        }
    }

    // Phase 3 (opt-in): the same sweep through the shard dispatcher on
    // a local subprocess pool — the fleet path. Untimed correctness
    // first: the merged result must be byte-identical to in-process.
    PhaseResult dispatched;
    bool have_dispatched = false;
    if (!cfg.dispatchSweepBin.empty()) {
        dispatch::LocalBackend backend(cfg.dispatchWorkers);
        dispatch::DispatchOptions opts;
        opts.sweepBin = cfg.dispatchSweepBin;
        opts.workDir = cfg.outPath + ".dispatch";

        const auto start = Clock::now();
        const SweepResult merged = dispatch::runDispatchedSweep(
            points, backend, opts, nullptr, nullptr);
        const std::chrono::duration<double> elapsed =
            Clock::now() - start;

        cfl_assert(sweepio::encodeResult(merged) ==
                       sweepio::encodeResult(reference),
                   "dispatched sweep diverged from in-process sweep");
        dispatched.seconds = elapsed.count();
        dispatched.pointsPerSec = points.size() / dispatched.seconds;
        dispatched.minstsPerSec = total_minsts / dispatched.seconds;
        have_dispatched = true;
        std::fprintf(stderr, "  dispatch: %6.2fs  %6.2f points/s  "
                     "%7.2f Minsts/s  (%u subprocess workers)\n",
                     dispatched.seconds, dispatched.pointsPerSec,
                     dispatched.minstsPerSec, cfg.dispatchWorkers);
    }

    // Phase 4 (opt-in): the same sweep pulled through the persistent
    // work queue by confluence_worker daemons. Correctness first, as
    // above; queue-vs-dispatch is the pull-model overhead.
    PhaseResult queued;
    bool have_queued = false;
    if (!cfg.queueWorkerBin.empty()) {
        if (cfg.dispatchSweepBin.empty())
            cfl_fatal("--queue needs --dispatch SWEEP_BIN for the "
                      "shard commands");
        const std::string qdir = cfg.outPath + ".queue";
        std::filesystem::remove_all(qdir);
        queue::WorkQueue wq(qdir);

        // Real worker daemons, one subprocess each, pulling until the
        // stop marker drops.
        std::vector<std::thread> daemons;
        for (unsigned w = 0; w < cfg.queueWorkers; ++w)
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
        qbopts.slots = cfg.queueWorkers;
        qbopts.pollMs = 20;
        queue::QueueBackend qbackend(wq, qbopts);
        dispatch::DispatchOptions qopts;
        qopts.sweepBin = cfg.dispatchSweepBin;
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
        queued.seconds = elapsed.count();
        queued.pointsPerSec = points.size() / queued.seconds;
        queued.minstsPerSec = total_minsts / queued.seconds;
        have_queued = true;
        std::fprintf(stderr, "  queue   : %6.2fs  %6.2f points/s  "
                     "%7.2f Minsts/s  (%u pull workers)\n",
                     queued.seconds, queued.pointsPerSec,
                     queued.minstsPerSec, cfg.queueWorkers);
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
         << "  \"geomean_speedup\": " << live.geomean << ",\n"
         << "  \"live\": {\"seconds\": " << live.seconds
         << ", \"points_per_sec\": " << live.pointsPerSec
         << ", \"minsts_per_sec\": " << live.minstsPerSec << "},\n"
         << "  \"cached\": {\"seconds\": " << cached.seconds
         << ", \"points_per_sec\": " << cached.pointsPerSec
         << ", \"minsts_per_sec\": " << cached.minstsPerSec << "},\n"
         << "  \"cache_speedup\": "
         << cached.pointsPerSec / live.pointsPerSec << ",\n";
    if (have_sampled)
        json << "  \"sampled\": {\"seconds\": " << sampled.seconds
             << ", \"points_per_sec\": " << sampled.pointsPerSec
             << ", \"speedup_vs_cached\": "
             << sampled.pointsPerSec / cached.pointsPerSec
             << ", \"intervals_per_point\": " << sampled_intervals
             << ", \"max_rel_ipc_err\": " << sampled_max_ipc_err
             << ", \"geomean_rel_err\": " << sampled_geo_err << "},\n";
    if (have_dispatched)
        json << "  \"dispatched\": {\"seconds\": " << dispatched.seconds
             << ", \"points_per_sec\": " << dispatched.pointsPerSec
             << ", \"minsts_per_sec\": " << dispatched.minstsPerSec
             << ", \"workers\": " << cfg.dispatchWorkers << "},\n";
    if (have_queued)
        json << "  \"queued\": {\"seconds\": " << queued.seconds
             << ", \"points_per_sec\": " << queued.pointsPerSec
             << ", \"minsts_per_sec\": " << queued.minstsPerSec
             << ", \"workers\": " << cfg.queueWorkers << "},\n";
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
        std::ifstream in(cfg.comparePath);
        if (!in) {
            std::fprintf(stderr, "cannot read baseline %s\n",
                         cfg.comparePath.c_str());
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string baseline = buf.str();

        // Every phase measured here is gated when the baseline has its
        // section. A missing section warns loudly — and is an error
        // under --strict — instead of silently dropping the gate.
        bool ungated = false;
        const auto gate = [&](const char *phase, bool measured_here,
                              double measured) {
            if (!measured_here)
                return true;
            if (baseline.find("\"" + std::string(phase) + "\"") ==
                std::string::npos) {
                std::fprintf(stderr,
                             "WARNING: phase %s not gated (no "
                             "baseline)\n", phase);
                ungated = true;
                return true;
            }
            const double base =
                extractNumber(baseline, phase, "points_per_sec");
            const double floor = base * cfg.minRatio;
            std::fprintf(stderr,
                         "compare %s: %.2f points/s vs baseline %.2f "
                         "(floor %.2f)\n",
                         phase, measured, base, floor);
            if (measured < floor) {
                std::fprintf(stderr,
                             "FAIL: %s throughput regressed more than "
                             "%.0f%% vs %s\n", phase,
                             (1.0 - cfg.minRatio) * 100.0,
                             cfg.comparePath.c_str());
                return false;
            }
            return true;
        };

        if (!gate("cached", true, cached.pointsPerSec))
            return 1;
        if (!gate("sampled", have_sampled, sampled.pointsPerSec))
            return 1;
        if (ungated && cfg.strict) {
            std::fprintf(stderr,
                         "FAIL: --strict and at least one measured "
                         "phase has no baseline section\n");
            return 1;
        }
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
        else if (arg == "--strict")
            cfg.strict = true;
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
        else if (arg == "--dispatch")
            cfg.dispatchSweepBin = value();
        else if (arg == "--dispatch-workers")
            cfg.dispatchWorkers = parseUnsignedFlag(arg, value());
        else if (arg == "--queue")
            cfg.queueWorkerBin = value();
        else if (arg == "--queue-workers")
            cfg.queueWorkers = parseUnsignedFlag(arg, value());
        else
            cfl_fatal("unknown flag \"%s\"", arg.c_str());
    }
    if (cfg.iters == 0)
        cfg.iters = 1;
    return harnessMain(cfg);
}
