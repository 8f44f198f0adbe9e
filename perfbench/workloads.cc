#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "confluence/cmp.hh"
#include "dispatch/backend.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/result_cache.hh"
#include "search/driver.hh"
#include "sim/metrics.hh"
#include "sim/presets.hh"
#include "sweepio/codec.hh"
#include "sweepio/digest.hh"
#include "sweepio/search_codec.hh"
#include "trace/trace_cache.hh"

namespace perfbench
{

using namespace cfl;

namespace
{

// ---------------------------------------------------------------------------
// Fixed inputs
// ---------------------------------------------------------------------------

/** The Figure 6 comparison, in the paper's order. */
const std::vector<FrontendKind> kFig06Kinds = {
    FrontendKind::Baseline,      FrontendKind::Fdp,
    FrontendKind::PhantomFdp,    FrontendKind::TwoLevelFdp,
    FrontendKind::TwoLevelShift, FrontendKind::Confluence,
    FrontendKind::Ideal,
};

/** Confluence over Baseline on the quick Fig. 6 grid, as committed in
 *  BENCH_sweep.json. */
constexpr double kFig06Geomean = 1.356185856160635;

/** FNV-1a of the quick Fig. 6 result encoded in canonical (kind, then
 *  workload) order: pins every counter of all 35 points. */
constexpr std::uint64_t kFig06ResultDigest = 0x09372e1a85a6c727ull;

/** The CI adaptive-search space: 41 candidates. */
const char *const kSearchSpace =
    "kinds=fdp,two_level_shift,confluence;"
    "btb_entries=256,512,1024,2048,4096;"
    "l2_entries=4096,8192,16384,32768;"
    "shift_history=8192,16384,32768;"
    "air_bundles=128,256,512,1024;"
    "air_branch_entries=2,3";

/** dispatch_shards' per-point budget: simulation is a small share of
 *  a shard's cost, so process and codec overheads dominate. */
constexpr Counter kDispatchWarmupInsts = 20'000;
constexpr Counter kDispatchMeasureInsts = 10'000;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/** Seed-driven permutation; kDefaultSeed keeps the given order. */
template <typename T>
void
permute(std::vector<T> &v, std::uint64_t seed)
{
    if (seed == kDefaultSeed)
        return;
    std::mt19937_64 rng(seed);
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng() % i]);
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
slug(FrontendKind kind)
{
    return frontendKindSlug(kind);
}

/** The (kinds x workloads) grid at @p scale, kind-major. */
std::vector<SweepPoint>
fig06Grid(const RunScale &scale)
{
    std::vector<SweepPoint> points;
    for (const FrontendKind kind : kFig06Kinds)
        for (const WorkloadId wl : allWorkloads())
            points.push_back({kind, wl, scale});
    return points;
}

/** @p result re-ordered kind-major, so runs whose submission order
 *  differs encode to the same bytes. */
std::string
canonicalEncoding(const SweepResult &result)
{
    SweepResult sorted;
    for (const FrontendKind kind : kFig06Kinds)
        for (const WorkloadId wl : allWorkloads())
            if (const SweepOutcome *o = result.find(kind, wl))
                sorted.points.push_back(*o);
    return sweepio::encodeResult(sorted);
}

/** Best geomean speedup over Baseline among the real designs of a
 *  Fig. 6 grid (Ideal is a bound, not a design). */
double
bestGridScore(const SweepResult &result)
{
    double best = 0.0;
    for (const FrontendKind kind : kFig06Kinds)
        if (kind != FrontendKind::Baseline && kind != FrontendKind::Ideal)
            best = std::max(best, result.geomeanSpeedup(
                                      kind, FrontendKind::Baseline));
    return best;
}

/** model.*: simulated counters of a Fig. 6 grid, in canonical order. */
void
modelValues(const SweepResult &result, Values &out)
{
    out["model.geomean_speedup"] = result.geomeanSpeedup(
        FrontendKind::Confluence, FrontendKind::Baseline);
    double cycles = 0, misfetches = 0, mispredicts = 0, l2stall = 0,
           missStall = 0;
    for (const FrontendKind kind : kFig06Kinds) {
        double ipc = 0, btb = 0, l1i = 0;
        for (const WorkloadId wl : allWorkloads()) {
            const CmpMetrics &m = result.find(kind, wl)->metrics;
            ipc += m.meanIpc();
            btb += m.meanBtbMpki();
            l1i += m.meanL1iMpki();
            for (const CoreMetrics &c : m.cores) {
                cycles += c.cycles;
                misfetches += c.misfetches;
                mispredicts += c.condMispredicts;
                l2stall += c.btbL2StallCycles;
                missStall += c.fetchMissStallCycles;
            }
        }
        const double n = static_cast<double>(allWorkloads().size());
        out["model.ipc." + slug(kind)] = ipc / n;
        out["model.btb_mpki." + slug(kind)] = btb / n;
        out["model.l1i_mpki." + slug(kind)] = l1i / n;
    }
    out["model.cycles"] = cycles;
    out["model.misfetches"] = misfetches;
    out["model.cond_mispredicts"] = mispredicts;
    out["model.btb_l2_stall_cycles"] = l2stall;
    out["model.fetch_miss_stall_cycles"] = missStall;
}

/** sweepio.*: per-call codec and digest cost over @p outcomes. */
void
codecValues(const std::vector<SweepOutcome> &outcomes, Values &out)
{
    if (outcomes.empty())
        return;
    const std::string cv = dispatch::ResultCache::defaultCodeVersion();
    std::vector<std::string> lines;
    for (const SweepOutcome &o : outcomes)
        lines.push_back(sweepio::encodeOutcome(o));
    // Enough calls per repetition that the clock reads do not matter.
    const std::size_t passes = (4000 + outcomes.size() - 1) / outcomes.size();
    const double calls = static_cast<double>(passes * outcomes.size());
    std::vector<double> enc, dec, dig;
    std::size_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        auto t0 = Clock::now();
        for (std::size_t p = 0; p < passes; ++p)
            for (const SweepOutcome &o : outcomes)
                sink += sweepio::encodeOutcome(o).size();
        enc.push_back(secondsSince(t0) * 1e6 / calls);
        t0 = Clock::now();
        for (std::size_t p = 0; p < passes; ++p)
            for (const std::string &line : lines)
                sink += sweepio::decodeOutcome(line).seed;
        dec.push_back(secondsSince(t0) * 1e6 / calls);
        t0 = Clock::now();
        for (std::size_t p = 0; p < passes; ++p)
            for (const SweepOutcome &o : outcomes)
                sink += sweepio::pointDigest(o.point, o.seed, cv).size();
        dig.push_back(secondsSince(t0) * 1e6 / calls);
    }
    cfl_assert(sink != 0, "codec replay did no work");
    out["sweepio.encode_us"] = median(enc);
    out["sweepio.decode_us"] = median(dec);
    out["sweepio.digest_us"] = median(dig);
}

/** Trace-cache counter deltas around one operation. */
struct TraceCounters
{
    std::uint64_t lookups, hits, misses, bypasses;

    static TraceCounters now()
    {
        TraceCache &c = traceCache();
        return {c.lookups(), c.hits(), c.misses(), c.bypasses()};
    }

    void reportSince(const TraceCounters &before, Values &out) const
    {
        const double l = static_cast<double>(lookups - before.lookups);
        out["trace.lookups"] = l;
        out["trace.hits"] = static_cast<double>(hits - before.hits);
        out["trace.misses"] = static_cast<double>(misses - before.misses);
        out["trace.bypasses"] =
            static_cast<double>(bypasses - before.bypasses);
        out["trace.hit_ratio"] = l == 0 ? 0.0 : (hits - before.hits) / l;
        out["trace.cached_mb"] =
            traceCache().cachedBytes() / (1024.0 * 1024.0);
    }
};

// ---------------------------------------------------------------------------
// Traced in-process sweep: runTimingSweep's composition, spanned
// ---------------------------------------------------------------------------

/** A point the traced sweep simulated, with the group its spans share. */
struct TracedPoint
{
    std::uint32_t group;
    SweepPoint point;
};

/**
 * runTimingSweep(points, config, engine) with a span around every Cmp
 * call that evaluateSweepPoint/runSweepPointOn make. The output checks
 * compare its results byte for byte with the untraced entry point.
 */
SweepResult
tracedSweep(Tracer &tracer, const std::vector<SweepPoint> &points,
            const SystemConfig &config, SweepEngine &engine,
            std::vector<TracedPoint> &log)
{
    SweepResult result;
    result.points.resize(points.size());
    std::vector<std::uint32_t> groups(points.size());
    Scope sweep(tracer, "sim.sweep");
    engine.parallelFor(points.size(), [&](std::size_t i) {
        const SweepPoint &p = points[i];
        groups[i] = tracer.newGroup();
        Scope point(tracer, "sim.point", sweep.id(), groups[i]);
        SystemConfig cfg = config;
        cfg.numCores = p.scale.timingCores;
        p.overlay.applyTo(cfg);
        SweepOutcome &out = result.points[i];
        out.point = p;
        out.seed = sweepPointSeed(p.kind, p.workload);
        std::unique_ptr<Cmp> cmp;
        {
            Scope s(tracer, "confluence.build");
            cmp = std::make_unique<Cmp>(p.kind, p.workload, cfg, out.seed);
        }
        if (p.sampling.enabled()) {
            Scope s(tracer, "core.sampled");
            out.metrics = cmp->runSampled(p.scale.timingWarmupInsts,
                                          p.scale.timingMeasureInsts,
                                          p.sampling);
            return;
        }
        {
            Scope s(tracer, "trace.prepare");
            cmp->prepareTraces(p.scale.timingWarmupInsts +
                               p.scale.timingMeasureInsts);
        }
        {
            Scope s(tracer, "core.warmup");
            cmp->runWarmup(p.scale.timingWarmupInsts);
        }
        {
            Scope s(tracer, "core.measure");
            cmp->runMeasurement(p.scale.timingMeasureInsts);
        }
        Scope s(tracer, "confluence.collect");
        out.metrics = cmp->collectMetrics();
    });
    for (std::size_t i = 0; i < points.size(); ++i)
        log.push_back({groups[i], points[i]});
    return result;
}

/** Span totals and point statistics of a traced in-process sweep. */
void
simLayerValues(const std::vector<Span> &spans,
               const std::vector<TracedPoint> &log, double op_wall,
               Values &out)
{
    std::map<std::string, double> total;
    std::map<std::uint32_t, double> detailed; // warmup + measure, by group
    std::vector<double> pointMs;
    for (const Span &s : spans) {
        total[s.name] += s.seconds();
        if (s.name == "core.warmup" || s.name == "core.measure")
            detailed[s.group] += s.seconds();
        if (s.name == "sim.point")
            pointMs.push_back(s.seconds() * 1e3);
    }
    out["trace.prepare_s"] = total["trace.prepare"];
    out["confluence.build_s"] = total["confluence.build"];
    out["core.warmup_s"] = total["core.warmup"];
    out["core.measure_s"] = total["core.measure"];
    out["core.sampled_s"] = total["core.sampled"];

    std::map<FrontendKind, std::pair<double, double>> perKind; // s, insts
    for (const TracedPoint &tp : log) {
        if (tp.point.sampling.enabled())
            continue;
        auto &[sec, insts] = perKind[tp.point.kind];
        sec += detailed[tp.group];
        insts += static_cast<double>(tp.point.scale.timingWarmupInsts +
                                     tp.point.scale.timingMeasureInsts) *
                 tp.point.scale.timingCores;
    }
    for (const auto &[kind, si] : perKind)
        out["core.ns_per_inst." + slug(kind)] = si.first * 1e9 / si.second;

    out["sim.point_count"] = static_cast<double>(pointMs.size());
    out["sim.point_ms_p50"] = quantile(pointMs, 0.5);
    out["sim.point_ms_p90"] = quantile(pointMs, 0.9);
    out["sim.parallel_eff"] =
        total["sim.point"] / (op_wall * kEngineWorkers);
}

// ---------------------------------------------------------------------------
// fig06_oneshot
// ---------------------------------------------------------------------------

class Fig06Oneshot : public Workload
{
  public:
    explicit Fig06Oneshot(const RunOptions &opts)
        : points_(fig06Grid(scaleByName("quick"))),
          config_(makeSystemConfig(1)), engine_(kEngineWorkers)
    {
        permute(points_, opts.seed);
    }

    double runOnce() override
    {
        // As in a fresh fig06_confluence_comparison process.
        traceCache().clear();
        const auto t0 = Clock::now();
        const SweepResult result = runTimingSweep(points_, config_, engine_);
        const double wall = secondsSince(t0);
        attempted += points_.size();
        check(result, "untraced sweep");
        if (best_ == 0.0)
            best_ = bestGridScore(result);
        return wall;
    }

    void checkReferences() override {}

    void endToEnd(double median_wall, Values &out) const override
    {
        out["points_per_s"] = points_.size() / median_wall;
        out["sim_mips"] = simulatedInstsPerOp() / median_wall / 1e6;
        out["best_score"] = best_;
    }

    std::uint32_t traced(Tracer &tracer, Values &out) override
    {
        traceCache().clear();
        const TraceCounters before = TraceCounters::now();
        std::vector<TracedPoint> log;
        SweepResult result;
        std::uint32_t root;
        {
            Scope op(tracer, "bench.op");
            root = op.id();
            result = tracedSweep(tracer, points_, config_, engine_, log);
        }
        TraceCounters::now().reportSince(before, out);
        check(result, "traced sweep");
        const std::vector<Span> spans = tracer.spans();
        simLayerValues(spans, log, spans[root - 1].seconds(), out);
        modelValues(result, out);
        codecValues(result.points, out);
        return root;
    }

    double simulatedInstsPerOp() const override
    {
        const RunScale &s = points_.front().scale;
        return static_cast<double>(points_.size()) *
               (s.timingWarmupInsts + s.timingMeasureInsts) * s.timingCores;
    }

    std::string scaleName() const override { return "quick"; }

  private:
    void check(const SweepResult &result, const char *what)
    {
        const std::string bytes = canonicalEncoding(result);
        if (first_.empty())
            first_ = bytes;
        else if (bytes != first_)
            failures.push_back(std::string(what) +
                               ": result bytes differ from the first sweep");
        const std::uint64_t digest = fnv1a(bytes);
        if (digest != kFig06ResultDigest) {
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "%s: result digest %016llx, expected %016llx",
                          what, static_cast<unsigned long long>(digest),
                          static_cast<unsigned long long>(kFig06ResultDigest));
            failures.push_back(buf);
        }
        const double g = result.geomeanSpeedup(FrontendKind::Confluence,
                                               FrontendKind::Baseline);
        if (g != kFig06Geomean) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "%s: geomean %.17g, expected %.17g",
                          what, g, kFig06Geomean);
            failures.push_back(buf);
        }
    }

    std::vector<SweepPoint> points_;
    SystemConfig config_;
    SweepEngine engine_;
    std::string first_;
    double best_ = 0.0;
};

// ---------------------------------------------------------------------------
// search_halving
// ---------------------------------------------------------------------------

/**
 * Forwarding Evaluator for the traced search. Each batch's store
 * misses are simulated first through tracedSweep and inserted into the
 * store (one flush per batch, as CachedEvaluator does); the batch is
 * then forwarded to the real CachedEvaluator, which finds every point
 * in the store. Journal and store bytes are checked against the
 * untraced search.
 */
class TracedEvaluator : public search::Evaluator
{
  public:
    TracedEvaluator(search::CachedEvaluator &inner,
                    dispatch::ResultCache &cache, const SystemConfig &config,
                    SweepEngine &engine, Tracer &tracer)
        : inner_(inner), cache_(cache), config_(config), engine_(engine),
          tracer_(tracer)
    {
    }

    SweepResult evaluate(const std::vector<SweepPoint> &points) override
    {
        const bool sampled =
            !points.empty() && points.front().sampling.enabled();
        Scope batch(tracer_,
                    sampled ? "search.eval_sampled" : "search.eval_exact",
                    Scope::innermostId(), tracer_.newGroup());
        std::vector<SweepPoint> fresh;
        {
            Scope s(tracer_, "dispatch.cache_lookup");
            std::set<std::string> seen;
            for (const SweepPoint &p : points) {
                const std::uint64_t seed = sweepPointSeed(p.kind, p.workload);
                if (seen.insert(cache_.key(p, seed)).second &&
                    cache_.lookup(p, seed) == nullptr)
                    fresh.push_back(p);
            }
        }
        if (!fresh.empty()) {
            const SweepResult simulated =
                tracedSweep(tracer_, fresh, config_, engine_, log_);
            Scope s(tracer_, "dispatch.cache_flush");
            for (const SweepOutcome &o : simulated.points)
                cache_.insert(o);
            cache_.flush();
            evaluated_ += fresh.size();
        }
        SweepResult out = inner_.evaluate(points);
        outcomes_.insert(outcomes_.end(), out.points.begin(),
                         out.points.end());
        return out;
    }

    std::string pointKey(const SweepPoint &point) const override
    {
        return inner_.pointKey(point);
    }
    std::uint64_t evaluatedPoints() const override { return evaluated_; }
    std::uint64_t cachedPoints() const override
    {
        return inner_.requestedPoints() - evaluated_;
    }
    std::uint64_t requestedPoints() const override
    {
        return inner_.requestedPoints();
    }

    const std::vector<TracedPoint> &log() const { return log_; }
    const std::vector<SweepOutcome> &outcomes() const { return outcomes_; }

  private:
    search::CachedEvaluator &inner_;
    dispatch::ResultCache &cache_;
    const SystemConfig &config_;
    SweepEngine &engine_;
    Tracer &tracer_;
    std::uint64_t evaluated_ = 0;
    std::vector<TracedPoint> log_;
    std::vector<SweepOutcome> outcomes_;
};

class SearchHalving : public Workload
{
  public:
    explicit SearchHalving(const RunOptions &opts)
        : config_(makeSystemConfig(1)), engine_(kEngineWorkers),
          storePath_(opts.workDir + "/search-results.jsonl"),
          journalPath_(opts.workDir + "/search-journal.jsonl")
    {
        opts_.strategy = "halving";
        opts_.space = search::DesignSpace::parse(kSearchSpace);
        opts_.workloads = allWorkloads();
        permute(opts_.workloads, opts.seed);
        opts_.scaleName = "quick";
        opts_.scale = scaleByName(opts_.scaleName);
        opts_.codeVersion = dispatch::ResultCache::defaultCodeVersion();
        opts_.seed = 1;
        opts_.sampledScreening = true;
        opts_.eta = 4;
        opts_.finalists = 2;
        const std::size_t candidates =
            search::enumerateCandidates(opts_.space).size();
        if (candidates != 41)
            failures.push_back("search space has " +
                               std::to_string(candidates) +
                               " candidates, expected 41");
    }

    double runOnce() override
    {
        fresh();
        const auto t0 = Clock::now();
        search::SearchReport report;
        {
            dispatch::ResultCache cache(storePath_, opts_.codeVersion);
            search::SearchJournal journal(journalPath_, false);
            search::CachedEvaluator eval(config_, engine_, &cache,
                                         opts_.codeVersion);
            report = search::runSearch(opts_, eval, journal);
            requested_ = eval.requestedPoints();
            evaluated_ = eval.evaluatedPoints();
        }
        const double wall = secondsSince(t0);
        attempted += requested_;
        check(report, "untraced search");
        return wall;
    }

    void checkReferences() override
    {
        // best_score must be what a direct sweep of the returned
        // candidate scores, bit for bit.
        const search::Candidate best = search::candidateFromSlug(report_.best);
        std::vector<SweepPoint> points;
        for (const FrontendKind kind : {best.kind, FrontendKind::Baseline})
            for (const WorkloadId wl : opts_.workloads)
                points.push_back({kind, wl, opts_.scale, {},
                                  kind == best.kind ? best.overlay
                                                    : DesignOverlay{}});
        const SweepResult r = runTimingSweep(points, config_, engine_);
        const std::size_t n = opts_.workloads.size();
        std::vector<double> perWl(n);
        for (std::size_t w = 0; w < n; ++w)
            perWl[w] = speedup(r.points[w].metrics.meanIpc(),
                               r.points[n + w].metrics.meanIpc());
        if (sweepio::doubleBits(geomean(perWl)) !=
            sweepio::doubleBits(report_.bestScore))
            failures.push_back("best_score differs from a direct sweep of " +
                               report_.best);
    }

    void endToEnd(double median_wall, Values &out) const override
    {
        out["points_per_s"] = requested_ / median_wall;
        out["sim_mips"] = simulatedInstsPerOp() / median_wall / 1e6;
        out["best_score"] = report_.bestScore;
    }

    std::uint32_t traced(Tracer &tracer, Values &out) override
    {
        fresh();
        const TraceCounters before = TraceCounters::now();
        search::SearchReport report;
        std::optional<dispatch::ResultCache> cache;
        std::optional<search::SearchJournal> journal;
        std::optional<search::CachedEvaluator> inner;
        std::optional<TracedEvaluator> eval;
        std::uint32_t root, run;
        {
            Scope op(tracer, "bench.op");
            root = op.id();
            {
                Scope s(tracer, "dispatch.cache_open");
                cache.emplace(storePath_, opts_.codeVersion);
            }
            {
                Scope s(tracer, "search.journal_open");
                journal.emplace(journalPath_, false);
            }
            inner.emplace(config_, engine_, &*cache, opts_.codeVersion);
            eval.emplace(*inner, *cache, config_, engine_, tracer);
            {
                Scope s(tracer, "search.run");
                run = s.id();
                report = search::runSearch(opts_, *eval, *journal);
            }
            journal.reset();
        }
        TraceCounters::now().reportSince(before, out);
        check(report, "traced search");
        if (inner->evaluatedPoints() != 0)
            failures.push_back("traced search simulated outside its spans");
        if (readFile(storePath_) != store_)
            failures.push_back("traced search store differs from untraced");

        const std::vector<Span> spans = tracer.spans();
        simLayerValues(spans, eval->log(), spans[root - 1].seconds(), out);
        double sampledS = 0, exactS = 0;
        for (const Span &s : spans) {
            if (s.name == "search.eval_sampled")
                sampledS += s.seconds();
            if (s.name == "search.eval_exact")
                exactS += s.seconds();
        }
        out["search.eval_sampled_s"] = sampledS;
        out["search.eval_exact_s"] = exactS;
        out["search.self_s"] = spans[run - 1].seconds() - sampledS - exactS;
        out["search.requested"] = static_cast<double>(eval->requestedPoints());
        out["search.evaluated"] = static_cast<double>(eval->evaluatedPoints());
        out["search.cached"] = static_cast<double>(eval->cachedPoints());
        out["search.rounds"] = static_cast<double>(report.rounds);
        const std::vector<sweepio::SearchRecord> records =
            sweepio::readSearchJournal(journalPath_);
        out["search.journal_records"] = static_cast<double>(records.size());
        out["search.screen_err"] = screenError(records);
        codecValues(eval->outcomes(), out);
        return root;
    }

    double simulatedInstsPerOp() const override
    {
        return static_cast<double>(evaluated_) *
               (opts_.scale.timingWarmupInsts +
                opts_.scale.timingMeasureInsts) *
               opts_.scale.timingCores;
    }

    std::string scaleName() const override { return "quick"; }

  private:
    /** A fresh result store and journal, and a cleared trace cache. */
    void fresh()
    {
        std::remove(storePath_.c_str());
        std::remove(journalPath_.c_str());
        traceCache().clear();
    }

    void check(const search::SearchReport &report, const char *what)
    {
        const std::string journal = readFile(journalPath_);
        if (journal_.empty()) {
            journal_ = journal;
            store_ = readFile(storePath_);
            report_ = report;
        } else if (journal != journal_) {
            failures.push_back(std::string(what) +
                               ": journal differs from the first search");
        }
        if (report.best != report_.best ||
            sweepio::doubleBits(report.bestScore) !=
                sweepio::doubleBits(report_.bestScore))
            failures.push_back(std::string(what) +
                               ": best design differs from the first search");
    }

    /** Largest relative gap between a finalist's last screening score
     *  and its exact final score. */
    static double screenError(const std::vector<sweepio::SearchRecord> &rs)
    {
        std::map<std::string, double> screened;
        double err = 0.0;
        for (const sweepio::SearchRecord &r : rs) {
            if (r.type != "decision")
                continue;
            const double score = sweepio::doubleFromBits(r.scoreBits);
            if (r.action == "keep")
                screened[r.candidate] = score;
            else if (r.action == "final" && screened.count(r.candidate))
                err = std::max(err, std::abs(screened[r.candidate] - score) /
                                        score);
        }
        return err;
    }

    search::SearchOptions opts_;
    SystemConfig config_;
    SweepEngine engine_;
    std::string storePath_;
    std::string journalPath_;
    search::SearchReport report_;
    std::string journal_;
    std::string store_;
    std::uint64_t requested_ = 0;
    std::uint64_t evaluated_ = 0;
};

// ---------------------------------------------------------------------------
// dispatch_shards
// ---------------------------------------------------------------------------

/** Forwarding WorkerBackend: one span per shard attempt. */
class TracedBackend : public dispatch::WorkerBackend
{
  public:
    TracedBackend(dispatch::WorkerBackend &inner, Tracer &tracer,
                  std::uint32_t parent)
        : inner_(inner), tracer_(tracer), parent_(parent)
    {
    }

    unsigned workers() const override { return inner_.workers(); }

    dispatch::RunStatus run(unsigned worker, const std::string &command,
                            unsigned timeout_sec) override
    {
        Scope s(tracer_, "dispatch.shard", parent_, tracer_.newGroup());
        return inner_.run(worker, command, timeout_sec);
    }

  private:
    dispatch::WorkerBackend &inner_;
    Tracer &tracer_;
    std::uint32_t parent_;
};

class DispatchShards : public Workload
{
  public:
    explicit DispatchShards(const RunOptions &opts)
        : config_(makeSystemConfig(1)), engine_(kEngineWorkers),
          backend_(kDispatchWorkers),
          storePath_(opts.workDir + "/dispatch-results.jsonl")
    {
        RunScale scale = scaleByName("quick");
        scale.timingWarmupInsts = kDispatchWarmupInsts;
        scale.timingMeasureInsts = kDispatchMeasureInsts;
        points_ = fig06Grid(scale);
        permute(points_, opts.seed);
        // Shard processes inherit this: one simulation thread each, so
        // busy threads never exceed the worker slots.
        setenv("CONFLUENCE_JOBS", "1", 1);
        dopts_.sweepBin = PERFBENCH_SWEEP_BIN;
        dopts_.workDir = opts.workDir + "/shards";
        dopts_.shards = static_cast<unsigned>(points_.size());
        codeVersion_ = dispatch::ResultCache::defaultCodeVersion();
    }

    double runOnce() override
    {
        std::remove(storePath_.c_str());
        const auto t0 = Clock::now();
        SweepResult result;
        dispatch::DispatchStats stats;
        {
            dispatch::ResultCache cache(storePath_, codeVersion_);
            result = dispatch::runDispatchedSweep(points_, backend_, dopts_,
                                                  &cache, &stats);
        }
        const double wall = secondsSince(t0);
        attempted += stats.attempts;
        failed += stats.retries;
        check(result, stats, "cold dispatch");
        warmRedispatch();
        return wall;
    }

    void checkReferences() override
    {
        const SweepResult ref = runTimingSweep(points_, config_, engine_);
        if (sweepio::encodeResult(ref) != first_)
            failures.push_back(
                "merged result differs from the in-process sweep");
    }

    void endToEnd(double median_wall, Values &out) const override
    {
        out["points_per_s"] = points_.size() / median_wall;
        out["sim_mips"] = simulatedInstsPerOp() / median_wall / 1e6;
        out["best_score"] = best_;
    }

    std::uint32_t traced(Tracer &tracer, Values &out) override
    {
        std::remove(storePath_.c_str());
        SweepResult result;
        dispatch::DispatchStats stats;
        std::uint32_t root, round;
        {
            Scope op(tracer, "bench.op");
            root = op.id();
            std::optional<dispatch::ResultCache> cache;
            {
                Scope s(tracer, "dispatch.cache_open");
                cache.emplace(storePath_, codeVersion_);
            }
            Scope r(tracer, "dispatch.round");
            round = r.id();
            TracedBackend backend(backend_, tracer, round);
            result = dispatch::runDispatchedSweep(points_, backend, dopts_,
                                                  &*cache, &stats);
        }
        check(result, stats, "traced dispatch");
        const auto w0 = Clock::now();
        warmRedispatch();
        out["dispatch.warm_ms"] = secondsSince(w0) * 1e3;

        const std::vector<Span> spans = tracer.spans();
        std::vector<double> shardMs;
        std::vector<std::pair<std::int64_t, std::int64_t>> busy;
        for (const Span &s : spans) {
            if (s.name != "dispatch.shard")
                continue;
            shardMs.push_back(s.seconds() * 1e3);
            busy.emplace_back(s.t0, s.t1);
        }
        out["dispatch.shard_count"] = static_cast<double>(shardMs.size());
        out["dispatch.shard_ms_p50"] = quantile(shardMs, 0.5);
        out["dispatch.shard_ms_p90"] = quantile(shardMs, 0.9);
        // Round time no shard span covers: the coordinator's own work.
        std::sort(busy.begin(), busy.end());
        std::int64_t covered = 0, reach = spans[round - 1].t0;
        for (const auto &[a, b] : busy) {
            covered += std::max<std::int64_t>(0, b - std::max(a, reach));
            reach = std::max(reach, b);
        }
        out["dispatch.coord_s"] =
            spans[round - 1].seconds() - covered * 1e-9;
        out["dispatch.attempts"] = stats.attempts;
        out["dispatch.retries"] = stats.retries;

        std::vector<double> spawnMs;
        for (int i = 0; i < 20; ++i) {
            const auto t0 = Clock::now();
            if (!backend_.run(0, "true", 0).ok())
                failures.push_back("LocalBackend could not run `true`");
            spawnMs.push_back(secondsSince(t0) * 1e3);
        }
        out["dispatch.spawn_ms"] = median(spawnMs);
        modelValues(result, out);
        codecValues(result.points, out);
        return root;
    }

    double simulatedInstsPerOp() const override
    {
        return static_cast<double>(points_.size()) *
               (kDispatchWarmupInsts + kDispatchMeasureInsts) *
               points_.front().scale.timingCores;
    }

    std::string scaleName() const override
    {
        return "quick, warmup 20000 + measure 10000 insts";
    }

  private:
    void check(const SweepResult &result,
               const dispatch::DispatchStats &stats, const char *what)
    {
        const std::string bytes = sweepio::encodeResult(result);
        if (first_.empty()) {
            first_ = bytes;
            best_ = bestGridScore(result);
        } else if (bytes != first_) {
            failures.push_back(std::string(what) +
                               ": merged bytes differ from the first round");
        }
        if (stats.evaluatedPoints != points_.size())
            failures.push_back(std::string(what) + ": evaluated " +
                               std::to_string(stats.evaluatedPoints) +
                               " points, expected " +
                               std::to_string(points_.size()));
    }

    /** The same points against the filled store evaluate nothing. */
    void warmRedispatch()
    {
        dispatch::ResultCache cache(storePath_, codeVersion_);
        dispatch::DispatchStats stats;
        const SweepResult warm = dispatch::runDispatchedSweep(
            points_, backend_, dopts_, &cache, &stats);
        if (stats.evaluatedPoints != 0)
            failures.push_back("warm re-dispatch evaluated " +
                               std::to_string(stats.evaluatedPoints) +
                               " points");
        if (sweepio::encodeResult(warm) != first_)
            failures.push_back("warm re-dispatch bytes differ");
    }

    std::vector<SweepPoint> points_;
    SystemConfig config_;
    SweepEngine engine_;
    dispatch::LocalBackend backend_;
    dispatch::DispatchOptions dopts_;
    std::string storePath_;
    std::string codeVersion_;
    std::string first_;
    double best_ = 0.0;
};

// ---------------------------------------------------------------------------
// Metric catalog
// ---------------------------------------------------------------------------

std::vector<MetricDef>
buildPerLayer()
{
    std::vector<MetricDef> m = {
        {"workloads.synth_s", "s", "host"},
        {"trace.prepare_s", "s", "host"},
        {"trace.lookups", "count", "count"},
        {"trace.hits", "count", "count"},
        {"trace.misses", "count", "count"},
        {"trace.bypasses", "count", "count"},
        {"trace.hit_ratio", "ratio", "count"},
        {"trace.cached_mb", "MB", "host"},
        {"trace.gen_ns_per_inst", "ns/inst", "host"},
        {"trace.replay_ns_per_inst", "ns/inst", "host"},
        {"confluence.build_s", "s", "host"},
        {"core.warmup_s", "s", "host"},
        {"core.measure_s", "s", "host"},
        {"core.sampled_s", "s", "host"},
    };
    for (const FrontendKind kind : kFig06Kinds)
        m.push_back({"core.ns_per_inst." + slug(kind), "ns/inst", "host"});
    for (const char *btb : {"conventional", "two_level", "phantom", "air"})
        m.push_back({std::string("btb.lookup_ns.") + btb, "ns/call", "host"});
    const std::vector<MetricDef> rest = {
        {"mem.fetch_ns", "ns/call", "host"},
        {"prefetch.shift_ns", "ns/call", "host"},
        {"prefetch.fdp_ns", "ns/call", "host"},
        {"isa.predecode_ns", "ns/call", "host"},
        {"branch.direction_ns", "ns/call", "host"},
        {"replay.insts", "count", "count"},
        {"replay.branches", "count", "count"},
        {"replay.cond_branches", "count", "count"},
        {"replay.blocks", "count", "count"},
        {"replay.regions", "count", "count"},
        {"sim.point_count", "count", "count"},
        {"sim.point_ms_p50", "ms", "host"},
        {"sim.point_ms_p90", "ms", "host"},
        {"sim.parallel_eff", "ratio", "host"},
        {"sim.allocs_per_kinst", "1/kinst", "count"},
        {"sim.trace_overhead", "ratio", "host"},
        {"sim.self_coverage", "ratio", "host"},
        {"self_s.sim", "s", "host"},
        {"self_s.confluence", "s", "host"},
        {"self_s.trace", "s", "host"},
        {"self_s.core", "s", "host"},
        {"self_s.search", "s", "host"},
        {"self_s.dispatch", "s", "host"},
        {"search.eval_sampled_s", "s", "host"},
        {"search.eval_exact_s", "s", "host"},
        {"search.self_s", "s", "host"},
        {"search.requested", "count", "count"},
        {"search.evaluated", "count", "count"},
        {"search.cached", "count", "count"},
        {"search.rounds", "count", "count"},
        {"search.journal_records", "count", "count"},
        {"search.screen_err", "ratio", "simulated"},
        {"dispatch.shard_count", "count", "count"},
        {"dispatch.shard_ms_p50", "ms", "host"},
        {"dispatch.shard_ms_p90", "ms", "host"},
        {"dispatch.coord_s", "s", "host"},
        {"dispatch.spawn_ms", "ms", "host"},
        {"dispatch.attempts", "count", "count"},
        {"dispatch.retries", "count", "count"},
        {"dispatch.warm_ms", "ms", "host"},
        {"sweepio.encode_us", "us/call", "host"},
        {"sweepio.decode_us", "us/call", "host"},
        {"sweepio.digest_us", "us/call", "host"},
        {"model.geomean_speedup", "x", "simulated"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const char *what : {"ipc", "btb_mpki", "l1i_mpki"})
        for (const FrontendKind kind : kFig06Kinds)
            m.push_back({std::string("model.") + what + "." + slug(kind),
                         what == std::string("ipc") ? "inst/cycle" : "MPKI",
                         "simulated"});
    for (const char *count : {"cycles", "misfetches", "cond_mispredicts",
                              "btb_l2_stall_cycles",
                              "fetch_miss_stall_cycles"})
        m.push_back({std::string("model.") + count, "count", "simulated"});
    return m;
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> m = {
        {"setup_s", "s", "host"},
        {"wall_s", "s", "host"},
        {"points_per_s", "points/s", "host"},
        {"sim_mips", "Minst/s", "host"},
        {"peak_rss_mb", "MB", "host"},
        {"best_score", "x", "simulated"},
        {"success_frac", "ratio", "count"},
    };
    return m;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> m = buildPerLayer();
    return m;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig06_oneshot", "search_halving", "dispatch_shards"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const RunOptions &opts)
{
    if (opts.workload == "fig06_oneshot")
        return std::make_unique<Fig06Oneshot>(opts);
    if (opts.workload == "search_halving")
        return std::make_unique<SearchHalving>(opts);
    if (opts.workload == "dispatch_shards")
        return std::make_unique<DispatchShards>(opts);
    cfl_fatal("unknown workload \"%s\"", opts.workload.c_str());
}

double
synthesizePrograms()
{
    const auto t0 = Clock::now();
    for (const WorkloadId wl : allWorkloads())
        workloadProgram(wl);
    return secondsSince(t0);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * (v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

} // namespace perfbench
