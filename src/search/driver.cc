#include "search/driver.hh"

#include <algorithm>
#include <unordered_map>

#include "common/logging.hh"
#include "search/strategies.hh"
#include "sim/metrics.hh"
#include "sweepio/codec.hh"
#include "sweepio/digest.hh"

namespace cfl::search
{

// ---------------------------------------------------------------------------
// CachedEvaluator
// ---------------------------------------------------------------------------

CachedEvaluator::CachedEvaluator(const SystemConfig &config,
                                 SweepEngine &engine,
                                 dispatch::ResultCache *cache,
                                 std::string code_version)
    : config_(config), engine_(engine), cache_(cache),
      codeVersion_(std::move(code_version))
{
}

std::string
CachedEvaluator::pointKey(const SweepPoint &point) const
{
    const std::uint64_t seed = sweepPointSeed(point.kind, point.workload);
    if (cache_ != nullptr)
        return cache_->key(point, seed);
    return sweepio::pointDigest(point, seed, codeVersion_);
}

SweepResult
CachedEvaluator::evaluate(const std::vector<SweepPoint> &points)
{
    SweepResult out;
    out.points.resize(points.size());

    std::unordered_map<std::string, std::size_t> firstOf;
    std::vector<std::pair<std::size_t, std::size_t>> aliases;
    std::vector<SweepPoint> fresh;
    std::vector<std::size_t> freshIdx;

    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        const std::string enc = sweepio::encode(p);
        const auto [it, inserted] = firstOf.emplace(enc, i);
        if (!inserted) {
            aliases.emplace_back(i, it->second);
            continue;
        }
        ++requested_;
        const std::uint64_t seed = sweepPointSeed(p.kind, p.workload);
        if (cache_ != nullptr) {
            if (const SweepOutcome *hit = cache_->lookup(p, seed)) {
                out.points[i] = *hit;
                ++cached_;
                continue;
            }
        }
        fresh.push_back(p);
        freshIdx.push_back(i);
    }

    if (!fresh.empty()) {
        SweepResult batch = runTimingSweep(fresh, config_, engine_);
        evaluated_ += fresh.size();
        for (std::size_t k = 0; k < freshIdx.size(); ++k) {
            if (cache_ != nullptr)
                cache_->insert(batch.points[k]);
            out.points[freshIdx[k]] = std::move(batch.points[k]);
        }
        // One flush per batch: a kill loses at most the batch in
        // flight, and nothing already flushed is ever re-simulated.
        if (cache_ != nullptr)
            cache_->flush();
    }

    for (const auto &[i, first] : aliases)
        out.points[i] = out.points[first];
    return out;
}

// ---------------------------------------------------------------------------
// Shared strategy plumbing
// ---------------------------------------------------------------------------

namespace detail
{

namespace
{

SweepPoint
makePoint(const Candidate &candidate, WorkloadId workload,
          const SearchOptions &opts, bool sampled)
{
    SweepPoint point;
    point.kind = candidate.kind;
    point.workload = workload;
    point.scale = opts.scale;
    if (sampled)
        point.sampling = defaultSamplingSpec(opts.scale);
    point.overlay = candidate.overlay;
    return point;
}

} // namespace

bool
StrategyContext::budgetExhausted() const
{
    return opts.budget > 0 && eval.requestedPoints() >= opts.budget;
}

void
StrategyContext::emitDecision(std::uint64_t in_round,
                              const Candidate &candidate,
                              const std::string &action, double score,
                              const SearchCost &cost)
{
    sweepio::SearchRecord r;
    r.type = "decision";
    r.round = in_round;
    r.candidate = candidate.slug();
    r.action = action;
    r.scoreBits = sweepio::doubleBits(score);
    r.costKbBits = sweepio::doubleBits(cost.kiloBytes);
    r.costMm2Bits = sweepio::doubleBits(cost.mm2);
    journal.emit(r);
}

std::vector<double>
StrategyContext::scoreRound(const std::vector<Candidate> &scored,
                            std::size_t num_workloads, bool sampled)
{
    cfl_assert(num_workloads >= 1 &&
                   num_workloads <= opts.workloads.size(),
               "bad rung size %zu", num_workloads);
    const std::uint64_t thisRound = round++;

    sweepio::SearchRecord rr;
    rr.type = "round";
    rr.round = thisRound;
    journal.emit(rr);

    // Candidate points first (candidate-major, workload order), then
    // whichever Baseline normalization points are not already present.
    const Candidate baseline{FrontendKind::Baseline, {}};
    std::vector<SweepPoint> points;
    std::vector<std::string> slugs; // eval-record label per point
    points.reserve((scored.size() + 1) * num_workloads);
    for (const Candidate &c : scored) {
        for (std::size_t w = 0; w < num_workloads; ++w) {
            points.push_back(
                makePoint(c, opts.workloads[w], opts, sampled));
            slugs.push_back(c.slug());
        }
    }
    const bool haveBaseline =
        std::find_if(scored.begin(), scored.end(),
                     [&](const Candidate &c) { return c == baseline; }) !=
        scored.end();
    const std::size_t baseBegin = haveBaseline ? 0 : points.size();
    if (!haveBaseline) {
        for (std::size_t w = 0; w < num_workloads; ++w) {
            points.push_back(
                makePoint(baseline, opts.workloads[w], opts, sampled));
            slugs.push_back(baseline.slug());
        }
    }

    const SweepResult result = eval.evaluate(points);

    for (std::size_t i = 0; i < points.size(); ++i) {
        sweepio::SearchRecord er;
        er.type = "eval";
        er.round = thisRound;
        er.candidate = slugs[i];
        er.pointKey = eval.pointKey(points[i]);
        journal.emit(er);
    }

    // Baseline IPC per rung workload.
    std::vector<double> baseIpc(num_workloads);
    if (haveBaseline) {
        const std::size_t at =
            static_cast<std::size_t>(
                std::find_if(scored.begin(), scored.end(),
                             [&](const Candidate &c) {
                                 return c == baseline;
                             }) -
                scored.begin()) *
            num_workloads;
        for (std::size_t w = 0; w < num_workloads; ++w)
            baseIpc[w] = result.points[at + w].metrics.meanIpc();
    } else {
        for (std::size_t w = 0; w < num_workloads; ++w)
            baseIpc[w] = result.points[baseBegin + w].metrics.meanIpc();
    }

    std::vector<double> scores(scored.size());
    for (std::size_t c = 0; c < scored.size(); ++c) {
        std::vector<double> perWl(num_workloads);
        for (std::size_t w = 0; w < num_workloads; ++w)
            perWl[w] = speedup(
                result.points[c * num_workloads + w].metrics.meanIpc(),
                baseIpc[w]);
        scores[c] = geomean(perWl);
    }
    return scores;
}

SearchReport
StrategyContext::finish(std::vector<ScoredCandidate> scored)
{
    SearchReport report;
    report.scored = std::move(scored);
    report.front = paretoFront(report.scored);
    report.rounds = round;

    for (const std::size_t i : report.front)
        emitDecision(round == 0 ? 0 : round - 1,
                     report.scored[i].candidate, "front",
                     report.scored[i].score, report.scored[i].cost);

    const std::size_t best = bestScored(report.scored);
    report.best = report.scored[best].candidate.slug();
    report.bestScore = report.scored[best].score;
    report.bestCost = report.scored[best].cost;

    sweepio::SearchRecord done;
    done.type = "done";
    done.round = round;
    done.candidate = report.best;
    done.scoreBits = sweepio::doubleBits(report.bestScore);
    done.costKbBits = sweepio::doubleBits(report.bestCost.kiloBytes);
    done.costMm2Bits = sweepio::doubleBits(report.bestCost.mm2);
    journal.emit(done);
    journal.finish();
    return report;
}

// ---------------------------------------------------------------------------
// Exhaustive reference strategy
// ---------------------------------------------------------------------------

SearchReport
runExhaustive(StrategyContext &ctx)
{
    const std::uint64_t thisRound = ctx.round;
    const std::vector<double> scores = ctx.scoreRound(
        ctx.candidates, ctx.opts.workloads.size(), /*sampled=*/false);

    std::vector<ScoredCandidate> scored;
    scored.reserve(ctx.candidates.size());
    for (std::size_t i = 0; i < ctx.candidates.size(); ++i) {
        ScoredCandidate s{ctx.candidates[i], scores[i],
                          candidateCost(ctx.candidates[i])};
        ctx.emitDecision(thisRound, s.candidate, "final", s.score,
                         s.cost);
        scored.push_back(std::move(s));
    }
    return ctx.finish(std::move(scored));
}

} // namespace detail

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

SearchReport
runSearch(const SearchOptions &opts, Evaluator &eval,
          SearchJournal &journal)
{
    cfl_assert(!opts.workloads.empty(), "search needs >= 1 workload");
    cfl_assert(opts.eta >= 2, "halving eta must be >= 2");
    cfl_assert(opts.finalists >= 1, "halving needs >= 1 finalist");

    detail::StrategyContext ctx{opts, eval, journal,
                                enumerateCandidates(opts.space)};
    if (ctx.candidates.empty())
        cfl_fatal("design space \"%s\" enumerates no valid candidates",
                  opts.space.encode().c_str());

    sweepio::SearchRecord header;
    header.type = "header";
    header.strategy = opts.strategy;
    header.seed = opts.seed;
    header.space = opts.space.encode();
    header.scaleName = opts.scaleName;
    header.budget = opts.budget;
    header.codeVersion = opts.codeVersion;
    journal.emit(header);

    if (opts.strategy == "exhaustive")
        return detail::runExhaustive(ctx);
    if (opts.strategy == "halving")
        return detail::runHalving(ctx);
    if (opts.strategy == "descent")
        return detail::runDescent(ctx);
    if (opts.strategy == "fuzz")
        return detail::runFuzzer(ctx);
    cfl_fatal("unknown search strategy \"%s\" (want exhaustive, "
              "halving, descent, or fuzz)",
              opts.strategy.c_str());
}

} // namespace cfl::search
