/**
 * @file
 * Scenario fuzzer: randomized (candidate, workload, sampling) points
 * with replayable per-trial seeds.
 *
 * Trial t's point is a pure function of (space, scale, seed, t) — its
 * own splitmix-derived Rng picks the kind, rolls each relevant axis
 * (position 0 = leave the Table-1 default), re-rolling geometry the
 * structures would reject, then picks a workload, and flips a coin
 * for SMARTS sampling with a random rng stream. Each trial evaluates
 * the point and its Baseline twin, then asserts the invariants every
 * sweep consumer relies on: the point round-trips the sweepio codec
 * byte-identically, the outcome carries live counters (cores present,
 * cycles and retired instructions non-zero, positive IPC), sampled
 * outcomes carry valid estimators, and the speedup is positive and
 * finite. A violation stops the search with a "reject" decision and a
 * replay recipe: the same --seed re-derives the identical point, which
 * is exactly what the fuzzer seed-replay test pins.
 */

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "search/strategies.hh"
#include "sim/metrics.hh"
#include "sweepio/codec.hh"

namespace cfl::search
{

namespace
{

/** One trial's derivation, shared by the point/candidate accessors so
 *  they can never drift apart. */
struct TrialDraw
{
    Candidate candidate;
    WorkloadId workload = WorkloadId::OltpDb2;
    SamplingSpec sampling = {};
};

TrialDraw
drawTrial(const DesignSpace &space, const RunScale &scale,
          std::uint64_t seed, std::uint64_t trial)
{
    TrialDraw draw;
    Rng rng(hashCombine(seed, hashMix(trial + 0x51ee7ull)));

    draw.candidate.kind =
        space.kinds[rng.nextBelow(space.kinds.size())];

    // Roll the relevant axes; re-roll wholesale while the geometry is
    // structurally invalid (bounded, then fall back to Table-1, which
    // always builds).
    for (unsigned attempt = 0; attempt < 16; ++attempt) {
        DesignOverlay overlay;
        for (const Axis &axis : space.axes) {
            if (!axisRelevant(axis.name, draw.candidate.kind))
                continue;
            const std::uint64_t pick =
                rng.nextBelow(axis.values.size() + 1);
            if (pick > 0)
                overlayField(overlay, axis.name) =
                    axis.values[pick - 1];
        }
        draw.candidate.overlay = overlay;
        if (validCandidate(draw.candidate))
            break;
        draw.candidate.overlay = {};
    }

    const auto &workloads = allWorkloads();
    draw.workload = workloads[rng.nextBelow(workloads.size())];

    if (rng.nextBelow(2) == 1) {
        draw.sampling = defaultSamplingSpec(scale);
        draw.sampling.rngStream = 1 + rng.nextBelow(8);
    }
    return draw;
}

} // namespace

SweepPoint
fuzzerTrialPoint(const DesignSpace &space, const RunScale &scale,
                 std::uint64_t seed, std::uint64_t trial)
{
    const TrialDraw draw = drawTrial(space, scale, seed, trial);
    SweepPoint point;
    point.kind = draw.candidate.kind;
    point.workload = draw.workload;
    point.scale = scale;
    point.sampling = draw.sampling;
    point.overlay = draw.candidate.overlay;
    return point;
}

Candidate
fuzzerTrialCandidate(const DesignSpace &space, std::uint64_t seed,
                     std::uint64_t trial)
{
    // Scale only affects the sampling spec, never the candidate draw.
    return drawTrial(space, RunScale{}, seed, trial).candidate;
}

namespace detail
{

SearchReport
runFuzzer(StrategyContext &ctx)
{
    const SearchOptions &opts = ctx.opts;
    const std::uint64_t trials = opts.budget > 0 ? opts.budget : 24;

    std::vector<ScoredCandidate> scored;
    SearchReport stopped; // filled on violation

    for (std::uint64_t t = 0; t < trials; ++t) {
        const SweepPoint point =
            fuzzerTrialPoint(opts.space, opts.scale, opts.seed, t);
        const Candidate candidate =
            fuzzerTrialCandidate(opts.space, opts.seed, t);
        const SearchCost cost = candidateCost(candidate);

        sweepio::SearchRecord rr;
        rr.type = "round";
        rr.round = ctx.round++;
        ctx.journal.emit(rr);

        SweepPoint twin = point;
        twin.kind = FrontendKind::Baseline;
        twin.overlay = {};
        const SweepResult result = ctx.eval.evaluate({point, twin});

        const Candidate baseline{FrontendKind::Baseline, {}};
        const std::string slugs[2] = {candidate.slug(),
                                      baseline.slug()};
        for (std::size_t i = 0; i < 2; ++i) {
            sweepio::SearchRecord er;
            er.type = "eval";
            er.round = rr.round;
            er.candidate = slugs[i];
            er.pointKey = ctx.eval.pointKey(result.points[i].point);
            ctx.journal.emit(er);
        }

        // Property checks. Violations stop the run with a replayable
        // trial id rather than fatal()ing: the caller turns this into
        // a distinct exit code and a replay recipe.
        std::string violation;
        const std::string enc = sweepio::encode(point);
        if (sweepio::encode(sweepio::decode<SweepPoint>(enc)) != enc)
            violation = "point does not round-trip the sweepio codec: " +
                        enc;
        for (std::size_t i = 0; i < 2 && violation.empty(); ++i) {
            const CmpMetrics &m = result.points[i].metrics;
            if (m.cores.empty())
                violation = "outcome has no core counters";
            else if (m.cores[0].cycles == 0 || m.cores[0].retired == 0)
                violation = "outcome has dead counters (cycles or "
                            "retired == 0)";
            else if (!(m.meanIpc() > 0.0))
                violation = "outcome IPC is not positive";
            else if (result.points[i].point.sampling.enabled() &&
                     !m.sampling.valid())
                violation = "sampled outcome carries no valid "
                            "estimators";
        }
        double score = 0.0;
        if (violation.empty()) {
            score = speedup(result.points[0].metrics.meanIpc(),
                            result.points[1].metrics.meanIpc());
            if (!std::isfinite(score) || score <= 0.0)
                violation = "speedup is not positive and finite";
        }

        if (!violation.empty()) {
            ctx.emitDecision(rr.round, candidate, "reject", 0.0, cost);
            stopped.scored = std::move(scored);
            stopped.rounds = ctx.round;
            stopped.violation = violation + " (point " + enc + ")";
            stopped.violationTrial = t;
            return stopped;
        }

        ctx.emitDecision(rr.round, candidate, "accept", score, cost);
        scored.push_back(ScoredCandidate{candidate, score, cost});
    }

    // Per-trial scores mix workloads and sampling modes, so the
    // "front" here is indicative, not an exact-scored frontier; the
    // fuzzer's job is property coverage, not optimization.
    return ctx.finish(std::move(scored));
}

} // namespace detail

} // namespace cfl::search
