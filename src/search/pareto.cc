#include "search/pareto.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "sim/presets.hh"
#include "sweepio/search_codec.hh"

namespace cfl::search
{

SearchCost
candidateCost(const Candidate &candidate)
{
    // Core count is irrelevant to the inventory (CMP-wide structures
    // amortize over areaAmortizationCores, fixed at the paper's 16).
    SystemConfig cfg = makeSystemConfig(1);
    candidate.overlay.applyTo(cfg);
    const StorageSummary sum =
        summarizeStructures(frontendStructures(candidate.kind, cfg));
    return {sum.dedicatedKiloBytes, sum.dedicatedMm2};
}

namespace
{

bool
dominates(const ScoredCandidate &a, const ScoredCandidate &b)
{
    const bool geq = a.score >= b.score && a.cost.kiloBytes <= b.cost.kiloBytes;
    const bool strict =
        a.score > b.score || a.cost.kiloBytes < b.cost.kiloBytes;
    return geq && strict;
}

} // namespace

std::vector<std::size_t>
paretoFront(const std::vector<ScoredCandidate> &scored)
{
    std::vector<std::size_t> front;
    for (std::size_t i = 0; i < scored.size(); ++i) {
        bool dominated = false;
        for (std::size_t j = 0; j < scored.size() && !dominated; ++j)
            if (j != i && dominates(scored[j], scored[i]))
                dominated = true;
        if (!dominated)
            front.push_back(i);
    }
    std::sort(front.begin(), front.end(),
              [&](std::size_t a, std::size_t b) {
                  if (scored[a].cost.kiloBytes != scored[b].cost.kiloBytes)
                      return scored[a].cost.kiloBytes <
                             scored[b].cost.kiloBytes;
                  if (scored[a].score != scored[b].score)
                      return scored[a].score > scored[b].score;
                  return scored[a].candidate.slug() <
                         scored[b].candidate.slug();
              });
    return front;
}

std::size_t
bestScored(const std::vector<ScoredCandidate> &scored)
{
    cfl_assert(!scored.empty(), "no scored candidates");
    std::size_t best = 0;
    for (std::size_t i = 1; i < scored.size(); ++i) {
        const ScoredCandidate &a = scored[i];
        const ScoredCandidate &b = scored[best];
        if (a.score > b.score ||
            (a.score == b.score &&
             (a.cost.kiloBytes < b.cost.kiloBytes ||
              (a.cost.kiloBytes == b.cost.kiloBytes &&
               a.candidate.slug() < b.candidate.slug()))))
            best = i;
    }
    return best;
}

std::string
paretoCsv(const std::vector<ScoredCandidate> &scored,
          const std::vector<std::size_t> &front)
{
    std::vector<bool> onFront(scored.size(), false);
    for (const std::size_t i : front)
        onFront[i] = true;
    std::ostringstream out;
    out << "candidate,kind,storage_kb,area_mm2,geomean_speedup,on_front\n";
    out.precision(17);
    for (std::size_t i = 0; i < scored.size(); ++i) {
        const ScoredCandidate &s = scored[i];
        out << s.candidate.slug() << ","
            << frontendKindSlug(s.candidate.kind) << ","
            << s.cost.kiloBytes << "," << s.cost.mm2 << "," << s.score
            << "," << (onFront[i] ? 1 : 0) << "\n";
    }
    return out.str();
}

std::string
paretoJson(const std::vector<ScoredCandidate> &scored,
           const std::vector<std::size_t> &front)
{
    sweepio::ParetoDump dump;
    for (const ScoredCandidate &s : scored)
        dump.candidates.push_back({s.candidate.slug(), s.candidate.kind,
                                   s.cost.kiloBytes, s.cost.mm2, s.score,
                                   false});
    for (const std::size_t i : front)
        dump.candidates[i].onFront = true;
    return sweepio::encode(dump) + "\n";
}

} // namespace cfl::search
