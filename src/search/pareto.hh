/**
 * @file
 * Pareto-front bookkeeping over scored search candidates.
 *
 * The search ranks candidates on two objectives: geomean IPC speedup
 * over Baseline (maximize) and dedicated front-end storage from the
 * area model (minimize). A candidate is dominated when another one is
 * at least as good on both objectives and strictly better on one.
 */

#ifndef CFL_SEARCH_PARETO_HH
#define CFL_SEARCH_PARETO_HH

#include <cstddef>
#include <string>
#include <vector>

#include "search/space.hh"

namespace cfl::search
{

/** Storage cost of one candidate (area_model totals). */
struct SearchCost
{
    double kiloBytes = 0.0; ///< dedicated SRAM KB
    double mm2 = 0.0;       ///< dedicated area mm²
};

/** Dedicated-storage cost of @p candidate under its overlaid Table-1
 *  configuration (frontendStructures + summarizeStructures). */
SearchCost candidateCost(const Candidate &candidate);

/** One candidate with its final score and cost. */
struct ScoredCandidate
{
    Candidate candidate;
    double score = 0.0; ///< geomean speedup over Baseline
    SearchCost cost;
};

/**
 * Indices of the non-dominated members of @p scored, ordered by
 * (cost.kiloBytes asc, score desc, slug asc). Ties on both objectives
 * all stay on the front. Deterministic.
 */
std::vector<std::size_t>
paretoFront(const std::vector<ScoredCandidate> &scored);

/**
 * Index of the best member of @p scored: highest score, ties broken
 * by lower storage KB, then slug. fatal() on an empty vector.
 */
std::size_t bestScored(const std::vector<ScoredCandidate> &scored);

/** CSV of scored candidates ("candidate,kind,storage_kb,area_mm2,
 *  geomean_speedup,on_front"), front members marked. */
std::string paretoCsv(const std::vector<ScoredCandidate> &scored,
                      const std::vector<std::size_t> &front);

/** The same table as a sweepio::ParetoDump line plus a newline
 *  (bit-exact doubles travel as *_bits). */
std::string paretoJson(const std::vector<ScoredCandidate> &scored,
                       const std::vector<std::size_t> &front);

} // namespace cfl::search

#endif // CFL_SEARCH_PARETO_HH
