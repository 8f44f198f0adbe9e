/**
 * @file
 * Record schemas of the adaptive-search journal (search.jsonl) and of
 * the Pareto dump (confluence_search --pareto-out).
 *
 * A search run appends one SearchRecord per line, recording every
 * (round, candidate, decision) the driver takes. The journal is the
 * search's durability artifact: because every strategy is a pure
 * function of (seed, space, evaluated outcomes) and outcomes are
 * bit-deterministic, a killed search resumes by re-running the
 * strategy and byte-verifying each regenerated line against the
 * journal prefix, appending only past it (src/search/journal.hh).
 * That is also why no record carries cache-dependent state (hit
 * counters, timestamps): a record must encode identically whether its
 * evaluation was fresh or served from the result cache.
 *
 * Each line's "type" selects its field list: header, round, eval,
 * decision or done (Schema<SearchRecord> below).
 *
 * Doubles travel as IEEE-754 bit patterns (sweepio::doubleBits), so a
 * round trip (and therefore resume verification) is bit-identical.
 */

#ifndef CFL_SWEEPIO_SEARCH_CODEC_HH
#define CFL_SWEEPIO_SEARCH_CODEC_HH

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "sweepio/codec.hh"
#include "sweepio/record.hh"

namespace cfl::sweepio
{

/** One journal line; unused fields stay at their defaults. */
struct SearchRecord
{
    std::string type; ///< "header", "round", "eval", "decision", "done"

    // header
    std::string strategy;
    std::uint64_t seed = 0;
    std::string space;       ///< canonical axis-grammar text
    std::string scaleName;   ///< "quick" / "default" / "full"
    std::uint64_t budget = 0;
    std::string codeVersion;

    // round / eval / decision ("rounds" total for done)
    std::uint64_t round = 0;
    std::string candidate;   ///< candidate slug (best slug for done)

    // eval
    std::string pointKey;    ///< result-cache digest of the point

    // decision
    std::string action;      ///< "screen"|"keep"|"drop"|"start"|"move"|
                             ///< "stay"|"accept"|"final"|"front"
    std::uint64_t scoreBits = 0;   ///< geomean-speedup bits
    std::uint64_t costKbBits = 0;  ///< dedicated-storage-KB bits
    std::uint64_t costMm2Bits = 0; ///< dedicated-area-mm² bits

    bool operator==(const SearchRecord &) const = default;
};

template <>
struct Schema<SearchRecord>
{
    using R = SearchRecord;
    static constexpr const char *context = "search JSON";
    static constexpr auto fields = std::tuple{Tagged{
        "type", &R::type,
        When{"header", Field{"strategy", &R::strategy},
             Field{"seed", &R::seed}, Field{"space", &R::space},
             Field{"scale", &R::scaleName}, Field{"budget", &R::budget},
             Field{"code_version", &R::codeVersion}},
        When{"round", Field{"round", &R::round}},
        When{"eval", Field{"round", &R::round},
             Field{"candidate", &R::candidate},
             Field{"key", &R::pointKey}},
        When{"decision", Field{"round", &R::round},
             Field{"candidate", &R::candidate},
             Field{"action", &R::action},
             Field{"score_bits", &R::scoreBits},
             Field{"cost_kb_bits", &R::costKbBits},
             Field{"cost_mm2_bits", &R::costMm2Bits}},
        When{"done", Field{"rounds", &R::round},
             Field{"candidate", &R::candidate},
             Field{"score_bits", &R::scoreBits},
             Field{"cost_kb_bits", &R::costKbBits},
             Field{"cost_mm2_bits", &R::costMm2Bits}}}};
};

/** One candidate of the Pareto dump. */
struct ParetoRow
{
    std::string candidate; ///< candidate slug
    FrontendKind kind = FrontendKind::Baseline;
    double storageKb = 0.0; ///< dedicated SRAM KB
    double areaMm2 = 0.0;   ///< dedicated area mm²
    double score = 0.0;     ///< geomean speedup over Baseline
    bool onFront = false;
};

/** The whole dump: one object holding every scored candidate. */
struct ParetoDump
{
    std::vector<ParetoRow> candidates;
};

template <>
struct Schema<ParetoRow>
{
    static constexpr auto fields = std::tuple{
        Field{"candidate", &ParetoRow::candidate},
        Field{"kind", &ParetoRow::kind},
        Field{"storage_kb_bits", &ParetoRow::storageKb},
        Field{"area_mm2_bits", &ParetoRow::areaMm2},
        Field{"score_bits", &ParetoRow::score},
        TrueFalse{"on_front", &ParetoRow::onFront},
    };
};

template <>
struct Schema<ParetoDump>
{
    static constexpr const char *context = "pareto dump";
    static constexpr auto fields = std::tuple{
        Field{"candidates", &ParetoDump::candidates},
    };
};

/**
 * Load a journal file. A missing file is an empty journal. Undecodable
 * lines (torn tail of a killed append) are skipped with a warning;
 * resume's byte-verification catches any mid-file damage the skip
 * would otherwise hide. @p raw_lines, when non-null, receives the raw
 * text of each *decoded* line, index-aligned with the result.
 */
std::vector<SearchRecord>
readSearchJournal(const std::string &path,
                  std::vector<std::string> *raw_lines = nullptr);

} // namespace cfl::sweepio

#endif // CFL_SWEEPIO_SEARCH_CODEC_HH
