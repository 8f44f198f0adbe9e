/**
 * @file
 * Regression history over merged sweep results.
 *
 * CI appends one entry per commit: the commit tag plus the geomean
 * speedup of every non-baseline front end over Baseline, taken from a
 * merged SweepResult. Geomeans are doubles, so each is stored as its
 * exact IEEE-754 bit pattern next to a human-readable rendering; a
 * value therefore round-trips bit-identically and a delta of exactly
 * zero means exactly equal results.
 *
 * The store is JSONL, one entry per line:
 *
 *   {"tag":"<commit>","entries":[{"kind":"confluence",
 *    "geomean_bits":4607863817060079104,"geomean":"1.21758..."},...]}
 *
 * deltas() compares the newest entry against its predecessor per kind;
 * tools/confluence_dispatch --history turns any delta below a
 * threshold into a distinct exit code CI can gate on.
 */

#ifndef CFL_DISPATCH_HISTORY_HH
#define CFL_DISPATCH_HISTORY_HH

#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "sweepio/codec.hh"

namespace cfl::dispatch
{

/** One commit's worth of headline metrics (sweepio/codec.hh). */
using sweepio::HistoryEntry;

/** One kind's newest-vs-previous comparison. */
struct RegressionDelta
{
    std::string kind;
    double previous = 0.0;
    double current = 0.0;
    /** Fractional change: current/previous - 1 (negative = slower). */
    double delta = 0.0;
};

class RegressionHistory
{
  public:
    /** Load the JSONL history at @p path (missing file = empty). */
    explicit RegressionHistory(std::string path);
    ~RegressionHistory();

    RegressionHistory(const RegressionHistory &) = delete;
    RegressionHistory &operator=(const RegressionHistory &) = delete;

    /** @p result condensed to a HistoryEntry: every non-Baseline kind's
     *  geomean speedup over Baseline. fatal() without Baseline points. */
    static HistoryEntry summarize(const SweepResult &result,
                                  const std::string &tag);

    /** Append @p entry to memory and to the store file. fatal()s if the
     *  tag or a kind slug is not a plain label ('"', '\\' or control
     *  bytes); see checkStoreString. A store-file *write* failure instead
     *  degrades (warn + in-memory only; see degraded()): the cost is
     *  the next run's comparison baseline, never this run. */
    void append(const HistoryEntry &entry);

    /** Whether persistence was abandoned after a store failure. */
    bool degraded() const { return degraded_; }

    const std::vector<HistoryEntry> &entries() const { return entries_; }

    /**
     * @p candidate (not yet appended) vs the newest stored entry, kind
     * by kind; empty with no stored entries. The gate path: callers
     * compare first and append only what passed, so a regressed run
     * can never launder itself into being the next comparison
     * baseline. Kinds absent from the stored entry are skipped (a new
     * design has no history to regress against).
     */
    std::vector<RegressionDelta>
    compare(const HistoryEntry &candidate) const;

    /** Newest stored entry vs its predecessor; empty with fewer than
     *  two entries. */
    std::vector<RegressionDelta> deltas() const;

    /** Test hook mirroring ResultCache::storeOpens(): store-file opens
     *  (load + the once-per-lifetime append descriptor) across all
     *  instances since the last reset. */
    static std::uint64_t storeOpens();
    static void resetStoreOpensForTesting();

  private:
    std::string path_;
    std::vector<HistoryEntry> entries_;
    int appendFd_ = -1; ///< store append descriptor, opened once
    bool degraded_ = false; ///< persistence abandoned after a failure

    void degrade(const std::string &why);
};

} // namespace cfl::dispatch

#endif // CFL_DISPATCH_HISTORY_HH
