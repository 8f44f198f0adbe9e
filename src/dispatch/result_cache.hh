/**
 * @file
 * Content-addressed store of completed sweep outcomes.
 *
 * Every evaluated SweepOutcome is stored under the digest of what was
 * evaluated — the point's canonical encoding, its deterministic seed
 * base, and a code-version tag (sweepio/digest.hh). Because metrics
 * are a pure function of exactly those inputs, a key hit can substitute
 * the stored outcome for a fresh evaluation without changing a single
 * byte of the merged result; re-dispatching a sweep therefore only
 * evaluates points whose key changed (new point, new seed function, or
 * a code-version bump).
 *
 * The store is one JSONL file of {"key":...,"outcome":...} lines
 * (sweepio::CacheEntry): appendable, mergeable by concatenation,
 * and human-greppable. On load, duplicate keys resolve to the last
 * line, so appending a re-evaluation supersedes older entries. The
 * class itself is not thread-safe; the dispatcher does all cache
 * traffic from its coordinating thread.
 *
 * Environment:
 *   CONFLUENCE_CACHE_DIR    — store directory for defaultStorePath()
 *                             (default ".confluence-cache")
 *   CONFLUENCE_CODE_VERSION — code-version tag for defaultCodeVersion()
 *                             (default a built-in constant; CI passes
 *                             the commit SHA)
 */

#ifndef CFL_DISPATCH_RESULT_CACHE_HH
#define CFL_DISPATCH_RESULT_CACHE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/sweep.hh"

namespace cfl::dispatch
{

class ResultCache
{
  public:
    /**
     * Open the store at @p store_path (a missing file is an empty
     * cache, not an error) with @p code_version baked into every key.
     */
    ResultCache(std::string store_path, std::string code_version);
    ~ResultCache();

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** $CONFLUENCE_CACHE_DIR (default ".confluence-cache") +
     *  "/results.jsonl". */
    static std::string defaultStorePath();

    /** $CONFLUENCE_CODE_VERSION, or a built-in tag when unset. */
    static std::string defaultCodeVersion();

    /** The digest key of (point, seed base) under this code version. */
    std::string key(const SweepPoint &point,
                    std::uint64_t seed_base) const;

    /**
     * The stored outcome for (point, seed base), or nullptr on a miss.
     * Counts toward hits()/misses(). The pointer stays valid for the
     * life of the cache: entries are never erased, and the node-based
     * store keeps element references stable across insert() — the
     * dispatcher holds lookup results across its whole evaluate-and-
     * reassemble cycle, so any storage change here must preserve that.
     */
    const SweepOutcome *lookup(const SweepPoint &point,
                               std::uint64_t seed_base);

    /** Store @p outcome under its own (point, seed) key. */
    void insert(const SweepOutcome &outcome);

    /**
     * Append entries inserted since the last flush to the store file,
     * creating the store directory if needed. The whole batch goes
     * down in one O_APPEND write() on a descriptor opened once per
     * cache lifetime — long-running users (the worker daemon flushes
     * after every completed task) pay one store open per run, not one
     * per flush, and concurrent appenders sharing the store interleave
     * at batch granularity.
     *
     * A store that cannot be written (disk full, permissions, an
     * injected "cache.flush.write" fault) puts the cache in degraded
     * mode — warn once, keep serving in-memory entries, stop
     * persisting — rather than killing the process: losing cache
     * write-back costs recomputation on the *next* run, never this
     * run's results.
     */
    void flush();

    /** Whether write-back has been abandoned after a store failure
     *  (lookups still serve everything inserted this run). */
    bool degraded() const { return degraded_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::size_t size() const { return entries_.size(); }
    const std::string &storePath() const { return path_; }
    const std::string &codeVersion() const { return codeVersion_; }

    /**
     * Test hook: how many times any ResultCache has opened its store
     * file (initial load + the once-per-lifetime append descriptor)
     * since the last reset. Regression tests pin this so a future
     * change cannot quietly reintroduce an open per lookup or per
     * flush.
     */
    static std::uint64_t storeOpens();
    static void resetStoreOpensForTesting();

  private:
    std::string path_;
    std::string codeVersion_;
    std::unordered_map<std::string, SweepOutcome> entries_;
    std::vector<std::string> pending_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    int appendFd_ = -1; ///< store append descriptor, opened once
    bool degraded_ = false; ///< write-back abandoned after a failure

    /** Enter degraded mode: warn, drop pending write-back. */
    void degrade(const std::string &why);
};

} // namespace cfl::dispatch

#endif // CFL_DISPATCH_RESULT_CACHE_HH
