#include "dispatch/result_cache.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "fault/fault.hh"
#include "sweepio/codec.hh"
#include "sweepio/digest.hh"

namespace cfl::dispatch
{

namespace
{

std::atomic<std::uint64_t> g_cacheStoreOpens{0};

/**
 * Baked-in code-version tag. Bump whenever a change alters any sweep
 * metric (golden calibration values move with it); CI overrides with
 * the commit SHA via CONFLUENCE_CODE_VERSION, which keys conservatively
 * on every commit instead.
 */
constexpr const char *kBuiltinCodeVersion = "confluence-metrics-v1";

} // namespace

ResultCache::ResultCache(std::string store_path, std::string code_version)
    : path_(std::move(store_path)), codeVersion_(std::move(code_version))
{
    g_cacheStoreOpens.fetch_add(1, std::memory_order_relaxed);
    // A torn line (a process killed mid-append) must degrade to a cache
    // miss, not wedge every future load of the store. A missing store
    // is an empty cache: a first run or a fresh machine.
    sweepio::loadRecords<sweepio::CacheEntry>(
        path_, "cache store",
        [&](sweepio::CacheEntry &&entry, const std::string &) {
            // Last line wins, so appended re-evaluations supersede.
            entries_[entry.key] = std::move(entry.outcome);
        });
}

std::string
ResultCache::defaultStorePath()
{
    const char *dir = std::getenv("CONFLUENCE_CACHE_DIR");
    const std::string base =
        (dir != nullptr && *dir != '\0') ? dir : ".confluence-cache";
    return base + "/results.jsonl";
}

std::string
ResultCache::defaultCodeVersion()
{
    const char *tag = std::getenv("CONFLUENCE_CODE_VERSION");
    return (tag != nullptr && *tag != '\0') ? tag : kBuiltinCodeVersion;
}

std::string
ResultCache::key(const SweepPoint &point, std::uint64_t seed_base) const
{
    return sweepio::pointDigest(point, seed_base, codeVersion_);
}

const SweepOutcome *
ResultCache::lookup(const SweepPoint &point, std::uint64_t seed_base)
{
    const auto it = entries_.find(key(point, seed_base));
    if (it == entries_.end()) {
        ++misses_;
        return nullptr;
    }
    ++hits_;
    return &it->second;
}

void
ResultCache::insert(const SweepOutcome &outcome)
{
    const std::string k = key(outcome.point, outcome.seed);
    const auto it = entries_.find(k);
    if (it != entries_.end() &&
        sweepio::encodeOutcome(it->second) ==
            sweepio::encodeOutcome(outcome))
        return; // already stored byte-identically; don't grow the file
    entries_[k] = outcome;
    pending_.push_back(sweepio::encode(sweepio::CacheEntry{k, outcome}));
}

ResultCache::~ResultCache()
{
    if (appendFd_ >= 0)
        ::close(appendFd_);
}

void
ResultCache::degrade(const std::string &why)
{
    cfl_warn("cache store \"%s\": %s — continuing without cache "
             "write-back (results stay correct; the next run "
             "recomputes what this one could not persist)",
             path_.c_str(), why.c_str());
    degraded_ = true;
    pending_.clear();
}

void
ResultCache::flush()
{
    if (pending_.empty())
        return;
    if (degraded_) {
        pending_.clear();
        return;
    }
    if (appendFd_ < 0) {
        const std::filesystem::path parent =
            std::filesystem::path(path_).parent_path();
        if (!parent.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(parent, ec);
            if (ec) {
                degrade("cannot create store directory: " +
                        ec.message());
                return;
            }
        }
        g_cacheStoreOpens.fetch_add(1, std::memory_order_relaxed);
        appendFd_ = ::open(path_.c_str(),
                           O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                           0644);
        if (appendFd_ < 0) {
            degrade(std::string("cannot open for appending: ") +
                    std::strerror(errno));
            return;
        }
    }
    std::string batch;
    for (const std::string &line : pending_) {
        batch += line;
        batch += '\n';
    }
    // A short write may leave a torn trailing line in the store; the
    // load path skips it with a warning, so degrading here (instead of
    // dying) can never corrupt future loads.
    if (fault::faultWrite(appendFd_, batch.data(), batch.size(),
                          "cache.flush.write") !=
        static_cast<ssize_t>(batch.size())) {
        degrade(std::string("append failed: ") + std::strerror(errno));
        return;
    }
    pending_.clear();
}

std::uint64_t
ResultCache::storeOpens()
{
    return g_cacheStoreOpens.load(std::memory_order_relaxed);
}

void
ResultCache::resetStoreOpensForTesting()
{
    g_cacheStoreOpens.store(0, std::memory_order_relaxed);
}

} // namespace cfl::dispatch
