#include "dispatch/history.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "fault/fault.hh"

namespace cfl::dispatch
{

namespace
{

std::atomic<std::uint64_t> g_historyStoreOpens{0};

/**
 * Tags and kind slugs are labels that the history figure and the
 * tool's stats lines print verbatim, so they must be plain text. Reject
 * anything else at write time, where the caller can still fix the
 * label, rather than storing a line no reader can print cleanly.
 */
void
checkStoreString(const char *what, const std::string &value)
{
    for (const char c : value)
        if (c == '"' || c == '\\' ||
            static_cast<unsigned char>(c) < 0x20)
            cfl_fatal("history %s \"%s\" contains '%c' (0x%02x), which "
                      "a history label cannot hold",
                      what, value.c_str(), c,
                      static_cast<unsigned char>(c));
}

} // namespace

RegressionHistory::RegressionHistory(std::string path)
    : path_(std::move(path))
{
    g_historyStoreOpens.fetch_add(1, std::memory_order_relaxed);
    // A torn line (a process killed mid-append) loses that one entry,
    // not the whole history.
    sweepio::loadRecords<HistoryEntry>(
        path_, "history", [&](HistoryEntry &&entry, const std::string &) {
            entries_.push_back(std::move(entry));
        });
}

HistoryEntry
RegressionHistory::summarize(const SweepResult &result,
                             const std::string &tag)
{
    bool have_baseline = false;
    std::vector<FrontendKind> kinds;
    for (const SweepOutcome &o : result.points) {
        if (o.point.kind == FrontendKind::Baseline)
            have_baseline = true;
        else if (std::find(kinds.begin(), kinds.end(), o.point.kind) ==
                 kinds.end())
            kinds.push_back(o.point.kind);
    }
    if (!have_baseline)
        cfl_fatal("history needs Baseline points to normalize against");
    if (kinds.empty())
        cfl_fatal("history needs at least one non-Baseline front end");

    HistoryEntry entry;
    entry.tag = tag;
    for (const FrontendKind kind : kinds)
        entry.geomeans.emplace_back(
            frontendKindSlug(kind),
            result.geomeanSpeedup(kind, FrontendKind::Baseline));
    return entry;
}

RegressionHistory::~RegressionHistory()
{
    if (appendFd_ >= 0)
        ::close(appendFd_);
}

void
RegressionHistory::append(const HistoryEntry &entry)
{
    checkStoreString("tag", entry.tag);
    for (const sweepio::KindGeomean &g : entry.geomeans)
        checkStoreString("kind", g.kind);

    // The entry always lands in memory — compare()/deltas() stay
    // consistent for this run — and persistence degrades like the
    // result cache's: a history that cannot be written costs the next
    // run its comparison baseline, not this run its results.
    entries_.push_back(entry);
    if (degraded_)
        return;

    // One append descriptor per history lifetime (mirroring
    // ResultCache::flush): repeated appends reuse it instead of
    // reopening the store every time.
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
        g_historyStoreOpens.fetch_add(1, std::memory_order_relaxed);
        appendFd_ = ::open(path_.c_str(),
                           O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                           0644);
        if (appendFd_ < 0) {
            degrade(std::string("cannot open for appending: ") +
                    std::strerror(errno));
            return;
        }
    }
    const std::string line = sweepio::encode(entry) + "\n";
    // A short write leaves a torn trailing line; loads already skip
    // those with a warning, so degrading can never wedge the store.
    if (fault::faultWrite(appendFd_, line.data(), line.size(),
                          "history.append.write") !=
        static_cast<ssize_t>(line.size()))
        degrade(std::string("append failed: ") + std::strerror(errno));
}

void
RegressionHistory::degrade(const std::string &why)
{
    cfl_warn("history store \"%s\": %s — entries stay in memory but "
             "will not persist", path_.c_str(), why.c_str());
    degraded_ = true;
}

namespace
{

std::vector<RegressionDelta>
compareEntries(const HistoryEntry &prev, const HistoryEntry &cur)
{
    std::vector<RegressionDelta> out;
    for (const auto &[kind, geomean] : cur.geomeans) {
        for (const auto &[prev_kind, prev_geomean] : prev.geomeans) {
            if (prev_kind != kind)
                continue;
            RegressionDelta d;
            d.kind = kind;
            d.previous = prev_geomean;
            d.current = geomean;
            d.delta = geomean / prev_geomean - 1.0;
            out.push_back(d);
            break;
        }
    }
    return out;
}

} // namespace

std::vector<RegressionDelta>
RegressionHistory::compare(const HistoryEntry &candidate) const
{
    if (entries_.empty())
        return {};
    return compareEntries(entries_.back(), candidate);
}

std::vector<RegressionDelta>
RegressionHistory::deltas() const
{
    if (entries_.size() < 2)
        return {};
    return compareEntries(entries_[entries_.size() - 2],
                          entries_.back());
}

std::uint64_t
RegressionHistory::storeOpens()
{
    return g_historyStoreOpens.load(std::memory_order_relaxed);
}

void
RegressionHistory::resetStoreOpensForTesting()
{
    g_historyStoreOpens.store(0, std::memory_order_relaxed);
}

} // namespace cfl::dispatch
