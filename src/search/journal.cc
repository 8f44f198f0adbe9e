#include "search/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "fault/fault.hh"

namespace cfl::search
{

SearchJournal::SearchJournal(std::string path, bool resume)
    : path_(std::move(path))
{
    loaded_ = sweepio::readSearchJournal(path_, &loadedLines_);
    if (!resume && !loaded_.empty())
        cfl_fatal("journal \"%s\" already holds %zu records; pass "
                  "--resume to continue it (or point --journal at a "
                  "fresh path)",
                  path_.c_str(), loaded_.size());
}

SearchJournal::~SearchJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
SearchJournal::conflict(const std::string &why) const
{
    std::fprintf(stderr,
                 "confluence_search: journal conflict in \"%s\": %s\n",
                 path_.c_str(), why.c_str());
    // The same exit path as fatal(): flush stdio, skip static
    // destructors (see fatalImpl in common/logging.cc).
    std::fflush(nullptr);
    std::_Exit(kSearchExitJournalConflict);
}

void
SearchJournal::emit(const sweepio::SearchRecord &record)
{
    const std::string line = sweepio::encode(record);
    if (cursor_ < loadedLines_.size()) {
        if (line != loadedLines_[cursor_])
            conflict("record " + std::to_string(cursor_) +
                     " diverges from the replayed search\n  journal: " +
                     loadedLines_[cursor_] + "\n  replay:  " + line);
        ++cursor_;
        ++replayed_;
        return;
    }

    // Deterministic death point for kill/resume tests and CI.
    fault::checkpoint("search.journal.append");

    if (fd_ < 0) {
        fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
        if (fd_ < 0)
            cfl_fatal("cannot open journal \"%s\" for append: %s",
                      path_.c_str(), std::strerror(errno));
        // A torn append leaves a partial line after the loaded prefix;
        // appending behind it would corrupt the journal. Verify the
        // decodable records are a byte prefix of the file, then drop
        // the tail so the resumed run continues on a clean boundary.
        std::string prefix;
        for (const std::string &stored : loadedLines_)
            prefix += stored + "\n";
        const off_t size = ::lseek(fd_, 0, SEEK_END);
        if (size < 0 || static_cast<std::size_t>(size) < prefix.size())
            conflict("journal shrank underneath the loader");
        std::string head(prefix.size(), '\0');
        if (::pread(fd_, head.data(), head.size(), 0) !=
                static_cast<ssize_t>(head.size()) ||
            head != prefix)
            conflict("undecodable bytes interleave the journal's "
                     "records (not a torn tail); refusing to rewrite "
                     "history");
        if (static_cast<std::size_t>(size) > prefix.size() &&
            ::ftruncate(fd_, static_cast<off_t>(prefix.size())) != 0)
            cfl_fatal("cannot drop torn tail of journal \"%s\": %s",
                      path_.c_str(), std::strerror(errno));
        if (::lseek(fd_, 0, SEEK_END) < 0)
            cfl_fatal("cannot seek journal \"%s\": %s", path_.c_str(),
                      std::strerror(errno));
    }
    const std::string out = line + "\n";
    const ssize_t n = ::write(fd_, out.data(), out.size());
    if (n != static_cast<ssize_t>(out.size()))
        cfl_fatal("short write appending to journal \"%s\": %s",
                  path_.c_str(),
                  n < 0 ? std::strerror(errno) : "short write");
    ++cursor_;
    ++appended_;
}

void
SearchJournal::finish()
{
    if (cursor_ < loadedLines_.size())
        conflict("journal holds " +
                 std::to_string(loadedLines_.size() - cursor_) +
                 " records beyond this search's end — it belongs to a "
                 "longer run (different budget or strategy?)");
}

} // namespace cfl::search
