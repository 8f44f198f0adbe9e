#include "sweepio/search_codec.hh"

namespace cfl::sweepio
{

std::vector<SearchRecord>
readSearchJournal(const std::string &path,
                  std::vector<std::string> *raw_lines)
{
    std::vector<SearchRecord> records;
    loadRecords<SearchRecord>(
        path, "search journal",
        [&](SearchRecord &&record, const std::string &line) {
            records.push_back(std::move(record));
            if (raw_lines != nullptr)
                raw_lines->push_back(line);
        });
    return records;
}

} // namespace cfl::sweepio
