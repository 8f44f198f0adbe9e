#include "common/strings.hh"

#include <limits>

#include "common/logging.hh"

namespace cfl
{

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end == start)
            cfl_fatal("empty item in list \"%s\"", list.c_str());
        items.push_back(list.substr(start, end - start));
        start = end + 1;
        if (comma == std::string::npos)
            break;
    }
    return items;
}

unsigned
parseUnsignedFlag(const std::string &flag, const std::string &text)
{
    // ASCII digits only: no sign, no whitespace, nothing that does not
    // fit the result.
    constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
    unsigned v = 0;
    bool ok = !text.empty();
    for (const char c : text) {
        const unsigned digit = static_cast<unsigned>(c - '0');
        if (c < '0' || c > '9' || v > (kMax - digit) / 10) {
            ok = false;
            break;
        }
        v = v * 10 + digit;
    }
    if (!ok)
        cfl_fatal("%s needs an unsigned integer, got \"%s\"",
                  flag.c_str(), text.c_str());
    return v;
}

} // namespace cfl
