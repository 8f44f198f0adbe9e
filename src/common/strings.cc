#include "common/strings.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"

namespace cfl
{

namespace
{

/** The digits of @p text as a value <= @p max; false on no digits, a
 *  non-digit, or a value past @p max. */
bool
parseDigits(const std::string &text, std::uint64_t max, std::uint64_t *out)
{
    if (text.empty())
        return false;
    std::uint64_t v = 0;
    for (const char c : text) {
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (c < '0' || c > '9' || v > (max - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    *out = v;
    return true;
}

} // namespace

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
    std::uint64_t v = 0;
    if (!parseDigits(text, std::numeric_limits<unsigned>::max(), &v))
        cfl_fatal("%s needs an unsigned integer, got \"%s\"",
                  flag.c_str(), text.c_str());
    return static_cast<unsigned>(v);
}

std::uint64_t
parseUint64Flag(const std::string &flag, const std::string &text)
{
    std::uint64_t v = 0;
    if (!parseDigits(text, std::numeric_limits<std::uint64_t>::max(), &v))
        cfl_fatal("%s needs an unsigned integer, got \"%s\"",
                  flag.c_str(), text.c_str());
    return v;
}

double
parseDoubleFlag(const std::string &flag, const std::string &text)
{
    // strtod alone would skip leading space, take '+', "inf", "nan" and
    // hex, and stop quietly at junk ("0.8x" reads as 0.8). Admit only
    // decimal characters, a leading '-' and an exponent's sign, then
    // require strtod to take every character and land in range.
    bool ok = !text.empty() && text[0] != '+';
    for (const char c : text) {
        if ((c < '0' || c > '9') && c != '.' && c != 'e' && c != 'E' &&
            c != '-' && c != '+')
            ok = false;
    }
    double v = 0.0;
    if (ok) {
        char *end = nullptr;
        errno = 0;
        v = std::strtod(text.c_str(), &end);
        ok = end == text.c_str() + text.size() && errno != ERANGE &&
             std::isfinite(v);
    }
    if (!ok)
        cfl_fatal("%s needs a finite number, got \"%s\"", flag.c_str(),
                  text.c_str());
    return v;
}

} // namespace cfl
