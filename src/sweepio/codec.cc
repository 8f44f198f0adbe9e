#include "sweepio/codec.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace cfl::sweepio
{

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        cfl_fatal("cannot open \"%s\" for reading", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
spill(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        cfl_fatal("cannot open \"%s\" for writing", path.c_str());
    out << text;
    if (!out.flush())
        cfl_fatal("failed writing \"%s\"", path.c_str());
}

/** Strictly decode every non-blank line of @p text as a T. */
template <typename T>
std::vector<T>
decodeLines(const std::string &text)
{
    std::vector<T> records;
    // One record per line: size the vector from a newline count instead
    // of growing it geometrically while parsing large shard files.
    records.reserve(static_cast<std::size_t>(
                        std::count(text.begin(), text.end(), '\n')) +
                    1);
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        records.push_back(decode<T>(line));
    }
    return records;
}

template <typename T>
std::string
encodeLines(const std::vector<T> &records)
{
    std::string text;
    for (const T &record : records) {
        text += encode(record);
        text += '\n';
    }
    return text;
}

} // namespace

std::string
encodeOutcome(const SweepOutcome &outcome)
{
    return encode(outcome);
}

SweepOutcome
decodeOutcome(const std::string &line)
{
    return decode<SweepOutcome>(line);
}

std::string
encodeResult(const SweepResult &result)
{
    return encodeLines(result.points);
}

SweepResult
decodeResult(const std::string &text)
{
    return {decodeLines<SweepOutcome>(text)};
}

void
writePoints(const std::string &path, const std::vector<SweepPoint> &points)
{
    spill(path, encodeLines(points));
}

std::vector<SweepPoint>
readPoints(const std::string &path)
{
    return decodeLines<SweepPoint>(slurp(path));
}

void
writeResult(const std::string &path, const SweepResult &result)
{
    spill(path, encodeResult(result));
}

SweepResult
readResult(const std::string &path)
{
    return decodeResult(slurp(path));
}

} // namespace cfl::sweepio
