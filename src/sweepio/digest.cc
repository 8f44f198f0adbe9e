#include "sweepio/digest.hh"

#include <cstdio>

#include "sweepio/codec.hh"

namespace cfl::sweepio
{

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
hexDigest(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return std::string(buf, 16);
}

std::string
pointDigest(const SweepPoint &point, std::uint64_t seed_base,
            const std::string &code_version)
{
    // '\n' separators keep the three components unambiguous: the point
    // encoding is single-line JSON and versions/seeds contain no
    // newlines, so no concatenation of different inputs collides.
    std::string canonical = encode(point);
    canonical += '\n';
    canonical += std::to_string(seed_base);
    canonical += '\n';
    canonical += code_version;
    return hexDigest(fnv1a64(canonical));
}

} // namespace cfl::sweepio
