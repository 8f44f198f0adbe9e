/**
 * @file
 * Small string helpers shared by the CLI tools.
 */

#ifndef CFL_COMMON_STRINGS_HH
#define CFL_COMMON_STRINGS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cfl
{

/** Split "a,b,c" at commas; fatal() on an empty item (",,", trailing
 *  comma, or an empty list). */
std::vector<std::string> splitList(const std::string &list);

// Strict CLI flag-value parsers: each fatal()s, naming @p flag, on
// anything but the exact form it documents. No leading whitespace, no
// '+', no trailing junk, nothing outside the result type's range.

/** ASCII decimal digits whose value fits unsigned. */
unsigned parseUnsignedFlag(const std::string &flag,
                           const std::string &text);

/** ASCII decimal digits whose value fits 64 bits (seeds). */
std::uint64_t parseUint64Flag(const std::string &flag,
                              const std::string &text);

/** A finite decimal number: an optional '-', digits with an optional
 *  '.', and an optional exponent. No inf, nan or hex form. */
double parseDoubleFlag(const std::string &flag, const std::string &text);

} // namespace cfl

#endif // CFL_COMMON_STRINGS_HH
