/**
 * @file
 * Small string helpers shared by the CLI tools.
 */

#ifndef CFL_COMMON_STRINGS_HH
#define CFL_COMMON_STRINGS_HH

#include <string>
#include <vector>

namespace cfl
{

/** Split "a,b,c" at commas; fatal() on an empty item (",,", trailing
 *  comma, or an empty list). */
std::vector<std::string> splitList(const std::string &list);

/** Parse @p text, ASCII decimal digits whose value fits unsigned, as
 *  a CLI flag value; fatal() — naming @p flag — on anything else. */
unsigned parseUnsignedFlag(const std::string &flag,
                           const std::string &text);

} // namespace cfl

#endif // CFL_COMMON_STRINGS_HH
