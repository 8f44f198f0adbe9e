/**
 * @file
 * Stable content digests for sweep-point evaluations.
 *
 * A dispatched sweep caches completed outcomes keyed by *what was
 * evaluated*: the point's canonical JSON encoding (codec.hh — integer
 * and slug fields only, fixed field order), the deterministic RNG seed
 * base, and a code-version tag. Equal inputs therefore digest to equal
 * keys across processes, hosts, and reruns, and any coordinate change —
 * scale knob, workload, seed function, simulator version — changes the
 * key and forces a re-evaluation. The digest is FNV-1a over that
 * canonical text: no dependence on struct layout, endianness, or
 * std::hash, all of which may differ between the machines of one
 * dispatch fleet.
 */

#ifndef CFL_SWEEPIO_DIGEST_HH
#define CFL_SWEEPIO_DIGEST_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/sweep.hh"

namespace cfl::sweepio
{

/** FNV-1a 64-bit hash of @p bytes. */
std::uint64_t fnv1a64(std::string_view bytes);

/** @p value as 16 lowercase hex digits. */
std::string hexDigest(std::uint64_t value);

/**
 * Content key of one sweep-point evaluation: hexDigest of the FNV-1a
 * hash over encode(point), @p seed_base, and @p code_version.
 */
std::string pointDigest(const SweepPoint &point, std::uint64_t seed_base,
                        const std::string &code_version);

} // namespace cfl::sweepio

#endif // CFL_SWEEPIO_DIGEST_HH
