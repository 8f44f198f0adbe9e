/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (workload generation, branch
 * outcome noise) flows through Rng so that every experiment is exactly
 * reproducible from its seed. The implementation is splitmix64-seeded
 * xoshiro256**, which is fast and has no observable bias for our uses.
 */

#ifndef CFL_COMMON_RNG_HH
#define CFL_COMMON_RNG_HH

#include <cstdint>

namespace cfl
{

/** Deterministic 64-bit PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Construct from a seed; equal seeds give equal sequences. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit value. */
    std::uint64_t next();

    /** Uniform value in [0, bound) via rejection-free scaling. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform value in [lo, hi] inclusive. */
    std::uint64_t nextRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of true. */
    bool nextBool(double p);

    /** Zipf-distributed value in [0, n) with exponent @p s. */
    std::uint64_t nextZipf(std::uint64_t n, double s);

  private:
    std::uint64_t state[4];
};

/** Stateless 64-bit mix function (splitmix64 finalizer). Useful for
 *  deterministic per-key hashing, e.g. branch outcome models. */
std::uint64_t hashMix(std::uint64_t v);

/** Combine two values into one hash deterministically. */
std::uint64_t hashCombine(std::uint64_t a, std::uint64_t b);

} // namespace cfl

#endif // CFL_COMMON_RNG_HH
