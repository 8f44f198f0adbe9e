#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace cfl
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state)
        word = splitmix64(s);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;
    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    cfl_assert(bound > 0, "nextBelow(0) is meaningless");
    // 128-bit multiply-shift scaling (Lemire); bias is < 2^-64.
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(next()) * bound) >> 64);
}

std::uint64_t
Rng::nextRange(std::uint64_t lo, std::uint64_t hi)
{
    cfl_assert(lo <= hi, "nextRange with lo > hi");
    return lo + nextBelow(hi - lo + 1);
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

std::uint64_t
Rng::nextZipf(std::uint64_t n, double s)
{
    cfl_assert(n > 0, "nextZipf over empty range");
    // Inverse-CDF via the approximation of Gray et al.; adequate for
    // workload skew modelling and cheap enough to call per request.
    const double u = nextDouble();
    if (s <= 0.0)
        return nextBelow(n);
    if (std::abs(s - 1.0) < 1e-9) {
        const double hn = std::log(static_cast<double>(n) + 1.0);
        const double v = std::exp(u * hn) - 1.0;
        const auto idx = static_cast<std::uint64_t>(v);
        return idx >= n ? n - 1 : idx;
    }
    const double one_minus_s = 1.0 - s;
    const double hn = (std::pow(static_cast<double>(n) + 1.0, one_minus_s)
                       - 1.0) / one_minus_s;
    const double v =
        std::pow(u * hn * one_minus_s + 1.0, 1.0 / one_minus_s) - 1.0;
    const auto idx = static_cast<std::uint64_t>(v);
    return idx >= n ? n - 1 : idx;
}

std::uint64_t
hashMix(std::uint64_t v)
{
    v += 0x9e3779b97f4a7c15ull;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
    return v ^ (v >> 31);
}

std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return hashMix(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

} // namespace cfl
