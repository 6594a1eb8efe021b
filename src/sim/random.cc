#include "sim/random.hh"

#include "sim/logging.hh"

namespace vmp
{

namespace
{

/** SplitMix64 step used for seeding xoshiro state. */
std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Rng::seed(std::uint64_t seed_value)
{
    std::uint64_t x = seed_value;
    for (auto &s : s_)
        s = splitMix64(x);
    // xoshiro must not start in the all-zero state.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0)
        s_[0] = 1;
}

void
Rng::belowZero()
{
    panic("Rng::below called with bound 0");
}

std::uint64_t
Rng::between(std::uint64_t lo, std::uint64_t hi)
{
    if (lo > hi)
        panic("Rng::between: lo > hi");
    return lo + below(hi - lo + 1);
}

std::uint64_t
Rng::geometric(double p)
{
    return GeometricDist(p).sample(*this);
}

double
Rng::exponential(double mean)
{
    double u = uniform();
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

GeometricDist::GeometricDist(double p) : p_(p), log1mp_(std::log1p(-p))
{
    if (!(p > 0.0 && p <= 1.0))
        panic("GeometricDist: p out of (0, 1]: ", p);
}

ZipfDist::ZipfDist(std::uint64_t n, double theta_value)
    : n_(n), theta_(theta_value)
{
    if (n == 0 || n > std::numeric_limits<std::uint32_t>::max())
        panic("ZipfDist: domain size out of range: ", n);
    // n doubles, then n 32-bit guide entries rounded up to doubles.
    table_.resize(n + (n + 1) / 2);
    double *cdf = table_.data();
    char *guide = reinterpret_cast<char *>(cdf + n);
    double sum = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), theta_);
        cdf[r] = sum;
    }
    // Normalise, and merge the guide table in the same pass: bucket k
    // starts at the first rank whose CDF reaches k/n (the last rank's
    // CDF is exactly 1, so every bucket is filled).
    const double scale = static_cast<double>(n);
    std::uint64_t k = 0;
    for (std::uint64_t r = 0; r < n; ++r) {
        cdf[r] = r + 1 == n ? 1.0 : cdf[r] / sum;
        const auto rank = static_cast<std::uint32_t>(r);
        for (; k < n && cdf[r] * scale >= static_cast<double>(k); ++k)
            std::memcpy(guide + k * sizeof rank, &rank, sizeof rank);
    }
}

} // namespace vmp
