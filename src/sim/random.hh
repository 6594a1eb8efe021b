/**
 * @file
 * Deterministic pseudo-random number generation and the distributions the
 * synthetic trace generator needs (uniform, geometric, exponential, Zipf).
 *
 * The simulator must be bit-reproducible across runs given a seed, so we
 * carry our own xoshiro256** generator rather than relying on unspecified
 * standard-library distribution implementations.
 */

#ifndef VMP_SIM_RANDOM_HH
#define VMP_SIM_RANDOM_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

namespace vmp
{

/**
 * xoshiro256** PRNG seeded via SplitMix64. Fast, high quality, and fully
 * specified here so results do not depend on the host library. The
 * per-draw calls are inline: the trace generator makes several per
 * reference.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed, resetting the stream. */
    void seed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = std::rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using rejection-free scaling. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        if (bound == 0) [[unlikely]]
            belowZero();
        // 128-bit multiply-shift scaling: negligible bias for our bounds.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1): 53 random bits. */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** True with probability @p p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Geometric number of trials until first success (support {1,2,...})
     * with success probability @p p. Mean 1/p. Same draws as
     * GeometricDist(p).sample(), which callers with a fixed p prefer.
     */
    std::uint64_t geometric(double p);

    /** Exponential variate with mean @p mean. */
    double exponential(double mean);

  private:
    [[noreturn]] static void belowZero();

    std::uint64_t s_[4];
};

/**
 * Geometric distribution over {1, 2, ...} with a fixed success
 * probability p, by inversion: floor(log(u) / log1p(-p)) + 1, with
 * log1p(-p) computed once. p == 1 returns 1 without a draw.
 */
class GeometricDist
{
  public:
    explicit GeometricDist(double p);

    std::uint64_t
    sample(Rng &rng) const
    {
        return p_ == 1.0 ? 1 : trialsOf(rng.uniform());
    }

    /** The draw for uniform @p u in [0, 1), when p < 1. */
    std::uint64_t
    trialsOf(double u) const
    {
        // Avoid log(0).
        if (u <= 0.0)
            u = 0x1.0p-53;
        const double trials = std::floor(std::log(u) / log1mp_) + 1.0;
        // For tiny p the trial count can exceed 2^64 - 1; converting such
        // a double to uint64_t is undefined behaviour, so saturate first.
        // 0x1p64 is the smallest power of two above the uint64_t range.
        if (trials >= 0x1.0p64)
            return std::numeric_limits<std::uint64_t>::max();
        return static_cast<std::uint64_t>(trials);
    }

  private:
    double p_;
    double log1mp_;
};

/**
 * Zipf-distributed integers over [0, n): rank r is drawn with probability
 * proportional to 1/(r+1)^theta. Sampling inverts the precomputed CDF
 * through a guide table (Chen & Asau, 1974): bucket k = floor(u * n)
 * stores the first rank whose CDF reaches k/n, and a short walk from
 * there finds the first rank whose CDF reaches u. The result equals a
 * binary search's for every u. Construction is O(n); a sample costs O(1)
 * expected. Both tables share one buffer: the n CDF values, then the
 * guide table's n 32-bit entries.
 *
 * The trace generator uses this to model working sets with a hot core and
 * a long cold tail, the locality structure that makes large cache pages
 * effective (paper Section 5.2).
 */
class ZipfDist
{
  public:
    ZipfDist(std::uint64_t n, double theta);

    /** Draw one rank in [0, n). */
    std::uint64_t sample(Rng &rng) const { return rankOf(rng.uniform()); }

    /** The first rank r with cdf[r] >= @p u, for u in [0, 1). */
    std::uint64_t
    rankOf(double u) const
    {
        const double *cdf = table_.data();
        std::size_t r = guide(std::min(
            static_cast<std::size_t>(u * static_cast<double>(n_)), n_ - 1));
        while (r > 0 && cdf[r - 1] >= u)
            --r;
        while (cdf[r] < u)
            ++r;
        return r;
    }

    std::uint64_t domain() const { return n_; }
    std::span<const double> cdf() const { return {table_.data(), n_}; }
    double theta() const { return theta_; }

  private:
    /** Guide-table bucket @p k, read from behind the CDF values. */
    std::uint32_t
    guide(std::size_t k) const
    {
        std::uint32_t r;
        std::memcpy(&r, reinterpret_cast<const char *>(table_.data() + n_) +
                            k * sizeof r,
                    sizeof r);
        return r;
    }

    std::size_t n_;
    /** The CDF values, then the guide table. */
    std::vector<double> table_;
    double theta_;
};

} // namespace vmp

#endif // VMP_SIM_RANDOM_HH
