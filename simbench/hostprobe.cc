#include "hostprobe.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace simbench
{

namespace
{

constexpr int kBursts = 4;
constexpr std::uint64_t kStepsPerBurst = 500'000;

/** Keeps the chain's result live. */
volatile std::uint64_t probeSink;

} // namespace

double
probeHostS()
{
    using Clock = std::chrono::steady_clock;
    double fastest = 0.0;
    for (int b = 0; b < kBursts; ++b) {
        const auto start = Clock::now();
        std::uint64_t x = 0x9E3779B97F4A7C15ULL;
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < kStepsPerBurst; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if (x & 1)
                acc += x * 3;
            else
                acc ^= x >> 3;
        }
        probeSink = acc;
        const double s =
            std::chrono::duration<double>(Clock::now() - start).count();
        fastest = b == 0 ? s : std::min(fastest, s);
    }
    return fastest * kBursts;
}

} // namespace simbench
