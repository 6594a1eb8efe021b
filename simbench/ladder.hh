/**
 * @file
 * The per-layer ladder: isolated host nanoseconds per call into each
 * src/ module's public functions, each case recorded as a span with
 * its call count.
 */

#ifndef SIMBENCH_LADDER_HH
#define SIMBENCH_LADDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hh"

namespace simbench
{

struct LadderResult
{
    /** Metric name, e.g. "cache.access_hit_ns". */
    std::string name;
    /** Median over timed batches of host ns per call. */
    double nsPerCall = 0.0;
    /** Calls timed (warm-up excluded). */
    std::uint64_t calls = 0;
};

/**
 * Run every case for about @p budget_s host seconds in total. Each case
 * warms up untimed first; a case whose sanity check fails (a "hit" that
 * missed, a fetch that did not reach the global bus) throws
 * vmp::FatalError.
 */
std::vector<LadderResult> runLadder(double budget_s, SpanLog &spans,
                                    std::size_t parent);

} // namespace simbench

#endif // SIMBENCH_LADDER_HH
