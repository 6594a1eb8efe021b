/**
 * @file
 * MissProfiler: folds traced events into per-miss phase breakdowns.
 *
 * Attached as an EventTracer sink, the profiler watches each track's
 * MissPhase spans accumulate and, when the closing Miss span arrives,
 * folds the per-phase nanoseconds into a Breakdown keyed by
 * {miss kind, dirty victim}. Because the controller emits phases as a
 * gapless serial partition of the miss interval (the first phase opens
 * at the miss's start tick and each phase starts where the previous
 * ended), the per-miss phase sum equals the miss's elapsed time by
 * construction — any difference is a tracing bug and is counted in
 * phase_sum_mismatches. bench_obs cross-checks the resulting
 * clean/dirty full-miss breakdowns against the paper's Table 1/2
 * elapsed-time rows via analytic::MissCostModel.
 *
 * Sinks see events at record() time, before ring storage, so the
 * profiler's folds are exact even after the raw rings wrap.
 */

#ifndef VMP_OBS_MISS_PROFILER_HH
#define VMP_OBS_MISS_PROFILER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "obs/event_tracer.hh"
#include "obs/trace_event.hh"
#include "sim/json.hh"
#include "sim/stats.hh"

namespace vmp::obs
{

/** Miss kinds distinguished by the controller (Miss event aux>>1). */
enum class MissKind : std::uint8_t
{
    Full = 0,       ///< page absent from the cache
    Ownership = 1,  ///< present shared, write needs private
    Protection = 2, ///< user access to a supervisor-owned page
};

inline constexpr std::size_t kMissKinds = 3;

inline const char *
missKindName(MissKind kind)
{
    switch (kind) {
      case MissKind::Full: return "full";
      case MissKind::Ownership: return "ownership";
      case MissKind::Protection: return "protection";
    }
    return "unknown";
}

/** Aggregated phase decomposition for one {kind, dirty} miss class. */
struct MissBreakdown
{
    std::uint64_t count = 0;
    std::uint64_t elapsedNs = 0;
    std::uint64_t retries = 0;
    std::array<std::uint64_t, kMissPhases> phaseNs{};

    double
    meanElapsedUs() const
    {
        return count == 0
                   ? 0.0
                   : static_cast<double>(elapsedNs) /
                         static_cast<double>(count) / 1000.0;
    }

    double
    meanPhaseUs(MissPhase phase) const
    {
        return count == 0
                   ? 0.0
                   : static_cast<double>(
                         phaseNs[static_cast<std::size_t>(phase)]) /
                         static_cast<double>(count) / 1000.0;
    }

    /** Mean per-miss sum over all phases, in us. */
    double
    phaseSumUs() const
    {
        std::uint64_t sum = 0;
        for (const auto ns : phaseNs)
            sum += ns;
        return count == 0 ? 0.0
                          : static_cast<double>(sum) /
                                static_cast<double>(count) / 1000.0;
    }
};

/**
 * Folds MissPhase/Miss trace events into MissBreakdowns. One
 * instance serves a whole tracer: pending accumulators per track and
 * nesting level (kNestedMissBit) keep concurrent misses on different
 * boards, and a PTE miss nested inside its outer miss, separate.
 */
class MissProfiler
{
  public:
    /** Sink entry point; also callable directly in tests. */
    void observe(const TraceEvent &event);

    /** Adapter for EventTracer::addSink. */
    EventTracer::Sink
    sink()
    {
        return [this](const TraceEvent &event) { observe(event); };
    }

    const MissBreakdown &
    breakdown(MissKind kind, bool dirty) const
    {
        return classes_[classIndex(kind, dirty)];
    }

    /** Aggregate over every {kind, dirty} class. */
    MissBreakdown total() const;

    std::uint64_t misses() const { return misses_.value(); }

    /** Misses whose phase sum differed from their elapsed time. */
    std::uint64_t
    phaseSumMismatches() const
    {
        return mismatches_.value();
    }

    /** Largest per-miss |phase sum - elapsed| seen, in ns. */
    std::uint64_t worstMismatchNs() const { return worstMismatchNs_; }

    void registerStats(StatGroup &group) const;

    /** Full breakdown table (per class: count, elapsed, phases). */
    Json toJson() const;

  private:
    static std::size_t
    classIndex(MissKind kind, bool dirty)
    {
        return static_cast<std::size_t>(kind) * 2 + (dirty ? 1 : 0);
    }

    struct Pending
    {
        std::array<std::uint64_t, kMissPhases> phaseNs{};
    };

    std::array<MissBreakdown, kMissKinds * 2> classes_{};
    /** Indexed track * 2 + nested. */
    std::vector<Pending> pending_;
    Counter misses_;
    Counter mismatches_;
    std::uint64_t worstMismatchNs_ = 0;
};

} // namespace vmp::obs

#endif // VMP_OBS_MISS_PROFILER_HH
