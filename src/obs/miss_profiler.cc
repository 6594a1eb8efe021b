/**
 * @file
 * MissProfiler implementation: per-track phase accumulation and the
 * fold into {kind, dirty} breakdown classes.
 */

#include "obs/miss_profiler.hh"

namespace vmp::obs
{

void
MissProfiler::observe(const TraceEvent &event)
{
    if (event.kind != EventKind::MissPhase &&
        event.kind != EventKind::Miss) {
        return;
    }
    // A nested miss's phases interleave with its outer miss's on the
    // same track: accumulate each nesting level separately.
    const bool nested = (event.aux & kNestedMissBit) != 0;
    const std::size_t slot = std::size_t{event.track} * 2 + nested;
    if (pending_.size() <= slot)
        pending_.resize(slot + 1);
    Pending &pending = pending_[slot];
    const std::uint8_t aux = event.aux & ~kNestedMissBit;

    if (event.kind == EventKind::MissPhase) {
        const auto phase = static_cast<std::size_t>(aux);
        if (phase < kMissPhases)
            pending.phaseNs[phase] += event.arg0;
        return;
    }

    // Closing Miss span: fold the pending phases into the class.
    const bool dirty = (aux & 1u) != 0;
    const auto kind_raw = static_cast<std::size_t>(aux >> 1);
    const auto kind = static_cast<MissKind>(
        kind_raw < kMissKinds ? kind_raw : 0);
    MissBreakdown &cls = classes_[classIndex(kind, dirty)];
    ++cls.count;
    cls.elapsedNs += event.arg0;
    cls.retries += event.arg1;
    std::uint64_t phase_sum = 0;
    for (std::size_t i = 0; i < kMissPhases; ++i) {
        cls.phaseNs[i] += pending.phaseNs[i];
        phase_sum += pending.phaseNs[i];
    }
    pending.phaseNs.fill(0);
    ++misses_;
    const std::uint64_t mismatch = phase_sum > event.arg0
                                       ? phase_sum - event.arg0
                                       : event.arg0 - phase_sum;
    if (mismatch != 0) {
        ++mismatches_;
        if (mismatch > worstMismatchNs_)
            worstMismatchNs_ = mismatch;
    }
}

MissBreakdown
MissProfiler::total() const
{
    MissBreakdown out;
    for (const auto &cls : classes_) {
        out.count += cls.count;
        out.elapsedNs += cls.elapsedNs;
        out.retries += cls.retries;
        for (std::size_t i = 0; i < kMissPhases; ++i)
            out.phaseNs[i] += cls.phaseNs[i];
    }
    return out;
}

void
MissProfiler::registerStats(StatGroup &group) const
{
    group.addCounter("misses_profiled",
                     "misses folded into phase breakdowns", misses_);
    group.addCounter(
        "phase_sum_mismatches",
        "misses whose phase sum differed from elapsed time",
        mismatches_);
}

Json
MissProfiler::toJson() const
{
    Json doc = Json::object();
    doc["misses"] = Json(misses());
    doc["phase_sum_mismatches"] = Json(phaseSumMismatches());
    doc["worst_mismatch_ns"] = Json(worstMismatchNs_);
    Json classes = Json::array();
    for (std::size_t k = 0; k < kMissKinds; ++k) {
        for (int dirty = 0; dirty < 2; ++dirty) {
            const MissBreakdown &cls =
                classes_[k * 2 + static_cast<std::size_t>(dirty)];
            if (cls.count == 0)
                continue;
            Json row = Json::object();
            row["kind"] =
                Json(std::string(
                    missKindName(static_cast<MissKind>(k))));
            row["dirty"] = Json(dirty != 0);
            row["count"] = Json(cls.count);
            row["mean_elapsed_us"] = Json(cls.meanElapsedUs());
            row["retries"] = Json(cls.retries);
            Json phases = Json::object();
            for (std::size_t p = 0; p < kMissPhases; ++p) {
                phases[missPhaseName(static_cast<MissPhase>(p))] =
                    Json(cls.meanPhaseUs(static_cast<MissPhase>(p)));
            }
            row["mean_phase_us"] = std::move(phases);
            classes.push(std::move(row));
        }
    }
    doc["classes"] = std::move(classes);
    return doc;
}

} // namespace vmp::obs
