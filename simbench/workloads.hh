/**
 * @file
 * The benchmark's workloads and the span log that times them.
 *
 * One repetition ("rep") of a workload generates its inputs from the
 * seed, builds the machine, runs it single-threaded and collects the
 * simulated results. The host time of each step is a span, so the
 * numbers the benchmark reports and the Chrome trace it writes come
 * from the same clock reads.
 */

#ifndef SIMBENCH_WORKLOADS_HH
#define SIMBENCH_WORKLOADS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "sim/json.hh"

namespace simbench
{

/** Host-time spans recorded around the benchmark's calls into layers. */
class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;
    static constexpr std::size_t kNoParent =
        std::numeric_limits<std::size_t>::max();

    /** Start a span; returns its id. */
    std::size_t open(std::string name, std::size_t parent = kNoParent);
    /** End span @p id, recording @p calls; returns its length in s. */
    double close(std::size_t id, std::uint64_t calls = 0);

    /** Chrome-trace JSON of every closed span (ts/dur in us). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    struct Span
    {
        std::string name;
        std::size_t parent;
        Clock::time_point start;
        Clock::time_point end;
        std::uint64_t calls = 0;
    };

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/**
 * Simulated outcome of one rep, compared bit for bit. An operation is
 * one simulated CPU trace or one Figure-4 cell; the machine-wide fields
 * are zero for the Figure-4 sweep. EventQueue::dispatched() is
 * deliberately not part of it: event-model changes may move it while
 * the simulated results stay identical.
 */
struct Fingerprint
{
    /** {refs, misses} per operation. */
    std::vector<std::array<std::uint64_t, 2>> ops;
    std::uint64_t elapsedTicks = 0;
    std::uint64_t busAborts = 0;
    std::uint64_t writeBacks = 0;
    std::uint64_t upgrades = 0;

    /** Per operation: does it disagree with @p expected? A machine-wide
     *  field that differs fails every operation. */
    std::vector<bool> mismatches(const Fingerprint &expected) const;

    vmp::Json toJson() const;
    static Fingerprint fromJson(const vmp::Json &json);
};

/** Per-layer counts of one rep (simulated quantities). */
struct Counts
{
    std::uint64_t refs = 0;
    std::uint64_t eventsDispatched = 0;
    std::uint64_t misses = 0;
    std::uint64_t ownershipMisses = 0;
    std::uint64_t retries = 0;
    std::uint64_t writeBacks = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t wordsServiced = 0;
    std::uint64_t busTransactions = 0;
    std::uint64_t busAborts = 0;
    /** Local (cluster) buses for the hierarchical machine. */
    double busUtilization = 0.0;
    /** Mean arbitration wait of completed grants, simulated ns. */
    double queueDelayMeanNs = 0.0;
    std::uint64_t globalFetches = 0;
    double globalBusUtilization = 0.0;
};

/** How one rep is instrumented. */
enum class Instrument
{
    /** No tracer: the configuration every timed rep uses. */
    None,
    /** enableTracing with its MissProfiler. */
    Traced,
    /** Traced, plus the coherence checker(s) at every bus level. */
    Checked,
};

/** Mean simulated time per miss in each miss-handler phase, in us. */
using PhaseMeans = std::array<double, 5>;

/** Everything one rep produces. */
struct RepResult
{
    double generateS = 0.0;
    double buildS = 0.0;
    /** The timed section: simulation only. */
    double runS = 0.0;
    Fingerprint fingerprint;
    /**
     * Per operation: failed a check that needs no recorded value (not
     * every reference retired, or a wait abandoned with a
     * DeadOwnerError).
     */
    std::vector<bool> broken;
    Counts counts;
    /** Coherence-checker violations (Instrument::Checked only). */
    std::uint64_t violations = 0;
    /** Profiled per-miss phase means (traced reps only). */
    PhaseMeans phaseUs{};
    /** FNV-1a digest of the generated references. */
    std::uint64_t traceDigest = 0;
};

/** Names of the benchmark workloads, in documentation order. */
const std::vector<std::string> &workloadNames();

/** Operations in one rep: CPU traces, or Figure-4 cells. Throws
 *  vmp::FatalError for an unknown workload. */
std::size_t operationCount(const std::string &workload);

/**
 * Run one rep of @p workload with inputs from @p seed. Throws
 * vmp::FatalError on a configuration the simulator rejects.
 */
RepResult runRep(const std::string &workload, std::uint64_t seed,
                 Instrument instrument, SpanLog &spans,
                 std::size_t parent);

} // namespace simbench

#endif // SIMBENCH_WORKLOADS_HH
