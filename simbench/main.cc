/**
 * @file
 * simbench: the simulator's benchmark of record. One workload per
 * process, so the peak RSS it reports belongs to that workload.
 *
 *   simbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--expect FINGERPRINTS.json] [--out DIR]
 *
 * --trace 0 times untraced reps, each between two host probes, and
 * reports the end-to-end metrics scaled to the reference host speed;
 * --trace 1 runs the per-layer ladder, untraced/traced rep pairs and
 * one coherence-checked rep, and reports the per-layer metrics. Either
 * way every rep's simulated fingerprint is checked, and the last line
 * of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * A full record of the run, and with --trace 1 a Chrome trace of the
 * benchmark's own spans, are written to --out.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hostprobe.hh"
#include "ladder.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "workloads.hh"

namespace
{

using namespace simbench;
using vmp::Json;

/** Seed the recorded fingerprints belong to. */
constexpr std::uint64_t kRecordedSeed = 1;
/** Timed reps a --trace 0 run makes at least, after its warm-up rep. */
constexpr std::size_t kMinTimedReps = 5;
/** Untraced/traced pairs a --trace 1 run makes at least. */
constexpr std::size_t kMinPairs = 2;
/** Share of a --trace 1 run given to the ladder. */
constexpr double kLadderShare = 0.4;

struct UsageError
{
    std::string message;
};

struct Options
{
    std::string workload;
    std::uint64_t seed = kRecordedSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string expect = "simbench/fingerprints.json";
    std::string out = ".bench_build/results";
};

const char *kUsage =
    "usage: simbench --workload NAME --seed N --seconds S --trace 0|1 "
    "[--expect FILE] [--out DIR]";

std::uint64_t
parseSeed(const std::string &text)
{
    std::uint64_t value = 0;
    const auto *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc() || ptr != end)
        throw UsageError{"--seed must be a non-negative integer, got '" +
                         text + "'"};
    return value;
}

double
parseSeconds(const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !(value > 0.0) || value > 3600.0)
        throw UsageError{"--seconds must be a number in (0, 3600], got '" +
                         text + "'"};
    return value;
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw UsageError{"missing value for " + flag};
        const std::string value = argv[++i];
        if (flag == "--workload") {
            const auto &names = workloadNames();
            if (std::find(names.begin(), names.end(), value) ==
                names.end()) {
                std::string known;
                for (const auto &n : names)
                    known += (known.empty() ? "" : ", ") + n;
                throw UsageError{"unknown workload '" + value +
                                 "' (known: " + known + ")"};
            }
            opts.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opts.seed = parseSeed(value);
        } else if (flag == "--seconds") {
            opts.seconds = parseSeconds(value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw UsageError{"--trace must be 0 or 1, got '" + value +
                                 "'"};
            opts.trace = value == "1";
        } else if (flag == "--expect") {
            opts.expect = value;
        } else if (flag == "--out") {
            opts.out = value;
        } else {
            throw UsageError{"unknown argument '" + flag + "'"};
        }
    }
    if (!have_workload)
        throw UsageError{"--workload is required"};
    return opts;
}

/** The recorded fingerprint of @p workload at kRecordedSeed. */
Fingerprint
loadExpected(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    if (!in)
        vmp::fatal("cannot read expected fingerprints '", path, "'");
    std::stringstream text;
    text << in.rdbuf();
    const Json doc = Json::parse(text.str());
    if (doc.get("seed").asUint() != kRecordedSeed)
        vmp::fatal(path, ": fingerprints recorded for seed ",
                   doc.get("seed").asUint(), ", expected ",
                   kRecordedSeed);
    const Json *entry = doc.get("workloads").find(workload);
    if (entry == nullptr)
        vmp::fatal(path, ": no fingerprint for '", workload, "'");
    return Fingerprint::fromJson(*entry);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/** Peak RSS since the process started or resetPeakRss() last worked. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Reset the peak RSS to the current RSS; false where not allowed. */
bool
resetPeakRss()
{
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5" << std::flush;
    return static_cast<bool>(clear);
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/**
 * Runs reps and keeps the operation tally. Every rep's fingerprint is
 * compared against a reference: the recorded one when the run's seed
 * is the recorded seed, otherwise the run's own first rep (so every
 * later rep, traced or not, must reproduce it bit for bit), and a
 * canary rep at the recorded seed checks the simulator itself.
 */
class Runner
{
  public:
    Runner(Options opts, Fingerprint recorded)
        : opts_(std::move(opts)), recorded_(std::move(recorded))
    {
        if (opts_.seed == kRecordedSeed)
            reference_ = recorded_;
        root_ = spans_.open("simbench " + opts_.workload);
    }

    /** One checked rep; nullopt if it threw. */
    std::optional<RepResult>
    rep(std::uint64_t seed, Instrument instrument, const char *label)
    {
        const auto span = spans_.open(label, root_);
        const std::size_t ops = operationCount(opts_.workload);
        attempted_ += ops;
        try {
            RepResult r =
                runRep(opts_.workload, seed, instrument, spans_, span);
            spans_.close(span);
            const Fingerprint *expected =
                seed == opts_.seed ? (reference_ ? &*reference_ : nullptr)
                                   : &recorded_;
            const auto wrong = expected
                ? r.fingerprint.mismatches(*expected)
                : std::vector<bool>(r.fingerprint.ops.size());
            std::size_t failed = 0;
            for (std::size_t i = 0; i < ops; ++i) {
                const bool bad = i >= wrong.size() || wrong[i] ||
                    i >= r.broken.size() || r.broken[i] ||
                    r.violations != 0;
                failed += bad;
            }
            failed_ += failed;
            if (failed != 0)
                std::cerr << "simbench: " << label << " rep (seed " << seed
                          << "): " << failed << " of " << ops
                          << " operations failed"
                          << (r.violations ? " (coherence violations)" : "")
                          << "\n";
            if (seed == opts_.seed && !reference_)
                reference_ = r.fingerprint;
            return r;
        } catch (const std::exception &e) {
            spans_.close(span);
            failed_ += ops;
            std::cerr << "simbench: " << label << " rep (seed " << seed
                      << ") threw: " << e.what() << "\n";
            return std::nullopt;
        }
    }

    /** Check the simulator at the recorded seed when the run's own
     *  seed has no recorded fingerprint. */
    void
    canary()
    {
        if (opts_.seed != kRecordedSeed)
            rep(kRecordedSeed, Instrument::None, "canary");
    }

    const Options &opts() const { return opts_; }
    SpanLog &spans() { return spans_; }
    std::size_t root() const { return root_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    void closeRoot() { spans_.close(root_); }

  private:
    Options opts_;
    Fingerprint recorded_;
    std::optional<Fingerprint> reference_;
    SpanLog spans_;
    std::size_t root_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Metrics in print order, with units. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Report
{
    std::vector<Metric> metrics;
    Json host = Json::object();
    std::optional<RepResult> first;
};

/**
 * Fill the host block from @p reps. Rep i's host times are multiplied
 * by @p scales[i]: the host-speed scale of a --trace 0 run, or 1.
 */
void
addHost(Report &report, const std::vector<RepResult> &reps,
        const std::vector<double> &scales, std::uint64_t seed)
{
    std::vector<double> gen, build, setup;
    Json run_s = Json::array();
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const auto &r = reps[i];
        gen.push_back(r.generateS * scales.at(i));
        build.push_back(r.buildS * scales.at(i));
        setup.push_back((r.generateS + r.buildS) * scales.at(i));
        run_s.push(Json(r.runS));
    }
    report.host["rep_run_s"] = std::move(run_s);
    report.host["seed"] = Json(seed);
    report.host["reps"] = Json(std::uint64_t{reps.size()});
    report.host["setup_s"] = Json(median(setup));
    report.host["generate_s"] = Json(median(gen));
    report.host["build_s"] = Json(median(build));
    report.host["peak_rss_mb"] = Json(peakRssMb());
    report.host["events_dispatched"] = Json(
        reps.empty() ? std::uint64_t{0}
                     : reps.front().counts.eventsDispatched);
}

/**
 * --trace 0: untimed warm-up rep, then timed reps for --seconds, with
 * a host probe before the first and after every one.
 */
Report
endToEnd(Runner &runner)
{
    const auto &opts = runner.opts();
    Report report;
    report.first = runner.rep(opts.seed, Instrument::None, "warmup");
    std::vector<RepResult> reps;
    std::vector<double> probes = {probeHostS()};
    // Peak RSS per rep where the kernel lets it be reset, since freed
    // heap that the allocator keeps can raise a later rep's peak.
    std::vector<double> peak_mb;
    double timed = 0.0;
    while (reps.size() < kMinTimedReps || timed < opts.seconds) {
        const bool reset = resetPeakRss();
        auto r = runner.rep(opts.seed, Instrument::None, "rep");
        if (!r)
            break;
        if (reset)
            peak_mb.push_back(peakRssMb());
        probes.push_back(probeHostS());
        timed += r->runS;
        reps.push_back(std::move(*r));
    }
    // Other tenants of a shared host slow it in phases that can cover a
    // whole run. Each rep's host times are scaled to the reference host
    // speed by the probes on either side of it, and the metrics are the
    // medians over reps. The raw medians are kept in the record.
    std::vector<double> scales, rate, raw_rate, raw_setup;
    Json probe_s = Json::array();
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const auto &r = reps[i];
        const double refs = static_cast<double>(r.counts.refs);
        scales.push_back(2.0 * kProbeReferenceS /
                         (probes[i] + probes[i + 1]));
        rate.push_back(refs / (r.runS * scales.back()));
        raw_rate.push_back(refs / r.runS);
        raw_setup.push_back(r.generateS + r.buildS);
    }
    for (const double p : probes)
        probe_s.push(Json(p));
    addHost(report, reps, scales, opts.seed);
    report.host["probe_s"] = std::move(probe_s);
    report.host["raw_refs_per_s"] = Json(median(raw_rate));
    report.host["raw_setup_s"] = Json(median(raw_setup));
    report.metrics = {
        {"refs_per_s", median(rate), "1/s"},
        {"setup_s", report.host.get("setup_s").asNumber(), "s"},
        {"peak_rss_mb", report.host.get("peak_rss_mb").asNumber(), "MB"},
    };
    return report;
}

/** --trace 1: ladder, untraced/traced pairs, one checked rep. */
Report
perLayer(Runner &runner)
{
    const auto &opts = runner.opts();
    Report report;
    const auto ladder_span = runner.spans().open("ladder", runner.root());
    const auto ladder = runLadder(opts.seconds * kLadderShare,
                                  runner.spans(), ladder_span);
    runner.spans().close(ladder_span);

    const auto start = SpanLog::Clock::now();
    const double budget = opts.seconds * (1.0 - kLadderShare);
    std::vector<RepResult> untraced;
    std::vector<double> overhead, ns_per_event;
    std::optional<RepResult> traced_rep;
    for (;;) {
        auto plain = runner.rep(opts.seed, Instrument::None, "untraced");
        auto traced = runner.rep(opts.seed, Instrument::Traced, "traced");
        if (!plain || !traced)
            break;
        overhead.push_back(traced->runS / plain->runS);
        // The Figure-4 sweep has no event queue: its unit of work is
        // one FastCacheSim step per reference.
        const auto work = plain->counts.eventsDispatched
            ? plain->counts.eventsDispatched
            : plain->counts.refs;
        ns_per_event.push_back(plain->runS * 1e9 /
                               static_cast<double>(work));
        untraced.push_back(std::move(*plain));
        traced_rep = std::move(*traced);
        const double spent = std::chrono::duration<double>(
                                 SpanLog::Clock::now() - start)
                                 .count();
        if (untraced.size() >= kMinPairs && spent >= budget)
            break;
    }
    runner.rep(opts.seed, Instrument::Checked, "checked");
    addHost(report, untraced, std::vector<double>(untraced.size(), 1.0),
            opts.seed);
    if (!untraced.empty())
        report.first = untraced.front();

    for (const auto &l : ladder)
        report.metrics.push_back({l.name, l.nsPerCall, "ns"});
    const Counts c = untraced.empty() ? Counts{} : untraced.front().counts;
    const PhaseMeans phases =
        traced_rep ? traced_rep->phaseUs : PhaseMeans{};
    const std::vector<Metric> counts = {
        {"sim.events_per_ref", ratio(c.eventsDispatched, c.refs),
         "events/ref"},
        {"sim.host_ns_per_event", median(ns_per_event), "ns"},
        {"cache.miss_ratio", ratio(c.misses, c.refs), "ratio"},
        {"cache.ownership_misses", double(c.ownershipMisses), "count"},
        {"proto.misses", double(c.misses), "count"},
        {"proto.retries", double(c.retries), "count"},
        {"proto.write_backs", double(c.writeBacks), "count"},
        {"proto.upgrades", double(c.upgrades), "count"},
        {"monitor.words_serviced", double(c.wordsServiced), "count"},
        {"mem.bus_transactions", double(c.busTransactions), "count"},
        {"mem.bus_aborts", double(c.busAborts), "count"},
        {"mem.bus_utilization", c.busUtilization, "ratio"},
        {"mem.queue_delay_mean_ns", c.queueDelayMeanNs, "sim_ns"},
        {"hier.global_fetches_per_miss", ratio(c.globalFetches, c.misses),
         "ratio"},
        {"hier.global_bus_utilization", c.globalBusUtilization, "ratio"},
        {"obs.trace_overhead", median(overhead), "ratio"},
        {"obs.phase_trap_us", phases[0], "sim_us"},
        {"obs.phase_table_lookup_us", phases[1], "sim_us"},
        {"obs.phase_victim_writeback_us", phases[2], "sim_us"},
        {"obs.phase_block_copy_us", phases[3], "sim_us"},
        {"obs.phase_consistency_wait_us", phases[4], "sim_us"},
    };
    report.metrics.insert(report.metrics.end(), counts.begin(),
                          counts.end());
    return report;
}

Json
countsJson(const Counts &c)
{
    Json j = Json::object();
    j["refs"] = Json(c.refs);
    j["events_dispatched"] = Json(c.eventsDispatched);
    j["misses"] = Json(c.misses);
    j["ownership_misses"] = Json(c.ownershipMisses);
    j["retries"] = Json(c.retries);
    j["write_backs"] = Json(c.writeBacks);
    j["upgrades"] = Json(c.upgrades);
    j["words_serviced"] = Json(c.wordsServiced);
    j["bus_transactions"] = Json(c.busTransactions);
    j["bus_aborts"] = Json(c.busAborts);
    j["bus_utilization"] = Json(c.busUtilization);
    j["queue_delay_mean_ns"] = Json(c.queueDelayMeanNs);
    j["global_fetches"] = Json(c.globalFetches);
    j["global_bus_utilization"] = Json(c.globalBusUtilization);
    return j;
}

int
run(const Options &opts)
{
    vmp::setInformEnabled(false);
    Runner runner(opts, loadExpected(opts.expect, opts.workload));
    Report report = opts.trace ? perLayer(runner) : endToEnd(runner);
    runner.canary();
    runner.closeRoot();

    const std::uint64_t attempted = runner.attempted();
    const std::uint64_t failed = runner.failed();
    const double error_rate = ratio(failed, attempted);

    Json metrics = Json::object();
    for (const auto &m : report.metrics) {
        Json entry = Json::object();
        entry["value"] = Json(m.value);
        entry["unit"] = Json(m.unit);
        metrics[m.name] = std::move(entry);
    }

    const std::string stem = opts.workload + "-seed" +
        std::to_string(opts.seed) + "-trace" + (opts.trace ? "1" : "0");
    std::filesystem::create_directories(opts.out);
    Json record = Json::object();
    record["workload"] = Json(opts.workload);
    record["trace"] = Json(opts.trace);
    record["attempted"] = Json(attempted);
    record["failed"] = Json(failed);
    record["error_rate"] = Json(error_rate);
    record["host"] = report.host;
    record["metrics"] = metrics;
    if (report.first) {
        record["fingerprint"] = report.first->fingerprint.toJson();
        record["counts"] = countsJson(report.first->counts);
        record["trace_digest"] = Json(std::to_string(
            report.first->traceDigest));
    }
    const auto record_path =
        std::filesystem::path(opts.out) / (stem + ".json");
    std::ofstream(record_path) << record.dump(2) << "\n";
    if (opts.trace) {
        std::ofstream chrome(std::filesystem::path(opts.out) /
                             (stem + ".trace.json"));
        runner.spans().writeChromeTrace(chrome);
    }

    std::cout << "simbench " << opts.workload << " seed=" << opts.seed
              << " trace=" << opts.trace << "\n";
    std::cout << "  host: " << report.host.dump(0) << "\n";
    for (const auto &m : report.metrics)
        std::cout << "  " << m.name << " = "
                  << Json::numberToString(m.value) << " " << m.unit << "\n";
    std::cout << "  error_rate = " << Json::numberToString(error_rate)
              << " (" << failed << " of " << attempted
              << " operations failed)\n";
    std::cout << "  record: " << record_path.string() << "\n";

    Json result = Json::object();
    result["correct"] = Json(failed == 0);
    result["attempted"] = Json(attempted);
    result["failed"] = Json(failed);
    result["metrics"] = std::move(metrics);
    std::cout << result.dump(0) << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    try {
        opts = parseArgs(argc, argv);
    } catch (const UsageError &e) {
        std::cerr << "simbench: " << e.message << "\n" << kUsage << "\n";
        return 1;
    }
    try {
        return run(opts);
    } catch (const std::exception &e) {
        std::cerr << "simbench: " << e.what() << "\n";
        return 1;
    }
}
