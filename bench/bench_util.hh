/**
 * @file
 * Shared helpers for the benchmark binaries. Each bench regenerates one
 * table or figure from the paper and prints the same rows/series the
 * paper reports, alongside the paper's published values where they are
 * stated in the text — and additionally emits a machine-readable
 * BENCH_<name>.json artifact (see Artifact below) so the numbers can
 * be diffed across commits.
 */

#ifndef VMP_BENCH_BENCH_UTIL_HH
#define VMP_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "analytic/models.hh"
#include "core/fast_sim.hh"
#include "core/sweep.hh"
#include "core/system.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace vmp::bench
{

/** Schema identifier/version shared by every artifact. */
inline constexpr const char *kArtifactSchema = "vmp-bench-artifact";
/** v1.1 added the "meta" provenance section (git sha, compiler,
 *  sweep thread count). v1.2 added the failstop-recovery bench and
 *  its per-result "recovery" stat group (bench_recover: the recovery
 *  coordinator's and failure detector's counters, verbatim). v1.3
 *  added the observability bench (bench_obs) and the "obs" stat group
 *  (event-tracer ring and miss-profiler counters) emitted by any bench
 *  run with tracing armed. v1.4 added the closed-queuing (MVA) model
 *  overlay columns (mva_* metrics plus per-model "in_domain" flags),
 *  the "arbitration" config key, and the bus_upgrades metric. v1.5
 *  added the memory-tier bench (bench_memtier) with its "backing.tier"
 *  and "backing.budget" stat groups, the seed-sweep aggregate emitted
 *  by scripts/seed_sweep.py (mean/ci95 columns over --seed-base runs),
 *  and the checkpoint-enabled bench_recover point. v1.6 added the
 *  partial-failure bench (bench_partialfault: detection latency and
 *  fenced-mode survivor throughput across wedge/babble/fail-slow
 *  severities) and the fencing counters in the "recovery" stat group
 *  (boards_fenced / boards_unfenced, wedge/babble/slow suspicion and
 *  stuck-table escalation counters). v1.7 added the telemetry bench
 *  (bench_telemetry: streamed-vs-post-hoc trace equivalence, sink
 *  overhead, replay ownership probes) and the streaming-sink counters
 *  (stream_events / stream_dropped / stream_flushes /
 *  stream_gauge_samples) plus per-track overwritten_* counters in the
 *  "obs" stat group. */
inline constexpr double kArtifactSchemaVersion = 1.7;

/** Build-time git revision (configure-time snapshot; "unknown" when
 *  the build tree was configured outside a git checkout). */
#ifndef VMP_GIT_SHA
#define VMP_GIT_SHA "unknown"
#endif

/** Command-line options shared by every bench binary. */
struct BenchOptions
{
    /** Artifact path; defaults to BENCH_<name>.json in the CWD. */
    std::string jsonOut;
    /** Skip the artifact entirely (--no-json). */
    bool writeJson = true;
    /** Worker threads for parallel sweeps (--threads N; 0 = auto). */
    unsigned threads = 0;
    /** Base RNG seed for synthetic workloads (--seed-base N). */
    std::uint64_t seedBase = 1000;
    /** Bus arbitration discipline (--arbitration NAME). */
    mem::ArbitrationConfig arbitration{};
};

/** Report a bad command line for bench_@p bench_name and exit 1. */
[[noreturn]] inline void
usageError(const std::string &bench_name, const std::string &message)
{
    std::cerr << "bench_" << bench_name << ": " << message
              << " (see --help)\n";
    std::exit(1);
}

/**
 * Parse @p text as a whole decimal integer in [@p lo, @p hi], or exit 1
 * naming @p flag.
 */
inline std::uint64_t
parseFlagNumber(const std::string &bench_name, const std::string &flag,
                const std::string &text, std::uint64_t lo,
                std::uint64_t hi)
{
    const bool digits = !text.empty() &&
        std::all_of(text.begin(), text.end(),
                    [](char c) { return c >= '0' && c <= '9'; });
    errno = 0;
    const std::uint64_t value =
        digits ? std::strtoull(text.c_str(), nullptr, 10) : 0;
    if (!digits || errno == ERANGE || value < lo || value > hi)
        usageError(bench_name, flag + " wants an integer in " +
                                   std::to_string(lo) + ".." +
                                   std::to_string(hi) + ", got '" +
                                   text + "'");
    return value;
}

/**
 * Parse (and consume) the shared bench flags:
 *   --json-out PATH | --json-out=PATH   artifact destination
 *   --no-json                           suppress the artifact
 *   --threads N | --threads=N           sweep worker threads
 *   --seed-base N | --seed-base=N       synthetic-workload seed base
 *   --arbitration NAME                  bus arbitration discipline
 *                                       (fifo | priority | rr)
 *   --priority-levels N                 bus-request levels (priority)
 *   --help | -h                         print usage and exit
 * A missing or malformed value prints the problem to stderr and exits
 * 1. Unrecognized arguments are left in argv for the caller (no bench
 * consumes any); @p argc is adjusted accordingly.
 */
inline BenchOptions
parseBenchOptions(const std::string &bench_name, int &argc, char **argv)
{
    BenchOptions opts;
    opts.jsonOut = "BENCH_" + bench_name + ".json";
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto valueOf = [&](const std::string &flag,
                                 std::string &value) {
            if (arg == flag) {
                if (i + 1 >= argc)
                    usageError(bench_name, flag + " requires a value");
                value = argv[++i];
                return true;
            }
            if (arg.rfind(flag + "=", 0) == 0) {
                value = arg.substr(flag.size() + 1);
                return true;
            }
            return false;
        };
        std::string value;
        if (valueOf("--json-out", value)) {
            opts.jsonOut = value;
        } else if (arg == "--no-json") {
            opts.writeJson = false;
        } else if (valueOf("--threads", value)) {
            opts.threads = static_cast<unsigned>(parseFlagNumber(
                bench_name, "--threads", value, 0,
                std::numeric_limits<unsigned>::max()));
        } else if (valueOf("--seed-base", value)) {
            opts.seedBase = parseFlagNumber(
                bench_name, "--seed-base", value, 0,
                std::numeric_limits<std::uint64_t>::max());
        } else if (valueOf("--arbitration", value)) {
            try {
                opts.arbitration.discipline =
                    mem::arbitrationFromName(value);
            } catch (const FatalError &e) {
                usageError(bench_name, e.what());
            }
        } else if (valueOf("--priority-levels", value)) {
            opts.arbitration.priorityLevels =
                static_cast<unsigned>(parseFlagNumber(
                    bench_name, "--priority-levels", value, 1, 8));
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "bench_" << bench_name << " [options]\n"
                << "  --json-out PATH  artifact destination "
                   "(default BENCH_" << bench_name << ".json)\n"
                << "  --no-json        suppress the artifact\n"
                << "  --threads N      sweep worker threads (0=auto)\n"
                << "  --seed-base N    synthetic-workload seed base "
                   "(default 1000)\n"
                << "  --arbitration NAME  bus discipline: fifo | "
                   "priority | rr (default fifo)\n"
                << "  --priority-levels N bus-request levels "
                   "1..8 (priority; default 4)\n"
                << "  --help, -h       this message\n"
                << "Unrecognized arguments are ignored.\n";
            std::exit(0);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
    return opts;
}

/**
 * Machine-readable benchmark artifact, one per bench binary. The
 * deterministic sections ("bench", "results", "notes") are identical
 * across runs with the same seeds; the "host" section carries
 * volatile data (wall-clock, thread count) and should be excluded
 * when diffing artifacts across commits.
 *
 * Schema (version 1.1):
 *   {
 *     "schema": "vmp-bench-artifact",
 *     "schema_version": 1.1,
 *     "bench": "<name>",
 *     "meta": {
 *       "git_sha": "<12-hex or 'unknown'>",
 *       "compiler": "<__VERSION__ string>",
 *       "threads": 4
 *     },
 *     "results": [
 *       {"label": "...", "config": {...}, "metrics": {...}}, ...
 *     ],
 *     "notes": ["..."],
 *     "host": {"wall_clock_s": 1.23}
 *   }
 * Every metrics value is a number (or a histogram object as emitted
 * by StatRegistry); config values are numbers, strings or bools. The
 * "meta" section (new in v1.1) carries build/run provenance: the git
 * revision the binary was configured from, the compiler identification
 * string, and the resolved sweep worker-thread count. Like "host", it
 * should be excluded when diffing artifacts across commits.
 */
class Artifact
{
  public:
    Artifact(std::string bench_name, BenchOptions options)
        : bench_(std::move(bench_name)), opts_(std::move(options)),
          start_(std::chrono::steady_clock::now())
    {
        results_ = Json::array();
        notes_ = Json::array();
        host_ = Json::object();
        meta_ = Json::object();
        meta_["git_sha"] = Json(std::string(VMP_GIT_SHA));
        meta_["compiler"] = Json(std::string(__VERSION__));
        meta_["threads"] =
            Json(std::uint64_t{core::sweepThreads(opts_.threads)});
    }

    /**
     * Append one result row. @p config describes the swept
     * configuration, @p metrics the measured values.
     */
    void
    add(const std::string &label, Json config, Json metrics)
    {
        Json row = Json::object();
        row["label"] = Json(label);
        row["config"] = std::move(config);
        row["metrics"] = std::move(metrics);
        results_.push(std::move(row));
    }

    /** Attach a free-form provenance note. */
    void note(const std::string &text) { notes_.push(Json(text)); }

    /** Record a volatile host-side datum (excluded from diffs). */
    void
    hostInfo(const std::string &key, Json value)
    {
        host_[key] = std::move(value);
    }

    /** The full artifact document, including the volatile section. */
    Json
    toJson() const
    {
        Json doc = Json::object();
        doc["schema"] = Json(kArtifactSchema);
        doc["schema_version"] = Json(kArtifactSchemaVersion);
        doc["bench"] = Json(bench_);
        doc["meta"] = meta_;
        doc["results"] = results_;
        doc["notes"] = notes_;
        Json host = host_;
        const auto elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        host["wall_clock_s"] = Json(elapsed);
        doc["host"] = std::move(host);
        return doc;
    }

    /** Write the artifact (unless --no-json) and report the path. */
    void
    write() const
    {
        if (!opts_.writeJson)
            return;
        std::ofstream os(opts_.jsonOut);
        if (!os) {
            std::cerr << "bench_" << bench_
                      << ": cannot open artifact file " << opts_.jsonOut
                      << "\n";
            std::exit(1);
        }
        toJson().write(os, 2);
        os << '\n';
        std::cout << "[artifact] wrote " << opts_.jsonOut << "\n";
    }

    const BenchOptions &options() const { return opts_; }

  private:
    std::string bench_;
    BenchOptions opts_;
    std::chrono::steady_clock::time_point start_;
    Json results_;
    Json notes_;
    Json host_;
    Json meta_;
};

/** config sub-object for a Figure-4 style cache geometry. */
inline Json
cacheConfigJson(std::uint64_t cache_bytes, std::uint32_t page_bytes,
                std::uint32_t ways)
{
    Json j = Json::object();
    j["cache_bytes"] = Json(cache_bytes);
    j["page_bytes"] = Json(std::uint64_t{page_bytes});
    j["ways"] = Json(std::uint64_t{ways});
    return j;
}

/** metrics sub-object for one FastSimResult. */
inline Json
fastResultJson(const core::FastSimResult &result)
{
    Json j = Json::object();
    j["refs"] = Json(result.refs);
    j["misses"] = Json(result.misses);
    j["miss_ratio"] = Json(result.missRatio());
    j["supervisor_refs"] = Json(result.supervisorRefs);
    j["supervisor_misses"] = Json(result.supervisorMisses);
    return j;
}

/** metrics sub-object for one full-system RunResult. */
inline Json
runResultJson(const core::RunResult &result)
{
    Json j = Json::object();
    j["elapsed_us"] = Json(toUsec(result.elapsed));
    j["refs"] = Json(result.totalRefs);
    j["misses"] = Json(result.totalMisses);
    j["miss_ratio"] = Json(result.missRatio);
    j["performance"] = Json(result.performance);
    j["bus_utilization"] = Json(result.busUtilization);
    j["bus_aborts"] = Json(result.busAborts);
    j["write_backs"] = Json(result.writeBacks);
    j["bus_upgrades"] = Json(result.busUpgrades);
    return j;
}

/**
 * The measured bus-load shape of a run, ready to feed the MVA model.
 * Falls back to the paper's assumptions (no upgrades, 25% write-backs)
 * when the run took no misses.
 */
inline analytic::BusLoadProfile
loadProfileOf(const core::RunResult &result)
{
    analytic::BusLoadProfile load;
    load.missRatio = result.missRatio;
    if (result.totalMisses > 0) {
        // Clamp: bridge boards (and retried upgrades under heavy
        // contention) can push the bus-side counts past the
        // CPU-side miss count.
        load.upgradeFraction = std::min(
            1.0,
            static_cast<double>(result.busUpgrades) /
                static_cast<double>(result.totalMisses));
        load.writeBackRatio = std::min(
            1.0,
            static_cast<double>(result.writeBacks) /
                static_cast<double>(result.totalMisses));
    }
    return load;
}

/** Model-prediction columns for one bench row: prediction, relative
 *  error vs the measured value, and the domain flags. */
inline void
modelColumnsJson(Json &metrics, const std::string &prefix,
                 double predicted, double measured,
                 const analytic::ModelDomain &domain)
{
    metrics[prefix + "_performance"] = Json(predicted);
    metrics[prefix + "_error"] = Json(
        measured == 0.0 ? 0.0 : (predicted - measured) / measured);
    metrics[prefix + "_in_domain"] = Json(domain.inDomain());
    metrics[prefix + "_rho"] = Json(domain.rho);
}

/** Banner naming the artifact being regenerated. */
inline void
banner(const std::string &artifact, const std::string &description)
{
    std::cout << "\n=================================================="
                 "====\n"
              << artifact << " — " << description << "\n"
              << "VMP: Software-Controlled Caches (Cheriton, "
                 "Slavenburg, Boyle; ISCA 1986)\n"
              << "===================================================="
                 "==\n\n";
}

/** @p fraction as a percentage with one decimal, e.g. "77.2%". */
inline std::string
percent(double fraction)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f%%", fraction * 100);
    return buf;
}

/**
 * The one way a bench reports its acceptance gates. check() prints one
 * "[gate PASS] what" or "[gate FAIL] what" line and counts failures;
 * exitCode() prints the tally and is the bench's exit status: 0 when
 * every gate passed, 1 otherwise.
 */
class Gate
{
  public:
    /** Report one gate; returns @p pass. */
    bool
    check(bool pass, const std::string &what)
    {
        std::cout << (pass ? "[gate PASS] " : "[gate FAIL] ") << what
                  << "\n";
        ++checked_;
        if (!pass)
            ++failed_;
        return pass;
    }

    bool passed() const { return failed_ == 0; }

    /** Artifact note recording the overall verdict. */
    std::string
    verdict() const
    {
        return passed() ? "acceptance: PASS" : "acceptance: FAIL";
    }

    int
    exitCode() const
    {
        std::cout << "[gates] " << checked_ - failed_ << " of "
                  << checked_ << " passed\n";
        return passed() ? 0 : 1;
    }

  private:
    int checked_ = 0;
    int failed_ = 0;
};

/** Average Figure 4 style miss ratio over the four ATUM-like traces. */
inline core::FastSimResult
runFig4Point(std::uint64_t cache_bytes, std::uint32_t page_bytes,
             std::uint32_t ways = 4)
{
    const auto cells =
        core::fig4Cells({cache_bytes}, {page_bytes}, ways);
    const auto merged = core::mergeWorkloadGroups(
        core::runSweepSerial(cells), cells.size());
    return merged.front();
}

/**
 * A whole Figure-4 style {cache size x page size} grid, evaluated in
 * one parallel sweep (one worker task per {size, page, workload}
 * cell). Results are bitwise-identical to calling runFig4Point per
 * point, for any thread count.
 */
class Fig4Grid
{
  public:
    Fig4Grid(std::vector<std::uint64_t> cache_sizes,
             std::vector<std::uint32_t> page_sizes,
             std::uint32_t ways = 4, unsigned threads = 0)
        : sizes_(std::move(cache_sizes)), pages_(std::move(page_sizes))
    {
        const auto cells = core::fig4Cells(sizes_, pages_, ways);
        const std::size_t per_point = cells.size() /
            (sizes_.size() * pages_.size());
        core::SweepOptions options;
        options.threads = threads;
        points_ = core::mergeWorkloadGroups(
            core::runSweep(cells, options), per_point);
    }

    const core::FastSimResult &
    point(std::size_t size_index, std::size_t page_index) const
    {
        return points_.at(size_index * pages_.size() + page_index);
    }

    const std::vector<std::uint64_t> &sizes() const { return sizes_; }
    const std::vector<std::uint32_t> &pages() const { return pages_; }

  private:
    std::vector<std::uint64_t> sizes_;
    std::vector<std::uint32_t> pages_;
    std::vector<core::FastSimResult> points_;
};

/**
 * Run @p processors trace CPUs on a full event-driven system, each
 * executing @p refs_per_cpu references of the atum2 mix with distinct
 * seeds, and return the aggregate result.
 */
inline core::RunResult
runVmpSystem(std::uint32_t processors, std::uint64_t refs_per_cpu,
             const cache::CacheConfig &cache_cfg,
             std::uint64_t seed_base = 1000, bool share_kernel = false,
             Json *stats_out = nullptr,
             const mem::ArbitrationConfig &arbitration = {})
{
    core::VmpConfig cfg;
    cfg.processors = processors;
    cfg.cache = cache_cfg;
    cfg.memBytes = MiB(8);
    cfg.arbitration = arbitration;
    core::VmpSystem system(cfg);

    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<trace::RefSource *> sources;
    for (std::uint32_t i = 0; i < processors; ++i) {
        auto workload = trace::workloadConfig("atum2");
        workload.totalRefs = refs_per_cpu;
        workload.seed = seed_base + i;
        // Distinct ASIDs per processor; optionally a private kernel
        // image so only bus queueing (not data contention) is measured.
        workload.asidBase = static_cast<Asid>(1 + i * 8);
        if (!share_kernel)
            workload.kernelOffset = static_cast<Addr>(i) * 0x20'0000;
        gens.push_back(
            std::make_unique<trace::SyntheticGen>(workload));
        sources.push_back(gens.back().get());
    }
    const auto result = system.runTraces(sources);
    if (stats_out != nullptr)
        *stats_out = system.statsJson();
    return result;
}

} // namespace vmp::bench

#endif // VMP_BENCH_BENCH_UTIL_HH
