/**
 * @file
 * Graceful-degradation curve under injected faults. The paper's
 * robustness argument (Sections 3.2/3.3) is qualitative: software
 * recovers from aborted transactions, dropped interrupt words and
 * overflowed FIFOs by retrying with desynchronizing delays. This
 * bench makes it quantitative: sweep the spurious-abort rate (and,
 * secondarily, the interrupt-drop rate) over a fixed multiprocessor
 * trace run, with the coherence checker armed at every point, and
 * report throughput (refs per simulated second) and mean miss latency
 * versus fault rate.
 *
 * Acceptance (encoded in the exit status):
 *   - zero coherence violations and zero watchdog trips everywhere;
 *   - no abort rate beats the fault-free throughput by more than 5%
 *     (low rates are inside seed noise) and the highest swept rate
 *     clearly degrades (below 98% of fault-free);
 *   - at a 1% spurious-abort rate the machine retains at least 50%
 *     of its fault-free throughput.
 */

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "check/coherence_checker.hh"
#include "core/system.hh"
#include "fault/injector.hh"
#include "sim/stats.hh"
#include "trace/synthetic.hh"
#include "trace/workloads.hh"

namespace
{

using namespace vmp;

constexpr std::uint32_t kCpus = 4;
constexpr std::uint64_t kRefsPerCpu = 30'000;

/** Seed base every workload/injector seed derives from (--seed-base;
 *  set in main). scripts/seed_sweep.py sweeps this to put confidence
 *  intervals on the curves. */
std::uint64_t gSeedBase = 1000;

/** One measured point of the degradation curve. */
struct Point
{
    double faultRate = 0.0;
    core::RunResult run;
    double refsPerSimSec = 0.0;
    double meanMissLatencyNs = 0.0;
    std::uint64_t retries = 0;
    std::uint64_t injected = 0;
    std::uint64_t violations = 0;
    std::uint64_t watchdogTrips = 0;
};

Point
runPoint(fault::FaultKind kind, double rate, std::uint64_t seed)
{
    core::VmpConfig cfg;
    cfg.processors = kCpus;
    // Small caches against the prototype default keep the miss (and
    // therefore consistency-transaction) rate high enough that the
    // fault hooks see real traffic in a short run.
    cfg.cache = cache::CacheConfig{256, 2, 64, true};
    cfg.memBytes = MiB(2);
    core::VmpSystem system(cfg);

    fault::FaultSchedule schedule;
    schedule.seed = seed;
    if (rate > 0.0) {
        switch (kind) {
          case fault::FaultKind::BusAbort:
            schedule.busAborts(rate);
            break;
          case fault::FaultKind::FifoDrop:
            schedule.fifoDrops(rate);
            break;
          default:
            fatal("bench_fault: unsupported sweep kind");
        }
    }
    auto &injector = system.enableFaultInjection(schedule);
    auto &checker = system.enableCoherenceCheckers();
    system.setWatchdog(1'000); // default warn-only handler

    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    std::vector<trace::RefSource *> sources;
    for (std::uint32_t i = 0; i < kCpus; ++i) {
        auto workload = trace::workloadConfig("atum3");
        workload.totalRefs = kRefsPerCpu;
        workload.seed = gSeedBase * 7 + i;
        gens.push_back(
            std::make_unique<trace::SyntheticGen>(workload));
        sources.push_back(gens.back().get());
    }

    Point point;
    point.faultRate = rate;
    point.run = system.runTraces(sources);

    Tick stall = 0;
    for (std::uint32_t cpu = 0; cpu < kCpus; ++cpu) {
        const auto &ctl = system.controller(cpu);
        stall += ctl.missStallTicks();
        point.retries += ctl.retries().value();
        point.watchdogTrips += ctl.watchdogTrips().value();
    }
    point.refsPerSimSec = point.run.elapsed == 0
        ? 0.0
        : static_cast<double>(point.run.totalRefs) /
            (static_cast<double>(point.run.elapsed) * 1e-9);
    point.meanMissLatencyNs = point.run.totalMisses == 0
        ? 0.0
        : static_cast<double>(stall) /
            static_cast<double>(point.run.totalMisses);
    point.injected = injector.totalInjected();

    // Quiesce (idle-processor service) so the full sweep is legal.
    system.quiesce();
    checker.checkFull();
    point.violations = checker.violations().value();
    return point;
}

/**
 * Average one curve point over several injector seeds: the fault
 * *pattern* is seed noise, the fault *rate* is the signal. Counters
 * are summed; rates and latencies are averaged.
 */
Point
runAveragedPoint(fault::FaultKind kind, double rate)
{
    constexpr std::uint64_t kSeeds = 3;
    Point mean;
    mean.faultRate = rate;
    for (std::uint64_t s = 0; s < kSeeds; ++s) {
        const Point p = runPoint(kind, rate, gSeedBase + s);
        mean.run = p.run; // representative (last seed) run summary
        mean.refsPerSimSec += p.refsPerSimSec / kSeeds;
        mean.meanMissLatencyNs += p.meanMissLatencyNs / kSeeds;
        mean.retries += p.retries;
        mean.injected += p.injected;
        mean.violations += p.violations;
        mean.watchdogTrips += p.watchdogTrips;
    }
    return mean;
}

Json
pointMetrics(const Point &point)
{
    Json metrics = bench::runResultJson(point.run);
    metrics["refs_per_sim_s"] = Json(point.refsPerSimSec);
    metrics["mean_miss_latency_ns"] = Json(point.meanMissLatencyNs);
    metrics["retries"] = Json(point.retries);
    metrics["faults_injected"] = Json(point.injected);
    metrics["violations"] = Json(point.violations);
    metrics["watchdog_trips"] = Json(point.watchdogTrips);
    return metrics;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vmp;
    const auto opts = bench::parseBenchOptions("fault", argc, argv);
    gSeedBase = opts.seedBase;
    bench::Artifact artifact("fault", opts);

    bench::banner("Robustness",
                  "graceful degradation under injected faults "
                  "(4 CPUs, atum3, checker armed)");

    const std::vector<double> abortRates{0.0,  0.0025, 0.01, 0.05,
                                         0.1,  0.2};
    const std::vector<double> dropRates{0.01, 0.05};

    TableWriter table("Degradation vs spurious-abort rate");
    table.columns({"Fault", "Rate %", "refs/sim-s", "Miss lat ns",
                   "Retries", "Injected", "Violations"});

    std::vector<Point> curve;
    for (const double rate : abortRates) {
        const Point point =
            runAveragedPoint(fault::FaultKind::BusAbort, rate);
        curve.push_back(point);
        table.row()
            .cell(rate == 0.0 ? "none" : "bus-abort")
            .cell(rate * 100, 2)
            .cell(point.refsPerSimSec, 0)
            .cell(point.meanMissLatencyNs, 0)
            .cell(point.retries)
            .cell(point.injected)
            .cell(point.violations);

        Json config = Json::object();
        config["fault"] = Json("bus-abort");
        config["rate"] = Json(rate);
        config["processors"] = Json(std::uint64_t{kCpus});
        config["refs_per_cpu"] = Json(kRefsPerCpu);
        std::ostringstream label;
        label << "abort/" << rate;
        artifact.add(label.str(), std::move(config),
                     pointMetrics(point));
    }
    for (const double rate : dropRates) {
        const Point point =
            runAveragedPoint(fault::FaultKind::FifoDrop, rate);
        table.row()
            .cell("fifo-drop")
            .cell(rate * 100, 2)
            .cell(point.refsPerSimSec, 0)
            .cell(point.meanMissLatencyNs, 0)
            .cell(point.retries)
            .cell(point.injected)
            .cell(point.violations);

        Json config = Json::object();
        config["fault"] = Json("fifo-drop");
        config["rate"] = Json(rate);
        config["processors"] = Json(std::uint64_t{kCpus});
        config["refs_per_cpu"] = Json(kRefsPerCpu);
        std::ostringstream label;
        label << "drop/" << rate;
        artifact.add(label.str(), std::move(config),
                     pointMetrics(point));
        curve.push_back(point);
    }
    table.print(std::cout);

    // ------------------------------------------------- acceptance
    bench::Gate gate;
    for (const Point &point : curve) {
        const std::string at =
            " at rate " + std::to_string(point.faultRate);
        gate.check(point.violations == 0, "zero coherence violations" + at);
        gate.check(point.watchdogTrips == 0, "watchdog never tripped" + at);
    }
    // Degradation over the abort sweep, robust to seed choice: at low
    // rates the signal is smaller than seed noise (about 3% on this
    // workload), so instead of pairwise monotonicity require that no
    // point beats the fault-free baseline by more than 5% and that
    // the highest rate clearly degrades.
    for (std::size_t i = 1; i < abortRates.size(); ++i) {
        gate.check(curve[i].refsPerSimSec <=
                       curve.front().refsPerSimSec * 1.05,
                   "throughput at most 5% above fault-free at abort "
                   "rate " + std::to_string(abortRates[i]));
    }
    gate.check(curve.back().refsPerSimSec <=
                   curve.front().refsPerSimSec * 0.98,
               "visible degradation at abort rate " +
                   std::to_string(abortRates.back()));
    const double baseline = curve.front().refsPerSimSec;
    double at1pct = 0.0;
    for (std::size_t i = 0; i < abortRates.size(); ++i) {
        if (abortRates[i] == 0.01)
            at1pct = curve[i].refsPerSimSec;
    }
    if (gate.check(baseline > 0.0, "fault-free throughput is nonzero")) {
        gate.check(at1pct >= 0.5 * baseline,
                   "throughput at 1% aborts >= 50% of fault-free (" +
                       bench::percent(at1pct / baseline) + ")");
    }

    artifact.note("acceptance: zero violations, monotone degradation, "
                  ">=50% fault-free throughput at 1% aborts");
    artifact.note(gate.verdict());
    artifact.write();
    return gate.exitCode();
}
