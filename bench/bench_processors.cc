/**
 * @file
 * Regenerates the Section 5.3 result: how many processors fit on one
 * bus. The paper's single-server queuing estimate ("up to 5 processors
 * on a single bus") is reproduced analytically and cross-checked by
 * running 1..32 processors on the event-driven simulator and measuring
 * per-processor performance and bus utilization directly.
 *
 * Two models are overlaid on the measured rows: the paper's open
 * M/M/1 estimate (valid only while the offered load stays under the
 * bus capacity — it is flagged saturated and excluded beyond that)
 * and the closed MVA model fed with the measured bus-load profile,
 * which stays in-domain through the 16/32-CPU saturated rows. The
 * bench exits non-zero if the MVA prediction misses a private-workload
 * row by more than 15%, or if a saturated open-model row is not
 * flagged as such.
 */

#include <cmath>
#include <iostream>
#include <sstream>

#include "analytic/models.hh"
#include "bench/bench_util.hh"
#include "sim/stats.hh"

int
main(int argc, char **argv)
{
    using namespace vmp;
    setInformEnabled(false);
    const auto opts = bench::parseBenchOptions("processors", argc,
                                               argv);
    bench::Artifact artifact("processors", opts);

    bench::banner("Section 5.3",
                  "Bus Utilization and Number of Processors");

    const analytic::QueuingModel model;
    const analytic::MvaModel mva(opts.arbitration.discipline,
                                 opts.arbitration.priorityLevels);
    const double m = 0.006; // the paper's ~10%-bus operating point

    TableWriter analytic_table(
        "Queuing models (256B pages, 0.6% miss ratio)");
    analytic_table.columns({"Processors", "Open per-CPU perf",
                            "MVA per-CPU perf", "System throughput",
                            "Offered bus load (%)", "Open in domain"});
    analytic::BusLoadProfile paper_load;
    paper_load.missRatio = m; // upgrade-free, 25% write-backs
    const double solo = model.perProcessorPerformance(256, m, 1);
    for (unsigned n = 1; n <= 10; ++n) {
        const auto open_p = model.predict(256, m, n);
        const auto mva_p = mva.predict(256, paper_load, n);
        analytic_table.row()
            .cell(std::uint64_t{n})
            .cell(open_p.perProcessorPerformance, 3)
            .cell(mva_p.perProcessorPerformance, 3)
            .cell(open_p.systemThroughput, 2)
            .cell(model.offeredLoad(256, m, n) * 100, 1)
            .cell(open_p.domain.inDomain() ? "yes" : "no");

        Json config = Json::object();
        config["processors"] = Json(std::uint64_t{n});
        config["page_bytes"] = Json(std::uint64_t{256});
        config["miss_ratio"] = Json(m);
        Json metrics = Json::object();
        metrics["per_cpu_performance"] =
            Json(open_p.perProcessorPerformance);
        metrics["relative_to_one_cpu"] =
            Json(open_p.perProcessorPerformance / solo);
        metrics["system_throughput"] = Json(open_p.systemThroughput);
        metrics["offered_bus_load"] =
            Json(model.offeredLoad(256, m, n));
        metrics["open_in_domain"] = Json(open_p.domain.inDomain());
        metrics["mva_performance"] =
            Json(mva_p.perProcessorPerformance);
        metrics["mva_bus_utilization"] = Json(mva_p.busUtilization);
        artifact.add("model/" + std::to_string(n),
                     std::move(config), std::move(metrics));
    }
    analytic_table.print(std::cout);

    std::cout << "Max processors before >10% per-CPU degradation: "
              << model.maxProcessors(256, m, 0.9)
              << " (paper estimates \"up to 5 processors\").\n\n";

    // Overlay: what the same processor count would sustain arranged as
    // a two-level hierarchy (4 CPUs per cluster — the bus-loading rule
    // with the inter-bus board occupying the fifth slot), for two
    // cluster-miss fractions g. See bench_hier for the simulated curve.
    const analytic::HierQueuingModel hier_model;
    TableWriter hier_table(
        "Hierarchical overlay (4 CPUs/cluster, 256B pages, "
        "0.6% miss ratio)");
    hier_table.columns({"CPUs", "Clusters", "g", "Flat throughput",
                        "Hier throughput", "Speedup"});
    for (const unsigned n : {4u, 8u, 16u, 32u}) {
        const unsigned k = n / 4;
        for (const double g : {0.05, 0.2}) {
            const double flat_tput = model.systemThroughput(256, m, n);
            const double hier_tput =
                hier_model.systemThroughput(256, m, g, k, 4);
            hier_table.row()
                .cell(std::uint64_t{n})
                .cell(std::uint64_t{k})
                .cell(g, 2)
                .cell(flat_tput, 2)
                .cell(hier_tput, 2)
                .cell(hier_tput / flat_tput, 2);

            Json config = Json::object();
            config["processors"] = Json(std::uint64_t{n});
            config["clusters"] = Json(std::uint64_t{k});
            config["page_bytes"] = Json(std::uint64_t{256});
            config["miss_ratio"] = Json(m);
            config["global_per_miss"] = Json(g);
            Json metrics = Json::object();
            metrics["flat_throughput"] = Json(flat_tput);
            metrics["hier_throughput"] = Json(hier_tput);
            metrics["speedup"] = Json(hier_tput / flat_tput);
            metrics["hier_per_cpu_performance"] = Json(
                hier_model.perProcessorPerformance(256, m, g, k, 4));
            metrics["global_utilization"] = Json(
                hier_model.globalUtilization(256, m, g, k, 4));
            std::ostringstream label;
            label << "model_hier/" << n << "/g" << g;
            artifact.add(label.str(), std::move(config),
                         std::move(metrics));
        }
    }
    hier_table.print(std::cout);

    // Event-driven cross-check, first with fully private workloads
    // (pure bus queueing — the regime the models describe), then with
    // a shared kernel image (adds the consistency contention the
    // models deliberately exclude: "providing data contention is not
    // excessive"). Private workloads run through the 16/32-CPU rows
    // that saturate the bus: the open estimate leaves its domain there
    // while the measured-profile MVA prediction must stay within 15%.
    bench::Gate gate;
    for (const bool share_kernel : {false, true}) {
        TableWriter measured(
            std::string("Event-simulator measurement (64K caches, "
                        "256B pages, ") +
            (share_kernel ? "SHARED kernel image)"
                          : "private workloads)"));
        measured.columns({"Processors", "Mean per-CPU perf",
                          "MVA perf", "MVA err (%)", "Open err (%)",
                          "Open domain", "Bus util (%)"});
        const std::vector<unsigned> counts = share_kernel
            ? std::vector<unsigned>{1, 2, 4, 8}
            : std::vector<unsigned>{1, 2, 4, 8, 16, 32};
        double measured_solo = 0.0;
        for (const unsigned n : counts) {
            const auto cfg =
                cache::CacheConfig::forSize(KiB(64), 256, 4, true);
            const auto result = bench::runVmpSystem(
                n, 60'000, cfg, opts.seedBase, share_kernel, nullptr,
                opts.arbitration);
            if (n == 1)
                measured_solo = result.performance;

            const auto load = bench::loadProfileOf(result);
            const auto mva_p = mva.predict(256, load, n);
            const auto open_p =
                model.predict(256, result.missRatio, n);
            const double mva_err = result.performance == 0.0
                ? 0.0
                : (mva_p.perProcessorPerformance -
                   result.performance) /
                    result.performance;
            const double open_err = result.performance == 0.0
                ? 0.0
                : (open_p.perProcessorPerformance -
                   result.performance) /
                    result.performance;
            measured.row()
                .cell(std::uint64_t{n})
                .cell(result.performance, 3)
                .cell(mva_p.perProcessorPerformance, 3)
                .cell(mva_err * 100, 1)
                .cell(open_err * 100, 1)
                .cell(open_p.domain.inDomain() ? "in" : "saturated")
                .cell(result.busUtilization * 100, 1);

            Json config = bench::cacheConfigJson(KiB(64), 256, 4);
            config["processors"] = Json(std::uint64_t{n});
            config["share_kernel"] = Json(share_kernel);
            config["arbitration"] = Json(std::string(
                mem::arbitrationName(opts.arbitration.discipline)));
            Json metrics = bench::runResultJson(result);
            metrics["relative_to_one_cpu"] =
                Json(result.performance / measured_solo);
            bench::modelColumnsJson(metrics, "mva",
                                    mva_p.perProcessorPerformance,
                                    result.performance, mva_p.domain);
            bench::modelColumnsJson(metrics, "open",
                                    open_p.perProcessorPerformance,
                                    result.performance, open_p.domain);
            artifact.add(std::string("measured/") +
                             (share_kernel ? "shared/" : "private/") +
                             std::to_string(n),
                         std::move(config), std::move(metrics));

            // Acceptance gate (private workloads only): the MVA
            // prediction must be in-domain and within 15% everywhere,
            // and the 16/32-CPU rows that broke the open model must
            // carry its saturated flag.
            if (!share_kernel) {
                const std::string at = " at n=" + std::to_string(n);
                gate.check(mva_p.domain.inDomain() &&
                               std::abs(mva_err) <= 0.15,
                           "MVA in domain and within 15%" + at + " (" +
                               bench::percent(mva_err) + ")");
                if (n >= 16)
                    gate.check(open_p.domain.saturated,
                               "open model flagged saturated" + at);
            }
        }
        measured.print(std::cout);
    }

    artifact.note("Section 5.3: queuing models vs event-driven "
                  "measurement, private workloads (1..32 CPUs) and "
                  "shared kernel image (60k refs/cpu)");
    artifact.note("mva_* columns: closed MVA model fed with each "
                  "row's measured load profile (miss ratio, upgrade "
                  "fraction, write-back ratio); open_* columns: the "
                  "paper's open M/M/1 estimate with its "
                  "offered-load domain flag");
    artifact.note("model_hier rows overlay the flat-bus curve with the "
                  "two-level HierQueuingModel prediction (4 CPUs per "
                  "cluster) at cluster-miss fractions g = 0.05, 0.2");
    artifact.write();
    return gate.exitCode();
}
