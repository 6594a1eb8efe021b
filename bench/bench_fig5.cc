/**
 * @file
 * Regenerates Figure 5: "Bus Utilization to Cache Miss Ratio" —
 * single-processor bus utilization as a function of the miss ratio for
 * the three page sizes, using the Table 2 average bus cost per miss.
 * Measured bus-utilization points from the event-driven simulator are
 * printed alongside — each with the closed MVA model's utilization
 * prediction fed from the row's measured load profile — and a
 * BENCH_fig5.json artifact is written. The bench exits non-zero if an
 * MVA utilization prediction drifts more than 15% from measurement.
 */

#include <cmath>
#include <iostream>

#include "analytic/models.hh"
#include "bench/bench_util.hh"
#include "sim/stats.hh"

int
main(int argc, char **argv)
{
    using namespace vmp;
    setInformEnabled(false);
    const auto opts = bench::parseBenchOptions("fig5", argc, argv);
    bench::Artifact artifact("fig5", opts);

    bench::banner("Figure 5",
                  "Bus Utilization vs Cache Miss Ratio (one CPU)");

    const analytic::BusModel model;

    TableWriter table("Figure 5 series: bus utilization (%)");
    table.columns({"Miss ratio (%)", "128B pages", "256B pages",
                   "512B pages"});
    for (double pct = 0.0; pct <= 2.001; pct += 0.2) {
        const double m = pct / 100.0;
        table.row()
            .cell(pct, 1)
            .cell(model.utilization(128, m) * 100, 2)
            .cell(model.utilization(256, m) * 100, 2)
            .cell(model.utilization(512, m) * 100, 2);
        for (const std::uint32_t page : {128u, 256u, 512u}) {
            Json config = Json::object();
            config["page_bytes"] = Json(std::uint64_t{page});
            config["miss_ratio"] = Json(m);
            Json metrics = Json::object();
            metrics["bus_utilization_model"] =
                Json(model.utilization(page, m));
            char label[48];
            std::snprintf(label, sizeof(label), "model/%uB/m=%.3f",
                          page, m);
            artifact.add(label, std::move(config),
                         std::move(metrics));
        }
    }
    table.print(std::cout);
    std::cout << "Paper anchor: 256B pages, miss ratio under 0.6% -> "
                 "bus utilization under 10%;\nmodel gives "
              << model.utilization(256, 0.006) * 100 << "%.\n\n";

    const analytic::MvaModel mva(opts.arbitration.discipline,
                                 opts.arbitration.priorityLevels);
    bench::Gate gate;
    TableWriter validation(
        "Event-simulator validation (256B pages, atum2 mix)");
    validation.columns({"Cache", "Measured miss %", "Measured bus %",
                        "Model bus % at that miss ratio",
                        "MVA bus % (measured profile)"});
    for (const std::uint64_t size : {KiB(32), KiB(64), KiB(128)}) {
        const auto cfg =
            cache::CacheConfig::forSize(size, 256, 4, true);
        Json stats;
        const auto result = bench::runVmpSystem(
            1, 120'000, cfg, opts.seedBase, false, &stats,
            opts.arbitration);
        const auto load = bench::loadProfileOf(result);
        const auto mva_p = mva.predict(256, load, 1);
        validation.row()
            .cell(std::to_string(size / 1024) + "K")
            .cell(result.missRatio * 100, 3)
            .cell(result.busUtilization * 100, 2)
            .cell(model.utilization(256, result.missRatio) * 100, 2)
            .cell(mva_p.busUtilization * 100, 2);
        Json metrics = bench::runResultJson(result);
        metrics["bus_utilization_model"] =
            Json(model.utilization(256, result.missRatio));
        metrics["mva_bus_utilization"] = Json(mva_p.busUtilization);
        metrics["mva_in_domain"] = Json(mva_p.domain.inDomain());
        metrics["stats"] = std::move(stats);
        Json config = bench::cacheConfigJson(size, 256, 4);
        config["arbitration"] = Json(std::string(
            mem::arbitrationName(opts.arbitration.discipline)));
        artifact.add("measured/" + std::to_string(size / 1024) + "K",
                     std::move(config), std::move(metrics));
        const double err = result.busUtilization == 0.0
            ? 0.0
            : (mva_p.busUtilization - result.busUtilization) /
                result.busUtilization;
        gate.check(mva_p.domain.inDomain() && std::abs(err) <= 0.15,
                   "MVA bus utilization in domain and within 15% at " +
                       std::to_string(size / 1024) + "K (" +
                       bench::percent(err) + ")");
    }
    validation.print(std::cout);

    artifact.note("bus utilization per Table 2 average miss cost; "
                  "measured points from the event-driven simulator "
                  "(atum2, 120k refs)");
    artifact.note("mva_bus_utilization: closed MVA model fed with the "
                  "row's measured load profile (upgrade-aware service "
                  "demand); at one CPU with the paper profile it "
                  "coincides with the Figure 5 curve");
    artifact.write();
    return gate.exitCode();
}
