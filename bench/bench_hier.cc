/**
 * @file
 * Scaling curve for the two-level bus hierarchy (src/hier): flat
 * single-VMEbus configurations vs 2/4/8-cluster hierarchies at 4-32
 * processors, on partitioned (per-processor address spaces; pure bus
 * queueing) and shared (one machine-wide kernel image; heavy
 * cross-cluster data contention) workloads. Every simulated point is
 * cross-checked against the matching analytic queueing estimate:
 * QueuingModel for the flat cells, HierQueuingModel (two-level M/M/1)
 * for the hierarchical cells, each fed the miss ratio m and global
 * fraction g measured from that very run.
 *
 * The cells fan out through core::parallelMap — the same worker-pool
 * driver behind the Figure-4 sweeps — so --threads N applies here too.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analytic/models.hh"
#include "bench/bench_util.hh"
#include "core/hier_system.hh"
#include "sim/stats.hh"

namespace
{

using namespace vmp;

/** One point of the scaling curve. */
struct Cell
{
    /** Total processors. */
    std::uint32_t cpus;
    /** 0 = flat single bus; otherwise cluster count. */
    std::uint32_t clusters;
    /** Machine-wide shared kernel image vs per-CPU partitions. */
    bool shared;

    std::string
    topology() const
    {
        if (clusters == 0)
            return "flat" + std::to_string(cpus);
        return std::to_string(clusters) + "x" +
            std::to_string(cpus / clusters);
    }

    std::string
    label() const
    {
        return std::string(shared ? "shared/" : "partitioned/") +
            topology();
    }
};

/** Everything the tables, artifact and acceptance summary need. */
struct CellResult
{
    double missRatio = 0.0;
    /** Global fetches per local miss (hier cells only). */
    double g = 0.0;
    double refsPerSec = 0.0;
    double busUtilization = 0.0;
    double meanLocalUtilization = 0.0;
    double modelRefsPerSec = 0.0;
    /** (model - sim) / sim; only meaningful when modelValid. */
    double deviation = 0.0;
    /** False when the run left the model's domain: g > 1, or the
     *  inter-bus boards spent real time on cross-cluster consistency
     *  work (invalidates/downgrades/recalls) — the data contention the
     *  load-based model deliberately excludes. */
    bool modelValid = true;
    /** Closed (MVA) model overlay, fed the run's measured load
     *  profile: QueuingModel's MVA sibling for flat cells,
     *  HierQueuingModel::predictMva for hierarchical ones. */
    double mvaRefsPerSec = 0.0;
    double mvaDeviation = 0.0;
    /** MVA shares the data-contention exclusion, not the saturation
     *  one: saturated-but-contention-free rows stay in-domain. */
    bool mvaValid = true;
    /** predictMva flagged a retry cascade: CPU retry loops quantize
     *  against a long IBC busy period, so the mean-value loop count
     *  undershoots and the cell is out of the closed model's domain. */
    bool mvaCascade = false;
    /** Predicted CPU retry loops per global miss (hier cells). */
    double mvaLoops = 0.0;
    /** The open estimate's offered load reached bus capacity. */
    bool openSaturated = false;
    std::uint64_t refs = 0;
    std::uint64_t misses = 0;
    std::uint64_t globalFetches = 0;
    /** Cross-cluster invalidates + downgrades + recalls. */
    std::uint64_t consistencyActions = 0;
};

constexpr std::uint32_t kPageBytes = 256;
constexpr std::uint64_t kCacheBytes = KiB(16);
constexpr std::uint64_t kPartitionedRefs = 120'000;
constexpr std::uint64_t kSharedRefs = 30'000;

std::vector<std::unique_ptr<trace::SyntheticGen>>
makeWorkloads(std::uint32_t cpus, std::uint64_t refs_per_cpu,
              bool shared)
{
    std::vector<std::unique_ptr<trace::SyntheticGen>> gens;
    for (std::uint32_t i = 0; i < cpus; ++i) {
        auto workload = trace::workloadConfig("atum2");
        workload.totalRefs = refs_per_cpu;
        workload.seed = 1000 + i;
        workload.asidBase = static_cast<Asid>(1 + i * 8);
        if (!shared)
            workload.kernelOffset = static_cast<Addr>(i) * 0x20'0000;
        gens.push_back(std::make_unique<trace::SyntheticGen>(workload));
    }
    return gens;
}

CellResult
runCell(const Cell &cell, const mem::ArbitrationConfig &arbitration)
{
    const auto cache_cfg = cache::CacheConfig::forSize(
        kCacheBytes, kPageBytes, 4, true);
    const std::uint64_t refs_per_cpu =
        cell.shared ? kSharedRefs : kPartitionedRefs;
    const std::uint64_t mem_bytes = MiB(4) * cell.cpus;
    const double full_rps = cpu::mips() * cpu::kRefsPerInstr * 1e6;

    auto gens = makeWorkloads(cell.cpus, refs_per_cpu, cell.shared);
    std::vector<trace::RefSource *> sources;
    for (auto &gen : gens)
        sources.push_back(gen.get());

    CellResult out;
    if (cell.clusters == 0) {
        core::VmpConfig cfg;
        cfg.processors = cell.cpus;
        cfg.cache = cache_cfg;
        cfg.memBytes = mem_bytes;
        cfg.arbitration = arbitration;
        core::VmpSystem system(cfg);
        const auto result = system.runTraces(sources);
        out.missRatio = result.missRatio;
        out.refsPerSec = result.elapsed == 0
            ? 0.0
            : static_cast<double>(result.totalRefs) /
                (static_cast<double>(result.elapsed) * 1e-9);
        out.busUtilization = result.busUtilization;
        out.refs = result.totalRefs;
        out.misses = result.totalMisses;
        const analytic::QueuingModel model;
        const auto open_p =
            model.predict(kPageBytes, out.missRatio, cell.cpus);
        out.modelRefsPerSec = open_p.systemThroughput * full_rps;
        out.openSaturated = open_p.domain.saturated;
        const analytic::MvaModel mva;
        const auto mva_p = mva.predict(
            kPageBytes, bench::loadProfileOf(result), cell.cpus);
        out.mvaRefsPerSec = mva_p.systemThroughput * full_rps;
        // A machine-wide shared kernel on one bus is ownership
        // ping-pong — the data contention both load models exclude.
        out.mvaValid = !cell.shared && mva_p.domain.inDomain();
    } else {
        core::HierConfig cfg;
        cfg.clusters = cell.clusters;
        cfg.cpusPerCluster = cell.cpus / cell.clusters;
        cfg.cache = cache_cfg;
        cfg.memBytes = mem_bytes;
        cfg.arbitration = arbitration;
        core::HierVmpSystem system(cfg);
        const auto result = system.runTraces(sources);
        out.missRatio = result.missRatio;
        out.refsPerSec = result.refsPerSec;
        out.busUtilization = result.busUtilization;
        out.meanLocalUtilization = result.meanLocalBusUtilization;
        out.refs = result.totalRefs;
        out.misses = result.totalMisses;
        out.globalFetches = result.globalFetches;
        out.g = result.totalMisses == 0
            ? 0.0
            : static_cast<double>(result.globalFetches) /
                static_cast<double>(result.totalMisses);
        for (std::uint32_t k = 0; k < cell.clusters; ++k) {
            const auto &ibc = *system.cluster(k).bridge;
            out.consistencyActions += ibc.invalidates().value() +
                ibc.downgrades().value() + ibc.recalls().value();
        }
        // Cross-cluster ownership migration (invalidates, downgrades,
        // recalls, g > 1 re-fetch storms) is data contention, which the
        // load-based model deliberately excludes ("providing data
        // contention is not excessive"). Flag such runs as outside the
        // model's domain; 2% of misses is noise-level.
        out.modelValid = out.g <= 1.0 &&
            (out.misses == 0 ||
             static_cast<double>(out.consistencyActions) <
                 0.02 * static_cast<double>(out.misses));
        const analytic::HierQueuingModel model;
        out.modelRefsPerSec = model.refsPerSecond(
            kPageBytes, out.missRatio, std::min(out.g, 1.0),
            cell.clusters, cfg.cpusPerCluster);
        out.openSaturated =
            model.predict(kPageBytes, out.missRatio,
                          std::min(out.g, 1.0), cell.clusters,
                          cfg.cpusPerCluster)
                .domain.saturated;
        const auto mva_p = model.predictMva(
            kPageBytes, bench::loadProfileOf(result),
            std::min(out.g, 1.0), cell.clusters, cfg.cpusPerCluster);
        out.mvaRefsPerSec = mva_p.refsPerSecond;
        out.mvaCascade = mva_p.retryCascade;
        out.mvaLoops = mva_p.loopsPerGlobalMiss;
        out.mvaValid = out.modelValid && mva_p.domain.inDomain() &&
            !mva_p.retryCascade;
    }
    out.deviation = out.refsPerSec == 0.0
        ? 0.0
        : (out.modelRefsPerSec - out.refsPerSec) / out.refsPerSec;
    out.mvaDeviation = out.refsPerSec == 0.0
        ? 0.0
        : (out.mvaRefsPerSec - out.refsPerSec) / out.refsPerSec;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vmp;
    setInformEnabled(false);
    const auto opts = bench::parseBenchOptions("hier", argc, argv);
    bench::Artifact artifact("hier", opts);

    bench::banner("Hierarchy scaling",
                  "flat single bus vs 2/4/8-cluster two-level "
                  "hierarchy, 4-32 CPUs");

    // Every {cpu count x topology} whose cluster shape respects the
    // paper's bus-loading rule: a VMEbus carries ~5 boards, and each
    // cluster bus already hosts the inter-bus cache board, so cap the
    // processor boards per cluster at 4. Both workload series.
    std::vector<Cell> cells;
    for (const bool shared : {false, true}) {
        for (const std::uint32_t cpus : {4u, 8u, 16u, 32u}) {
            cells.push_back({cpus, 0, shared});
            for (const std::uint32_t k : {2u, 4u, 8u}) {
                if (cpus % k != 0 || cpus / k > 4)
                    continue;
                cells.push_back({cpus, k, shared});
            }
        }
    }

    core::SweepOptions sweep_opts;
    sweep_opts.threads = opts.threads;
    const auto results = core::parallelMap(
        cells.size(),
        [&](std::size_t i) {
            return runCell(cells[i], opts.arbitration);
        },
        sweep_opts);

    for (const bool shared : {false, true}) {
        TableWriter table(
            std::string(shared ? "Shared kernel image ("
                               : "Partitioned workloads (") +
            (shared ? std::to_string(kSharedRefs)
                    : std::to_string(kPartitionedRefs)) +
            " refs/cpu, 16K caches, 256B pages)");
        table.columns({"CPUs", "Topology", "Miss %", "g", "Bus util %",
                       "Refs/s (sim)", "Refs/s (open)", "Open dev %",
                       "Refs/s (MVA)", "MVA dev %"});
        for (std::size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].shared != shared)
                continue;
            const auto &r = results[i];
            char dev[32];
            std::snprintf(dev, sizeof(dev), "%.1f", r.deviation * 100);
            char mva_dev[32];
            std::snprintf(mva_dev, sizeof(mva_dev), "%.1f",
                          r.mvaDeviation * 100);
            const char *open_col = !r.modelValid ? "n/a (contention)"
                : r.openSaturated              ? "n/a (saturated)"
                                               : dev;
            table.row()
                .cell(std::uint64_t{cells[i].cpus})
                .cell(cells[i].topology())
                .cell(r.missRatio * 100, 2)
                .cell(r.g, 3)
                .cell(r.busUtilization * 100, 1)
                .cell(r.refsPerSec, 0)
                .cell(r.modelRefsPerSec, 0)
                .cell(open_col)
                .cell(r.mvaRefsPerSec, 0)
                .cell(r.mvaValid      ? mva_dev
                      : r.mvaCascade ? "n/a (retry cascade)"
                                     : "n/a (contention)");

            Json config = bench::cacheConfigJson(kCacheBytes,
                                                 kPageBytes, 4);
            config["processors"] = Json(std::uint64_t{cells[i].cpus});
            config["clusters"] =
                Json(std::uint64_t{cells[i].clusters});
            config["shared_kernel"] = Json(cells[i].shared);
            config["arbitration"] = Json(std::string(
                mem::arbitrationName(opts.arbitration.discipline)));
            config["refs_per_cpu"] = Json(
                cells[i].shared ? kSharedRefs : kPartitionedRefs);
            Json metrics = Json::object();
            metrics["miss_ratio"] = Json(r.missRatio);
            metrics["global_per_miss"] = Json(r.g);
            metrics["bus_utilization"] = Json(r.busUtilization);
            metrics["mean_local_utilization"] =
                Json(r.meanLocalUtilization);
            metrics["refs_per_sec"] = Json(r.refsPerSec);
            metrics["model_refs_per_sec"] = Json(r.modelRefsPerSec);
            metrics["model_deviation"] = Json(r.deviation);
            metrics["model_valid"] = Json(r.modelValid);
            metrics["open_saturated"] = Json(r.openSaturated);
            metrics["mva_refs_per_sec"] = Json(r.mvaRefsPerSec);
            metrics["mva_deviation"] = Json(r.mvaDeviation);
            metrics["mva_valid"] = Json(r.mvaValid);
            metrics["mva_retry_cascade"] = Json(r.mvaCascade);
            metrics["mva_loops_per_global_miss"] = Json(r.mvaLoops);
            metrics["refs"] = Json(r.refs);
            metrics["misses"] = Json(r.misses);
            metrics["global_fetches"] = Json(r.globalFetches);
            metrics["consistency_actions"] =
                Json(r.consistencyActions);
            artifact.add(cells[i].label(), std::move(config),
                         std::move(metrics));
        }
        table.print(std::cout);
    }

    // Acceptance summary: best 16-CPU hierarchy vs flat 16-CPU single
    // bus on the partitioned series, plus the worst hierarchical model
    // deviation inside the model's domain.
    double flat16 = 0.0, hier16 = 0.0, worst_dev = 0.0;
    double worst_mva_dev = 0.0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &c = cells[i];
        const auto &r = results[i];
        if (!c.shared && c.cpus == 16 && c.clusters == 0)
            flat16 = r.refsPerSec;
        if (!c.shared && c.cpus == 16 && c.clusters != 0)
            hier16 = std::max(hier16, r.refsPerSec);
        if (c.clusters != 0 && r.modelValid)
            worst_dev = std::max(worst_dev, std::abs(r.deviation));
        if (r.mvaValid)
            worst_mva_dev =
                std::max(worst_mva_dev, std::abs(r.mvaDeviation));
    }
    const double speedup = flat16 == 0.0 ? 0.0 : hier16 / flat16;
    bench::Gate gate;
    gate.check(speedup >= 2.0,
               "16-CPU hierarchy >= 2x flat single bus aggregate refs/s "
               "(partitioned): " + std::to_string(speedup) + "x");
    gate.check(worst_dev <= 0.15,
               "worst HierQueuingModel deviation (model domain) <= 15%: " +
                   bench::percent(worst_dev));
    gate.check(worst_mva_dev <= 0.15,
               "worst MVA deviation (contention-free, cascade-free "
               "cells; saturated flat buses included) <= 15%: " +
                   bench::percent(worst_mva_dev));

    artifact.note("Flat vs 2/4/8-cluster hierarchy, 4-32 CPUs, "
                  "partitioned and shared workloads (atum2 mix, "
                  "16K/256B/4-way caches)");
    artifact.note("Model columns: QueuingModel (flat cells) and "
                  "HierQueuingModel (hier cells) fed the measured m "
                  "and g of each run; model_valid=false marks runs "
                  "with g > 1 or measurable cross-cluster "
                  "invalidate/downgrade/recall traffic — the "
                  "data-contention regime the load model excludes");
    artifact.note("mva_* columns: closed MVA overlay fed each run's "
                  "measured load profile — flat cells via MvaModel, "
                  "hier cells via HierQueuingModel::predictMva; "
                  "mva_valid keeps the data-contention exclusion but "
                  "not the saturation one, so saturated partitioned "
                  "flat buses are in-domain; hier cells whose "
                  "predicted retry loops quantize against the IBC "
                  "busy period (mva_retry_cascade) are excluded");
    artifact.write();
    return gate.exitCode();
}
