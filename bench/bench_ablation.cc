/**
 * @file
 * Ablation study over the design choices DESIGN.md calls out: cache
 * associativity (the prototype supports 1-4 ways), the hardware-
 * suggested (LRU) victim slot vs a random victim policy, and the ASID
 * tag (vs flushing the cache on context switch). All measured with the
 * Figure 4 methodology on the four ATUM-like traces.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

namespace
{

using namespace vmp;

/** Figure-4 style run with a random (rather than LRU) victim. */
core::FastSimResult
runRandomVictim(std::uint64_t cache_bytes, std::uint32_t page_bytes)
{
    core::FastSimResult total;
    Rng rng(12345);
    for (const auto &workload : trace::allWorkloads()) {
        trace::SyntheticGen gen(workload);
        cache::Cache cache(cache::CacheConfig::forSize(
            cache_bytes, page_bytes, 4, false));
        trace::MemRef ref;
        while (gen.next(ref)) {
            ++total.refs;
            const auto res = cache.access(ref.asid, ref.vaddr,
                                          ref.isWrite(),
                                          ref.supervisor);
            if (res.hit)
                continue;
            ++total.misses;
            // Random way within the correct set.
            const auto set = cache.setOf(ref.vaddr);
            const auto way = static_cast<std::uint32_t>(
                rng.below(cache.config().ways));
            cache.fill(set * cache.config().ways + way,
                       cache.tagFor(ref.asid, ref.vaddr),
                       static_cast<cache::SlotFlags>(
                           cache::FlagExclusive |
                           cache::FlagSupWritable |
                           cache::FlagUserReadable |
                           cache::FlagUserWritable));
        }
    }
    return total;
}

/** Figure-4 style run with a single shared ASID (flush-free tagging
 *  disabled: all processes collide in one tag space). */
core::FastSimResult
runSharedAsid(std::uint64_t cache_bytes, std::uint32_t page_bytes)
{
    core::FastSimResult total;
    for (const auto &workload : trace::allWorkloads()) {
        trace::SyntheticGen gen(workload);
        core::FastCacheSim sim(cache::CacheConfig::forSize(
            cache_bytes, page_bytes, 4, false));
        trace::MemRef ref;
        while (gen.next(ref)) {
            ref.asid = 1; // collapse all address spaces
            sim.step(ref);
        }
        total += sim.result();
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace vmp;
    const auto opts = bench::parseBenchOptions("ablation", argc,
                                               argv);
    bench::Artifact artifact("ablation", opts);

    bench::banner("Ablation", "Associativity, victim policy and ASID "
                              "tagging (Fig. 4 methodology, 256B "
                              "pages)");

    const std::vector<std::uint64_t> sizes = {KiB(64), KiB(128),
                                              KiB(256)};
    TableWriter assoc("Associativity sweep, miss ratio (%)");
    assoc.columns({"Cache size", "1-way", "2-way", "4-way", "8-way"});
    {
        // One parallel sweep per associativity (each is a full
        // {size} x {workload} grid of independent cells).
        std::vector<bench::Fig4Grid> grids;
        for (const std::uint32_t ways : {1u, 2u, 4u, 8u})
            grids.emplace_back(sizes, std::vector<std::uint32_t>{256},
                               ways, opts.threads);
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            auto &row = assoc.row().cell(
                std::to_string(sizes[s] / 1024) + "K");
            const std::uint32_t ways_list[] = {1, 2, 4, 8};
            for (std::size_t w = 0; w < grids.size(); ++w) {
                const auto &point = grids[w].point(s, 0);
                row.cell(point.missRatio() * 100, 3);
                artifact.add(
                    "assoc/" + std::to_string(sizes[s] / 1024) +
                        "K/" + std::to_string(ways_list[w]) + "w",
                    bench::cacheConfigJson(sizes[s], 256,
                                           ways_list[w]),
                    bench::fastResultJson(point));
            }
        }
    }
    assoc.print(std::cout);

    TableWriter victim("Victim policy at 4 ways, miss ratio (%)");
    victim.columns({"Cache size", "LRU (hardware suggestion)",
                    "Random"});
    for (const std::uint64_t size : sizes) {
        const auto lru = bench::runFig4Point(size, 256);
        const auto random = runRandomVictim(size, 256);
        victim.row()
            .cell(std::to_string(size / 1024) + "K")
            .cell(lru.missRatio() * 100, 3)
            .cell(random.missRatio() * 100, 3);
        Json metrics = Json::object();
        metrics["miss_ratio_lru"] = Json(lru.missRatio());
        metrics["miss_ratio_random"] = Json(random.missRatio());
        artifact.add("victim/" + std::to_string(size / 1024) + "K",
                     bench::cacheConfigJson(size, 256, 4),
                     std::move(metrics));
    }
    victim.print(std::cout);

    TableWriter asid("ASID tag ablation, miss ratio (%)");
    asid.columns({"Cache size", "Per-ASID tags (VMP)",
                  "Single tag space"});
    for (const std::uint64_t size : sizes) {
        const auto tagged = bench::runFig4Point(size, 256);
        const auto shared = runSharedAsid(size, 256);
        asid.row()
            .cell(std::to_string(size / 1024) + "K")
            .cell(tagged.missRatio() * 100, 3)
            .cell(shared.missRatio() * 100, 3);
        Json metrics = Json::object();
        metrics["miss_ratio_per_asid"] = Json(tagged.missRatio());
        metrics["miss_ratio_single_tag_space"] =
            Json(shared.missRatio());
        artifact.add("asid/" + std::to_string(size / 1024) + "K",
                     bench::cacheConfigJson(size, 256, 4),
                     std::move(metrics));
    }
    asid.print(std::cout);
    std::cout
        << "Note: collapsing ASIDs lets processes share kernel-page "
           "tags (fewer cold misses) but is\nonly legal if the cache "
           "is flushed on every context switch — the cost the ASID "
           "register avoids.\n\n";

    // Section 5.4 non-shared hint: user pages fetched read-private.
    setInformEnabled(false);
    TableWriter hint("Non-shared hint ablation (full system, 1 CPU, "
                     "atum2, 64K cache)");
    hint.columns({"Hint", "Ownership misses", "Assert-ownership tx",
                  "Hinted private fills", "Perf"});
    for (const bool enabled : {false, true}) {
        core::VmpConfig cfg;
        cfg.processors = 1;
        cfg.cache = cache::CacheConfig::forSize(KiB(64), 256, 4, true);
        cfg.memBytes = MiB(8);
        core::VmpSystem system(cfg);
        system.setUserPrivateHint(enabled);
        auto workload = trace::workloadConfig("atum2");
        workload.totalRefs = 120'000;
        trace::SyntheticGen gen(workload);
        const auto result = system.runTraces({&gen});
        hint.row()
            .cell(enabled ? "on" : "off")
            .cell(system.controller(0).ownershipMisses().value())
            .cell(system.root().bus
                      .countOf(mem::TxType::AssertOwnership)
                      .value())
            .cell(system.controller(0).hintedPrivateFills().value())
            .cell(result.performance, 3);

        Json config = bench::cacheConfigJson(KiB(64), 256, 4);
        config["user_private_hint"] = Json(enabled);
        Json metrics = bench::runResultJson(result);
        metrics["ownership_misses"] =
            Json(system.controller(0).ownershipMisses().value());
        metrics["assert_ownership_tx"] =
            Json(system.root().bus
                     .countOf(mem::TxType::AssertOwnership)
                     .value());
        metrics["hinted_private_fills"] =
            Json(system.controller(0).hintedPrivateFills().value());
        artifact.add(std::string("hint/") + (enabled ? "on" : "off"),
                     std::move(config), std::move(metrics));
    }
    hint.print(std::cout);
    std::cout
        << "With the hint, user read misses fetch read-private and "
           "the write upgrade (an extra trap\nplus bus transaction "
           "per first-write) disappears — the Section 5.4 "
           "optimization.\n";

    artifact.note("ablations over associativity, victim policy, ASID "
                  "tagging and the Section 5.4 non-shared hint "
                  "(Fig. 4 methodology, 256B pages)");
    artifact.write();
    return 0;
}
