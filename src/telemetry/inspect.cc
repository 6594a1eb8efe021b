/**
 * @file
 * Live-inspection collectors. Every document is deterministic for a
 * given machine state: slots scan in index order, action tables in
 * frame order, FIFOs oldest-first; no hash-map iteration leaks in.
 */

#include "telemetry/inspect.hh"

#include <string>

#include "backing/frame_arena.hh"
#include "backing/memory_tier.hh"
#include "cache/cache.hh"
#include "core/system.hh"
#include "hier/inter_bus_board.hh"
#include "mem/vme_bus.hh"
#include "monitor/action_table.hh"
#include "monitor/interrupt_fifo.hh"
#include "recover/recovery.hh"

namespace vmp::telemetry
{

Json
inspectCache(const cache::Cache &cache)
{
    const cache::CacheConfig &cfg = cache.config();
    Json doc = Json::object();
    doc["geometry"] = Json(cfg.toString());
    doc["valid_slots"] = Json(std::uint64_t{cache.validCount()});
    Json slots = Json::array();
    const std::uint64_t total = cfg.totalSlots();
    for (std::uint64_t i = 0; i < total; ++i) {
        const cache::Slot &slot =
            cache.slot(static_cast<cache::SlotIndex>(i));
        if (!slot.valid())
            continue;
        Json entry = Json::object();
        entry["slot"] = Json(i);
        entry["set"] = Json(i / cfg.ways);
        entry["way"] = Json(i % cfg.ways);
        entry["asid"] = Json(std::uint64_t{slot.tag.asid});
        entry["vpn"] = Json(slot.tag.vpn);
        entry["flags"] = Json(cache::flagsToString(slot.flags));
        entry["modified"] = Json(slot.modified());
        entry["exclusive"] = Json(slot.exclusive());
        slots.push(std::move(entry));
    }
    doc["slots"] = std::move(slots);
    return doc;
}

Json
inspectActionTable(const monitor::ActionTable &table)
{
    Json doc = Json::object();
    doc["frames"] = Json(table.frames());
    doc["storage_bytes"] = Json(table.storageBytes());
    Json entries = Json::array();
    for (const std::uint64_t frame : table.nonIgnoredFrames()) {
        Json entry = Json::object();
        entry["frame"] = Json(frame);
        entry["entry"] =
            Json(mem::actionEntryName(table.get(frame)));
        entries.push(std::move(entry));
    }
    doc["entries"] = std::move(entries);
    return doc;
}

Json
inspectFifo(const monitor::InterruptFifo &fifo)
{
    Json doc = Json::object();
    doc["depth"] = Json(std::uint64_t{fifo.size()});
    doc["capacity"] = Json(std::uint64_t{fifo.capacity()});
    doc["overflowed"] = Json(fifo.overflowed());
    doc["pushed"] = Json(fifo.pushed().value());
    doc["dropped"] = Json(fifo.dropped().value());
    Json words = Json::array();
    for (const monitor::InterruptWord &word : fifo.words()) {
        Json w = Json::object();
        w["type"] = Json(mem::txTypeName(word.type));
        w["paddr"] = Json(word.paddr);
        w["requester"] = Json(std::uint64_t{word.requester});
        w["aborted"] = Json(word.aborted);
        words.push(std::move(w));
    }
    doc["words"] = std::move(words);
    return doc;
}

Json
inspectBus(const mem::VmeBus &bus)
{
    Json doc = Json::object();
    doc["utilization"] = Json(bus.utilization());
    doc["busy"] = Json(bus.busy());
    doc["fenced_drops"] = Json(bus.fencedDrops().value());
    return doc;
}

Json
inspectBoard(const core::ProcessorBoard &board)
{
    Json doc = Json::object();
    doc["cpu"] = Json(std::uint64_t{board.controller.id()});
    Json controller = Json::object();
    controller["dead"] = Json(board.controller.dead());
    controller["wedged"] = Json(board.controller.wedged());
    controller["misses"] = Json(board.controller.misses().value());
    controller["ownership_misses"] =
        Json(board.controller.ownershipMisses().value());
    controller["retries"] = Json(board.controller.retries().value());
    controller["write_backs"] =
        Json(board.controller.writeBacks().value());
    controller["words_serviced"] =
        Json(board.controller.wordsServiced().value());
    controller["frames_tracked"] =
        Json(std::uint64_t{board.controller.frameTable().size()});
    doc["controller"] = std::move(controller);
    Json mon = Json::object();
    mon["masked"] = Json(board.monitor.masked());
    mon["table_stuck"] = Json(board.monitor.tableStuck());
    mon["interrupts"] = Json(board.monitor.interrupts().value());
    mon["aborts_issued"] =
        Json(board.monitor.abortsIssued().value());
    doc["monitor"] = std::move(mon);
    doc["action_table"] = inspectActionTable(board.monitor.table());
    doc["fifo"] = inspectFifo(board.monitor.fifo());
    doc["cache"] = inspectCache(board.cache);
    return doc;
}

Json
inspectRecovery(const recover::RecoveryManager &recovery)
{
    Json doc = Json::object();
    doc["boards_dead"] = Json(recovery.deadBoards());
    doc["boards_fenced"] = Json(recovery.fencedBoards());
    doc["recovering"] = Json(recovery.recovering());
    doc["frames_reclaimed"] =
        Json(recovery.framesReclaimed().value());
    doc["pages_lost"] = Json(recovery.pagesLost().value());
    doc["pages_restored"] = Json(recovery.pagesRestored().value());
    doc["recoveries_completed"] =
        Json(recovery.recoveriesCompleted().value());
    doc["last_recovery_ns"] = Json(recovery.lastRecoveryNs());
    return doc;
}

Json
inspectTier(const backing::MemoryTier &tier)
{
    Json doc = Json::object();
    if (const backing::FrameArena *arena = tier.arena()) {
        Json a = Json::object();
        a["capacity"] = Json(std::uint64_t{arena->capacity()});
        a["used"] = Json(std::uint64_t{arena->used()});
        a["dirty"] = Json(std::uint64_t{arena->dirtyCount()});
        a["peak_used"] = Json(std::uint64_t{arena->peakUsed()});
        a["drain_queue_depth"] =
            Json(std::uint64_t{arena->drainQueueDepth()});
        doc["arena"] = std::move(a);
    }
    doc["pending_stores"] = Json(std::uint64_t{tier.pendingStores()});
    doc["arena_hits"] = Json(tier.arenaHits().value());
    doc["backend_fetches"] = Json(tier.backendFetches().value());
    doc["stores_accepted"] = Json(tier.storesAccepted().value());
    doc["store_stalls"] = Json(tier.storeStalls().value());
    doc["pages_drained"] = Json(tier.pagesDrained().value());
    return doc;
}

Json
inspectSystem(const core::Machine &machine)
{
    Json doc = Json::object();
    doc["t_ns"] = Json(machine.events().now());
    Json domains = Json::array();
    for (std::size_t d = 0; d < machine.domainCount(); ++d) {
        const core::BusDomain *domain = &machine.domain(d);
        Json entry = Json::object();
        entry["name"] = Json(domain->busName);
        entry["bus"] = inspectBus(domain->bus);
        if (const hier::InterBusBoard *ibc = domain->bridge.get()) {
            Json ibc_doc = Json::object();
            ibc_doc["idle"] = Json(ibc->idle());
            ibc_doc["dead"] = Json(ibc->dead());
            ibc_doc["wedged"] = Json(ibc->wedged());
            ibc_doc["service_epoch"] = Json(ibc->serviceEpoch());
            ibc_doc["pending_words"] =
                Json(std::uint64_t{ibc->pendingWords()});
            ibc_doc["global_action_table"] =
                inspectActionTable(ibc->globalMonitor().table());
            ibc_doc["global_fifo"] =
                inspectFifo(ibc->globalMonitor().fifo());
            entry["ibc"] = std::move(ibc_doc);
        }
        Json boards = Json::array();
        for (const auto &board : domain->boards)
            boards.push(inspectBoard(*board));
        entry["boards"] = std::move(boards);
        if (domain->recovery)
            entry["recovery"] = inspectRecovery(*domain->recovery);
        domains.push(std::move(entry));
    }
    doc["domains"] = std::move(domains);
    if (const obs::EventTracer *tracer = machine.tracer()) {
        Json trace = Json::object();
        trace["tracks"] = Json(std::uint64_t{tracer->trackCount()});
        trace["events_recorded"] = Json(tracer->recorded());
        trace["events_overwritten"] = Json(tracer->droppedOldest());
        doc["trace"] = std::move(trace);
    }
    return doc;
}

} // namespace vmp::telemetry
