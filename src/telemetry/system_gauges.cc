/**
 * @file
 * Live-gauge collectors over a core::Machine's bus domains.
 */

#include "telemetry/system_gauges.hh"

#include "backing/frame_arena.hh"
#include "backing/memory_tier.hh"
#include "core/system.hh"
#include "recover/recovery.hh"

namespace vmp::telemetry
{

namespace
{

void
addFifoGauges(obs::GaugeSet &set, const std::string &group,
              const monitor::InterruptFifo &fifo)
{
    set.add(group, "fifo_depth", static_cast<double>(fifo.size()));
    set.add(group, "fifo_dropped",
            static_cast<double>(fifo.dropped().value()));
}

/** The same bus fields at every level of every machine. */
void
addBusGauges(obs::GaugeSet &set, const std::string &group,
             const mem::VmeBus &bus)
{
    set.add(group, "utilization", bus.utilization());
    set.add(group, "fenced_drops",
            static_cast<double>(bus.fencedDrops().value()));
}

} // namespace

void
addRecoveryGauges(obs::GaugeSet &set, const std::string &group,
                  const recover::RecoveryManager &recovery)
{
    set.add(group, "boards_dead",
            static_cast<double>(recovery.deadBoards()));
    set.add(group, "boards_fenced",
            static_cast<double>(recovery.fencedBoards()));
    set.add(group, "fences_total",
            static_cast<double>(recovery.boardsFenced().value()));
    set.add(group, "unfences_total",
            static_cast<double>(recovery.boardsUnfenced().value()));
    set.add(group, "frames_reclaimed",
            static_cast<double>(recovery.framesReclaimed().value()));
    set.add(group, "recovering", recovery.recovering() ? 1.0 : 0.0);
}

void
addTierGauges(obs::GaugeSet &set, const backing::MemoryTier &tier)
{
    if (const backing::FrameArena *arena = tier.arena()) {
        set.add("tier", "arena_used",
                static_cast<double>(arena->used()));
        set.add("tier", "arena_capacity",
                static_cast<double>(arena->capacity()));
        set.add("tier", "arena_dirty",
                static_cast<double>(arena->dirtyCount()));
        set.add("tier", "arena_peak_used",
                static_cast<double>(arena->peakUsed()));
        set.add("tier", "drain_queue_depth",
                static_cast<double>(arena->drainQueueDepth()));
    }
    set.add("tier", "pending_stores",
            static_cast<double>(tier.pendingStores()));
    set.add("tier", "store_stalls",
            static_cast<double>(tier.storeStalls().value()));
    set.add("tier", "pages_drained",
            static_cast<double>(tier.pagesDrained().value()));
}

obs::GaugeSet
collectGauges(const core::Machine &machine)
{
    obs::GaugeSet set;
    for (std::size_t d = 0; d < machine.domainCount(); ++d) {
        const core::BusDomain *domain = &machine.domain(d);
        addBusGauges(set, domain->busName, domain->bus);
        if (domain->bridge) {
            set.add(domain->groupName("ibc"), "pending_words",
                    static_cast<double>(domain->bridge->pendingWords()));
        }
        for (const auto &board : domain->boards) {
            addFifoGauges(set,
                          "cpu" + std::to_string(board->controller.id()),
                          board->monitor.fifo());
        }
        if (domain->recovery) {
            addRecoveryGauges(set, domain->groupName("recover"),
                              *domain->recovery);
        }
    }
    return set;
}

void
attachSystemGauges(StreamingSink &sink, const core::Machine &machine)
{
    sink.addGaugeProvider([&machine](obs::GaugeSet &set) {
        const obs::GaugeSet live = collectGauges(machine);
        for (const obs::GaugeGroup &group : live.groups()) {
            for (const obs::Gauge &gauge : group.gauges)
                set.add(group.name, gauge.name, gauge.value);
        }
    });
}

} // namespace vmp::telemetry
