/**
 * @file
 * Live-gauge collectors over VmpSystem / HierVmpSystem.
 */

#include "telemetry/system_gauges.hh"

#include "backing/budget.hh"
#include "backing/frame_arena.hh"
#include "backing/memory_tier.hh"
#include "core/hier_system.hh"
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

/** Re-collect @p system's gauges into every sampled set. */
template <class System>
void
attachGauges(StreamingSink &sink, const System &system)
{
    sink.addGaugeProvider([&system](obs::GaugeSet &set) {
        const obs::GaugeSet live = collectGauges(system);
        for (const obs::GaugeGroup &group : live.groups()) {
            for (const obs::Gauge &gauge : group.gauges)
                set.add(group.name, gauge.name, gauge.value);
        }
    });
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
addBudgetGauges(obs::GaugeSet &set,
                const backing::BudgetController &budget)
{
    set.add("budget", "clients",
            static_cast<double>(budget.clientCount()));
    set.add("budget", "epochs",
            static_cast<double>(budget.epochs().value()));
    set.add("budget", "grant_changes",
            static_cast<double>(budget.grantChanges().value()));
    for (std::uint32_t c = 0;
         c < static_cast<std::uint32_t>(budget.clientCount()); ++c) {
        const std::string &name = budget.clientName(c);
        set.add("budget", name + "_grant",
                static_cast<double>(budget.grantOf(c)));
        set.add("budget", name + "_used",
                static_cast<double>(budget.usedOf(c)));
    }
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
collectGauges(const core::VmpSystem &system)
{
    obs::GaugeSet set;
    addBusGauges(set, "bus", system.bus());
    for (std::size_t i = 0; i < system.processors(); ++i) {
        addFifoGauges(set, "cpu" + std::to_string(i),
                      system.board(i).monitor.fifo());
    }
    if (const recover::RecoveryManager *recovery =
            system.recoveryManager())
        addRecoveryGauges(set, "recover", *recovery);
    return set;
}

obs::GaugeSet
collectGauges(const core::HierVmpSystem &system)
{
    obs::GaugeSet set;
    addBusGauges(set, "global_bus", system.globalBus());
    for (std::size_t k = 0; k < system.clusters(); ++k) {
        const std::string cluster = "c" + std::to_string(k);
        addBusGauges(set, cluster + ".bus", system.localBus(k));
        set.add(cluster + ".ibc", "pending_words",
                static_cast<double>(
                    system.interBusBoard(k).pendingWords()));
    }
    for (std::size_t i = 0; i < system.totalCpus(); ++i) {
        addFifoGauges(set, "cpu" + std::to_string(i),
                      system.board(i).monitor.fifo());
    }
    if (system.recoveryEnabled()) {
        for (std::size_t k = 0; k < system.clusters(); ++k) {
            addRecoveryGauges(set, "c" + std::to_string(k) +
                                       ".recover",
                              system.clusterRecovery(k));
        }
        addRecoveryGauges(set, "global.recover",
                          *system.globalRecovery());
    }
    if (const backing::BudgetController *budget =
            system.clusterBudget())
        addBudgetGauges(set, *budget);
    return set;
}

void
attachSystemGauges(StreamingSink &sink,
                   const core::VmpSystem &system)
{
    attachGauges(sink, system);
}

void
attachSystemGauges(StreamingSink &sink,
                   const core::HierVmpSystem &system)
{
    attachGauges(sink, system);
}

} // namespace vmp::telemetry
