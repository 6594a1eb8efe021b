/**
 * @file
 * Typed trace events for the observability subsystem.
 *
 * The vocabulary is deliberately small and flat: one POD struct whose
 * meaning depends on its @ref EventKind. Span-like kinds (BusTx, Miss,
 * MissPhase, Service, Copy, IbcFetch, Recovery, TierFetch, TierStore,
 * TierEvict) are emitted ONCE at the
 * END of the interval they describe, with @ref TraceEvent::at set to the
 * interval's start tick and @ref TraceEvent::arg0 to its duration in
 * ns. Emitting spans as completed intervals (rather than begin/end
 * pairs) means a wrapped ring buffer never contains a dangling begin,
 * and exporters never have to match pairs.
 *
 * This header depends only on sim/types.hh so that low-level components
 * (mem, monitor, proto) can emit events without linking against the
 * vmp_obs library — the same layering trick as mem::FaultHooks.
 */

#ifndef VMP_OBS_TRACE_EVENT_HH
#define VMP_OBS_TRACE_EVENT_HH

#include <cstdint>

#include "sim/types.hh"

namespace vmp::obs
{

/**
 * What one trace record describes. Kinds marked [span] carry a start
 * tick in `at` and a duration (ns) in `arg0`; kinds marked [instant]
 * are point events; [counter] kinds sample a value in `arg0`.
 */
enum class EventKind : std::uint8_t
{
    /** [span] One bus transaction: arg0 = bus occupancy ns, arg1 =
     *  queueing delay ns, aux = TxType | (aborted ? 0x80 : 0). */
    BusTx = 0,
    /** [span] One complete cache miss, trap to restart: arg1 = retries
     *  consumed, aux bit0 = dirty victim, bits1-2 = miss kind
     *  (0 full, 1 ownership, 2 protection), bit7 = kNestedMissBit. */
    Miss,
    /** [span] One phase inside a miss; aux bits0-6 = MissPhase,
     *  bit7 = kNestedMissBit. */
    MissPhase,
    /** [span] One monitor-interrupt service burst; arg1 = words. */
    Service,
    /** [span] One block-copier transfer; arg1 = bus time ns,
     *  aux = TxType | (aborted ? 0x80 : 0). */
    Copy,
    /** [span] Inter-bus board global fetch/upgrade; aux bit0 =
     *  exclusive, bit1 = upgrade. */
    IbcFetch,
    /** [span] One whole board recovery, declaration to completion;
     *  master = dead board. */
    Recovery,
    /** [instant] One word queued into a monitor's interrupt FIFO;
     *  aux = TxType | (aborted ? 0x80 : 0). */
    IrqWord,
    /** [counter] Interrupt-FIFO depth after a push/pop; arg0 = depth,
     *  aux = 1 when the triggering push was dropped (overflow). */
    FifoDepth,
    /** [instant] Inter-bus board recalled a frame from its cluster. */
    IbcRecall,
    /** [instant] Inter-bus board wrote a dirty frame back globally. */
    IbcWriteBack,
    /** [instant] A board was declared dead; master = dead board. */
    RecoveryBegin,
    /** [instant] One orphaned frame reclaimed during recovery. */
    Reclaim,
    /** [span] One memory-tier page-in, request to image ready;
     *  master = asid, arg1 = vpn, aux = 1 for zero-fill. */
    TierFetch,
    /** [span] One memory-tier page-out, request to arena accept;
     *  master = asid, arg1 = vpn, aux = 1 when it stalled. */
    TierStore,
    /** [span] One dirty arena frame drained to the backend;
     *  master = asid, arg1 = vpn, aux = BackendKind. */
    TierEvict,
    /** [instant] One prefetched page installed in the arena;
     *  master = asid, arg1 = vpn. */
    TierPrefetch,
    /** [instant] One budget-controller epoch; arg0 = clients,
     *  arg1 = grants changed. */
    BudgetEpoch,
};

/** Number of event kinds (array-sizing constant). */
inline constexpr std::size_t kEventKinds =
    static_cast<std::size_t>(EventKind::BudgetEpoch) + 1;

/** Miss-handler phases profiled per miss (stored in MissPhase aux). */
enum class MissPhase : std::uint8_t
{
    /** Trap entry: processor state save + handler dispatch. */
    Trap = 0,
    /** Action-table lookup and bookkeeping (post/ownership window). */
    TableLookup,
    /** Victim selection + dirty-victim writeback (join window). */
    VictimWriteback,
    /** Block copy of the missed page into the cache. */
    BlockCopy,
    /** Consistency wait: abort-and-retry backoff on contention. */
    ConsistencyWait,
};

/** Number of miss phases (array-sizing constant). */
inline constexpr std::size_t kMissPhases =
    static_cast<std::size_t>(MissPhase::ConsistencyWait) + 1;

/**
 * Miss/MissPhase aux bit 7: the span belongs to a miss taken inside
 * another miss on the same track. The VM page-table walk reads PTEs
 * through the cache, so a PTE miss nests inside the miss that needed
 * the translation (Section 2); kernel translations never walk tables,
 * which bounds nesting at one level. Outer and nested misses' phase
 * spans interleave on one track, and this bit keeps them apart.
 */
inline constexpr std::uint8_t kNestedMissBit = 0x80;

/** Stable lower-case name for an event kind (export identifiers). */
inline const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::BusTx: return "bus_tx";
      case EventKind::Miss: return "miss";
      case EventKind::MissPhase: return "miss_phase";
      case EventKind::Service: return "service";
      case EventKind::Copy: return "copy";
      case EventKind::IbcFetch: return "ibc_fetch";
      case EventKind::Recovery: return "recovery";
      case EventKind::IrqWord: return "irq_word";
      case EventKind::FifoDepth: return "fifo_depth";
      case EventKind::IbcRecall: return "ibc_recall";
      case EventKind::IbcWriteBack: return "ibc_writeback";
      case EventKind::RecoveryBegin: return "recovery_begin";
      case EventKind::Reclaim: return "reclaim";
      case EventKind::TierFetch: return "tier_fetch";
      case EventKind::TierStore: return "tier_store";
      case EventKind::TierEvict: return "tier_evict";
      case EventKind::TierPrefetch: return "tier_prefetch";
      case EventKind::BudgetEpoch: return "budget_epoch";
    }
    return "unknown";
}

/** Stable name for a miss phase (profiler/export identifiers). */
inline const char *
missPhaseName(MissPhase phase)
{
    switch (phase) {
      case MissPhase::Trap: return "trap";
      case MissPhase::TableLookup: return "table_lookup";
      case MissPhase::VictimWriteback: return "victim_writeback";
      case MissPhase::BlockCopy: return "block_copy";
      case MissPhase::ConsistencyWait: return "consistency_wait";
    }
    return "unknown";
}

/** True for kinds emitted as completed spans (at = start, arg0 = ns). */
inline bool
isSpan(EventKind kind)
{
    switch (kind) {
      case EventKind::BusTx:
      case EventKind::Miss:
      case EventKind::MissPhase:
      case EventKind::Service:
      case EventKind::Copy:
      case EventKind::IbcFetch:
      case EventKind::Recovery:
      case EventKind::TierFetch:
      case EventKind::TierStore:
      case EventKind::TierEvict:
        return true;
      default:
        return false;
    }
}

/**
 * One trace record. 40 bytes, trivially copyable; the ring buffer
 * stores these by value. Field meaning is kind-dependent (see
 * @ref EventKind); unused fields are zero.
 */
struct TraceEvent
{
    /** Event tick for instants/counters; interval START for spans. */
    Tick at = 0;
    /** Physical address involved, when meaningful. */
    std::uint64_t addr = 0;
    /** Span duration in ns, or counter value. */
    std::uint64_t arg0 = 0;
    /** Kind-specific secondary value (queue delay, words, retries). */
    std::uint64_t arg1 = 0;
    /** Originating master/board id, when meaningful. */
    std::uint32_t master = 0;
    /** Track the event belongs to (see EventTracer::registerTrack). */
    std::uint16_t track = 0;
    /** Discriminator for the fields above. */
    EventKind kind = EventKind::BusTx;
    /** Kind-specific packed byte (TxType|abort, MissPhase, flags). */
    std::uint8_t aux = 0;
};

} // namespace vmp::obs

#endif // VMP_OBS_TRACE_EVENT_HH
