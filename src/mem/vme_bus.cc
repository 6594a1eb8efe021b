#include "mem/vme_bus.hh"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vmp::mem
{

namespace
{

/**
 * Bounds-checked index into the per-type counter arrays. TxType is a
 * plain enum over kTxTypes values; an out-of-range value (e.g. from a
 * corrupted or miscast transaction) used to silently index past the
 * fixed arrays and corrupt adjacent counters. Panic instead.
 */
std::size_t
txIndex(TxType type)
{
    const auto index = static_cast<std::size_t>(type);
    if (index >= kTxTypes)
        panic("out-of-range TxType ", index,
              " indexing per-type bus counters");
    return index;
}

} // namespace

const char *
arbitrationName(Arbitration discipline)
{
    switch (discipline) {
      case Arbitration::Fifo: return "fifo";
      case Arbitration::Priority: return "priority";
      case Arbitration::RoundRobin: return "round-robin";
    }
    return "?";
}

Arbitration
arbitrationFromName(const std::string &name)
{
    if (name == "fifo")
        return Arbitration::Fifo;
    if (name == "priority")
        return Arbitration::Priority;
    if (name == "rr" || name == "round-robin")
        return Arbitration::RoundRobin;
    fatal("unknown arbitration discipline '", name,
          "' (want fifo, priority, rr)");
}

void
ArbitrationConfig::check() const
{
    if (priorityLevels == 0 || priorityLevels > 8)
        fatal("arbitration: priority levels must be in [1, 8]");
}

const char *
txTypeName(TxType type)
{
    switch (type) {
      case TxType::ReadShared: return "read-shared";
      case TxType::ReadPrivate: return "read-private";
      case TxType::AssertOwnership: return "assert-ownership";
      case TxType::WriteBack: return "write-back";
      case TxType::Notify: return "notify";
      case TxType::WriteActionTable: return "write-action-table";
      case TxType::DmaRead: return "dma-read";
      case TxType::DmaWrite: return "dma-write";
      case TxType::Reclaim: return "reclaim";
      case TxType::BoardMask: return "board-mask";
    }
    return "?";
}

const char *
actionEntryName(ActionEntry entry)
{
    switch (entry) {
      case ActionEntry::Ignore: return "00-ignore";
      case ActionEntry::Shared: return "01-shared";
      case ActionEntry::Protect: return "10-protect";
      case ActionEntry::Notify: return "11-notify";
    }
    return "?";
}

std::string
BusTransaction::toString() const
{
    std::ostringstream os;
    os << txTypeName(type) << " req=" << requester << " pa=0x"
       << std::hex << paddr << std::dec << " len=" << bytes;
    return os.str();
}

VmeBus::VmeBus(EventQueue &events, PhysMem &memory,
               const ArbitrationConfig &arbitration)
    : events_(events), mem_(memory), arb_(arbitration)
{
    arb_.check();
    if (arb_.discipline == Arbitration::Priority) {
        for (unsigned l = 0; l < arb_.priorityLevels; ++l) {
            levelDelays_.emplace_back(64, 1.0);
            levelGrants_.emplace_back();
        }
    }
}

void
VmeBus::setMasterLevel(std::uint32_t id, unsigned level)
{
    if (level >= arb_.priorityLevels)
        fatal("bus-request level ", level, " out of range (",
              arb_.priorityLevels, " levels configured)");
    for (auto &[existing, l] : levelOverrides_) {
        if (existing == id) {
            l = level;
            return;
        }
    }
    levelOverrides_.emplace_back(id, level);
}

unsigned
VmeBus::levelOf(std::uint32_t id) const
{
    for (const auto &[existing, level] : levelOverrides_) {
        if (existing == id)
            return level;
    }
    return id % arb_.priorityLevels;
}

std::vector<VmeBus::Pending>::iterator
VmeBus::selectNext()
{
    switch (arb_.discipline) {
      case Arbitration::Fifo:
        return queue_.begin();
      case Arbitration::Priority: {
        // Highest bus-request level wins; arrival order (the
        // daisy-chain) breaks ties, so strict > keeps the earliest.
        auto best = queue_.begin();
        for (auto it = std::next(best); it != queue_.end(); ++it) {
            if (levelOf(it->tx.requester) >
                levelOf(best->tx.requester))
                best = it;
        }
        return best;
      }
      case Arbitration::RoundRobin: {
        // Smallest cyclic distance from the previous holder wins;
        // among requests of the same master, arrival order.
        const auto distance = [this](std::uint32_t id) {
            return static_cast<std::uint32_t>(id - lastMaster_ - 1);
        };
        auto best = queue_.begin();
        for (auto it = std::next(best); it != queue_.end(); ++it) {
            if (distance(it->tx.requester) <
                distance(best->tx.requester))
                best = it;
        }
        return best;
      }
    }
    panic("unreachable arbitration discipline");
}

void
VmeBus::attachWatcher(std::uint32_t id, BusWatcher &watcher)
{
    for (const auto &[existing, w] : watchers_) {
        if (existing == id)
            fatal("bus watcher for master ", id, " already attached");
    }
    watchers_.emplace_back(id, &watcher);
}

void
VmeBus::request(const BusTransaction &tx, Completion done)
{
    if (movesData(tx.type)) {
        if (tx.bytes == 0)
            panic("block transaction with zero length: ", tx.toString());
        if (tx.data == nullptr)
            panic("block transaction without buffer: ", tx.toString());
    }
    // A fenced master's request bounces at the bus interface: no
    // grant, no occupancy, no monitor observation. It completes as
    // aborted after one short-transaction time so the requester's
    // retry loop stays paced and its timed wait eventually abandons
    // with a structured DeadOwnerError (a silent drop would strand
    // in-flight operations forever and the run would never converge).
    // The empty-set check keeps the healthy path at one untaken
    // branch.
    if (!fenced_.empty() && isMasterFenced(tx.requester)) {
        ++fencedDrops_;
        events_.scheduleIn(kShortTxNs,
                           Thunk{bounce, done.client, done.token},
                           "bus-fence-bounce");
        return;
    }
    queue_.push_back(Pending{tx, done, events_.now()});
    if (!busy_)
        grant();
}

void
VmeBus::bounce(void *client, std::uint64_t token)
{
    TxResult result;
    result.aborted = true;
    Completion{static_cast<BusClient *>(client), token}(result);
}

void
VmeBus::setMasterFenced(std::uint32_t id, bool fenced)
{
    const auto it = std::find(fenced_.begin(), fenced_.end(), id);
    if (fenced && it == fenced_.end())
        fenced_.push_back(id);
    else if (!fenced && it != fenced_.end())
        fenced_.erase(it);
}

bool
VmeBus::isMasterFenced(std::uint32_t id) const
{
    return std::find(fenced_.begin(), fenced_.end(), id) !=
        fenced_.end();
}

void
VmeBus::grant()
{
    if (queue_.empty()) {
        busy_ = false;
        return;
    }
    busy_ = true;
    const auto next = selectNext();
    onBus_ = *next;
    queue_.erase(next);
    const BusTransaction &tx = onBus_.tx;
    lastMaster_ = tx.requester;
    const Tick queue_delay = events_.now() - onBus_.queuedAt;

    // Consistency check: every attached monitor observes the
    // transaction (including the requester's own).
    bool aborted = false;
    if (isConsistencyRelated(tx.type)) {
        for (const auto &[id, watcher] : watchers_) {
            const WatchVerdict verdict = watcher->observe(tx);
            if (verdict == WatchVerdict::AbortAndInterrupt)
                aborted = true;
        }
    }

    // Fault injection (null hook = no cost): a spurious abort looks to
    // software exactly like a monitor-issued abort; a truncated block
    // transfer terminates early as an abort but still occupies the bus
    // for part of the block time.
    Tick bus_time_override = 0;
    if (hooks_ != nullptr && !aborted && isConsistencyRelated(tx.type)) {
        if (hooks_->injectBusAbort(tx)) {
            aborted = true;
            ++injectedAborts_;
            VMP_DTRACE(debug::Fault, events_.now(), "spurious abort on ",
                       tx.toString());
        } else if (movesData(tx.type) && hooks_->injectTruncate(tx)) {
            aborted = true;
            ++injectedAborts_;
            const Tick block = blockNs(tx.bytes);
            bus_time_override = block > kAbortNs
                ? kAbortNs + (block - kAbortNs) / 2
                : kAbortNs;
            VMP_DTRACE(debug::Fault, events_.now(),
                       "truncated transfer ", tx.toString(),
                       " busTime=", bus_time_override);
        }
    }

    const Tick bus_time = bus_time_override != 0 ? bus_time_override
        : aborted ? kAbortNs
                  : occupancy(tx.type, tx.bytes);
    VMP_DTRACE(debug::Bus, events_.now(), tx.toString(),
               aborted ? " ABORTED" : " granted", " busTime=",
               bus_time);

    ++transactions_;
    if (aborted) {
        ++aborts_;
        ++typeAborts_[txIndex(tx.type)];
        // The wait of an aborted grant is kept out of queueDelays_
        // (below) for the same completed-only reason as the per-type
        // counters: a retried transaction must account its arbitration
        // wait once per *completed* grant, not once per attempt.
        abortedQueueDelays_.sample(toUsec(queue_delay));
    } else {
        // Per-type counts are *completed* transactions only. An
        // aborted-then-retried transaction would otherwise be counted
        // once per attempt, double-counting during recovery storms;
        // aborted grants are visible via aborts()/abortsOf() and still
        // contribute to transactions_ and bus occupancy.
        ++typeCounts_[txIndex(tx.type)];
        queueDelays_.sample(toUsec(queue_delay));
        if (arb_.discipline == Arbitration::Priority) {
            const unsigned level = levelOf(tx.requester);
            levelDelays_[level].sample(toUsec(queue_delay));
            ++levelGrants_[level];
        }
    }
    // Busy time is charged at *completion* (see complete()); while the
    // transaction is in flight utilization() pro-rates it from these
    // two fields. Charging the full occupancy at issue time used to
    // let mid-run utilization samples exceed 1.0.
    txStartTick_ = events_.now();
    txBusTime_ = bus_time;
    onBusAborted_ = aborted;
    onBusQueueDelay_ = queue_delay;
    events_.scheduleIn(bus_time, Thunk::to<&VmeBus::complete>(this),
                       "bus-complete");
}

void
VmeBus::complete()
{
    // Copies: grant() below puts the next transaction on the bus.
    const BusTransaction tx = onBus_.tx;
    const Completion done = onBus_.done;
    const bool aborted = onBusAborted_;
    const Tick queue_delay = onBusQueueDelay_;
    const Tick bus_time = txBusTime_;
    if (!aborted) {
        // Architected data movement.
        switch (tx.type) {
          case TxType::ReadShared:
          case TxType::ReadPrivate:
          case TxType::DmaRead:
            mem_.readBlock(tx.paddr, tx.data, tx.bytes);
            break;
          case TxType::WriteBack:
          case TxType::DmaWrite:
            if (tx.rmw && tx.oldData)
                mem_.readBlock(tx.paddr, tx.oldData, tx.bytes);
            mem_.writeBlock(tx.paddr, tx.data, tx.bytes);
            break;
          default:
            break;
        }
        // Concurrent action-table update on the issuing processor's
        // monitor (only when not aborted, Section 3.2).
        if (tx.updatesTable) {
            for (const auto &[id, watcher] : watchers_) {
                if (id == tx.requester)
                    watcher->sideEffectUpdate(tx);
            }
        }
    }

    TxResult result;
    result.aborted = aborted;
    result.queueDelay = queue_delay;
    result.busTime = bus_time;

    // Invariant checking / failure detection: observers see the
    // transaction after data movement and table side effects, before
    // anyone reacts to it.
    for (const auto &observer : txObservers_)
        observer(tx, result);

    if (tracer_ != nullptr) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::BusTx;
        event.at = events_.now() - bus_time;
        event.addr = tx.paddr;
        event.arg0 = bus_time;
        event.arg1 = queue_delay;
        event.master = tx.requester;
        event.track = traceTrack_;
        event.aux = static_cast<std::uint8_t>(txIndex(tx.type)) |
                    (aborted ? 0x80u : 0u);
        tracer_->record(event);
    }

    // The transaction has now actually occupied the bus for bus_time
    // ticks; account it. (grant() below either starts the next
    // transaction — resetting the in-flight fields at the current
    // tick — or clears busy_.)
    busyTicks_ += bus_time;

    // Grant the next queued transaction before running the completion
    // so a retry issued from it queues behind existing work.
    grant();
    done(result);
}

double
VmeBus::utilization() const
{
    const Tick now = events_.now();
    if (now == 0)
        return 0.0;
    // Completed occupancy plus the elapsed share of the transaction
    // currently holding the bus, so a sample taken mid-transfer never
    // counts bus time that has not yet been spent (and can therefore
    // never exceed 1.0).
    Tick busy = busyTicks_;
    if (busy_)
        busy += std::min(now - txStartTick_, txBusTime_);
    return static_cast<double>(busy) / static_cast<double>(now);
}

const Counter &
VmeBus::countOf(TxType type) const
{
    return typeCounts_[txIndex(type)];
}

const Counter &
VmeBus::abortsOf(TxType type) const
{
    return typeAborts_[txIndex(type)];
}

const Histogram &
VmeBus::queueDelaysOfLevel(unsigned level) const
{
    if (level >= levelDelays_.size())
        panic("bus-request level ", level, " has no delay histogram (",
              levelDelays_.size(), " levels tracked)");
    return levelDelays_[level];
}

const Counter &
VmeBus::grantsOfLevel(unsigned level) const
{
    if (level >= levelGrants_.size())
        panic("bus-request level ", level, " has no grant counter (",
              levelGrants_.size(), " levels tracked)");
    return levelGrants_[level];
}

void
VmeBus::registerStats(StatGroup &group) const
{
    group.addCounter("transactions", "bus transactions granted",
                     transactions_);
    group.addCounter("aborts", "transactions aborted by a monitor",
                     aborts_);
    group.addCounter("injected_aborts",
                     "aborts forced by fault injection", injectedAborts_);
    group.addCounter("fenced_drops",
                     "requests dropped at the quarantine fence",
                     fencedDrops_);
    group.addCounter("read_shared", "read-shared transactions",
                     countOf(TxType::ReadShared));
    group.addCounter("read_private", "read-private transactions",
                     countOf(TxType::ReadPrivate));
    group.addCounter("assert_ownership", "assert-ownership transactions",
                     countOf(TxType::AssertOwnership));
    group.addCounter("write_back", "write-back transactions",
                     countOf(TxType::WriteBack));
    group.addCounter("notify", "notify transactions",
                     countOf(TxType::Notify));
    group.addCounter("reclaim", "recovery reclaim transactions",
                     countOf(TxType::Reclaim));
    group.addCounter("board_mask", "recovery board-mask transactions",
                     countOf(TxType::BoardMask));
    group.addHistogram("queue_delay_us",
                       "arbitration queueing delay distribution of "
                       "completed grants (us)",
                       queueDelays_);
    group.addHistogram("aborted_queue_delay_us",
                       "arbitration queueing delay distribution of "
                       "aborted grants (us)",
                       abortedQueueDelays_);
    for (std::size_t l = 0; l < levelDelays_.size(); ++l) {
        const std::string suffix = std::to_string(l);
        group.addHistogram("queue_delay_us_br" + suffix,
                           "completed-grant queueing delays on "
                           "bus-request level " + suffix + " (us)",
                           levelDelays_[l]);
        group.addCounter("grants_br" + suffix,
                         "completed grants on bus-request level " +
                             suffix,
                         levelGrants_[l]);
    }
}

} // namespace vmp::mem
