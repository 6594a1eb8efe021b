#include "proto/client.hh"

#include <sstream>
#include <utility>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vmp::proto
{

std::string
WatchdogReport::toString() const
{
    std::ostringstream os;
    os << client << cpu << " " << operation << " starved: " << attempts
       << " retries since tick " << started << " (now " << now << ")";
    if (deadOwnerSuspected)
        os << " [dead owner suspected]";
    if (operation == "access") {
        os << " va=0x" << std::hex << vaddr << std::dec << " asid="
           << unsigned{asid};
    } else {
        os << " pa=0x" << std::hex << paddr << std::dec;
    }
    return os.str();
}

ProtocolClient::ProtocolClient(const char *kind, std::uint32_t id,
                               EventQueue &events,
                               monitor::BusMonitor &monitor,
                               mem::VmeBus &bus, std::uint32_t page_bytes,
                               Tick dead_owner_timeout_ns,
                               std::uint64_t seed)
    : events_(events), kind_(kind), id_(id), monitor_(monitor), bus_(bus),
      copier_(id, bus), pageBytes_(page_bytes), staging_(page_bytes),
      deadOwnerTimeoutNs_(dead_owner_timeout_ns), rng_(seed)
{}

Tick
ProtocolClient::retryDelay()
{
    return kRetryNs + rng_.below(kRetryJitterNs + 1);
}

void
ProtocolClient::setTracer(obs::EventTracer *tracer, std::uint16_t track)
{
    tracer_ = tracer;
    traceTrack_ = track;
    copier_.setTracer(tracer, track);
}

void
ProtocolClient::setWatchdog(std::uint64_t max_retries,
                            WatchdogHandler handler)
{
    watchdogCap_ = max_retries;
    watchdogHandler_ = std::move(handler);
}

// --------------------------------------------------------------------
// Liveness
// --------------------------------------------------------------------

void
ProtocolClient::rejoin()
{
    dead_ = false;
    // Cold software restart also clears partial-failure seam state:
    // the restarted service loop is neither wedged nor slow.
    wedged_ = false;
    slowFactor_ = 1;
}

void
ProtocolClient::setWedged(bool wedged)
{
    wedged_ = wedged;
    if (!wedged_)
        resume();
}

void
ProtocolClient::setServiceSlowdown(std::uint64_t factor)
{
    if (factor == 0)
        panic(kind_, id_, ": service slowdown factor must be >= 1");
    slowFactor_ = factor;
}

// --------------------------------------------------------------------
// Action-table shadow
// --------------------------------------------------------------------

mem::ActionEntry
ProtocolClient::shadowEntry(Addr paddr) const
{
    const auto it = shadow_.find(frameOf(paddr));
    return it == shadow_.end() ? mem::ActionEntry::Ignore : it->second;
}

void
ProtocolClient::setShadow(std::uint64_t frame, mem::ActionEntry entry)
{
    shadow_[frame] = entry;
}

void
ProtocolClient::writeTable(Addr paddr, mem::ActionEntry entry, Thunk done)
{
    retryLoop({.type = mem::TxType::WriteActionTable,
               .requester = id_,
               .paddr = frameBase(paddr),
               .newEntry = entry,
               .updatesTable = true},
              nullptr, nullptr, done);
}

void
ProtocolClient::releaseEntry(Addr paddr, Thunk done)
{
    if (shadowEntry(paddr) != mem::ActionEntry::Ignore)
        writeTable(paddr, mem::ActionEntry::Ignore, done);
    else
        done();
}

// --------------------------------------------------------------------
// Retry loops: write-back, watchdog, dead-owner timed wait
// --------------------------------------------------------------------

void
ProtocolClient::watchdogCheck(const char *operation, Asid asid,
                              Addr vaddr, Addr paddr,
                              std::uint64_t attempts, Tick started)
{
    // Trip exactly once per starving operation, the first time the cap
    // is exceeded; the operation keeps retrying afterwards.
    if (watchdogCap_ == 0 || attempts != watchdogCap_ + 1)
        return;
    // Distinguish a genuine livelock (live contenders starving each
    // other) from a dead owner (the recovery oracle knows the frame's
    // Protect holder failstopped): only the former is a watchdog trip.
    // The access path passes paddr 0 (frame unknown pre-translation)
    // and is always treated as a livelock candidate.
    const bool owner_dead = deadOracle_ != nullptr && paddr != 0 &&
        deadOracle_->isFrameOwnerDead(paddr);
    if (owner_dead)
        ++deadOwnerSuspected_;
    else
        ++watchdogTrips_;
    WatchdogReport report;
    report.client = kind_;
    report.cpu = id_;
    report.operation = operation;
    report.asid = asid;
    report.vaddr = vaddr;
    report.paddr = paddr;
    report.attempts = attempts;
    report.started = started;
    report.now = events_.now();
    report.deadOwnerSuspected = owner_dead;
    lastReport_ = report;
    if (watchdogHandler_) {
        watchdogHandler_(*lastReport_);
    } else {
        warn("livelock watchdog: ", lastReport_->toString());
    }
}

bool
ProtocolClient::deadOwnerCheck(const char *operation, Addr vaddr,
                               Addr paddr, std::uint64_t attempts,
                               Tick started)
{
    if (deadOwnerTimeoutNs_ == 0 ||
        events_.now() - started < deadOwnerTimeoutNs_)
        return false;
    ++deadOwnerErrors_;
    DeadOwnerError error;
    error.client = kind_;
    error.cpu = id_;
    error.operation = operation;
    error.paddr = paddr;
    error.vaddr = vaddr;
    error.attempts = attempts;
    error.started = started;
    error.now = events_.now();
    error.ownerKnownDead = deadOracle_ != nullptr && paddr != 0 &&
        deadOracle_->isFrameOwnerDead(paddr);
    lastDeadOwnerError_ = error;
    VMP_DTRACE(debug::Recover, events_.now(), kind_, id_,
               " abandoning timed wait: ", error.toString());
    if (deadOwnerHandler_) {
        deadOwnerHandler_(error);
    } else {
        warn("dead-owner timeout: ", error.toString());
    }
    return true;
}

bool
ProtocolClient::retryAbandoned(const char *operation, Addr paddr,
                               RetryLoop &loop)
{
    // Values, not @p loop: a report handler may grow the record pool
    // that holds it.
    const std::uint64_t tries = ++loop.tries;
    const Tick started = loop.started;
    watchdogCheck(operation, 0, 0, paddr, tries, started);
    return deadOwnerCheck(operation, 0, paddr, tries, started);
}

void
ProtocolClient::retryLoop(const mem::BusTransaction &tx,
                          const char *operation, Counter *aborts,
                          Thunk done, bool service_first, mem::VmeBus *bus)
{
    issue(ops_.put(BusOp{tx, operation, aborts, bus ? bus : &bus_,
                         service_first, RetryLoop{0, events_.now()}, done,
                         {}}));
}

void
ProtocolClient::writeBack(std::uint64_t frame, PageBuffer data,
                          mem::ActionEntry after, Counter &aborts,
                          Thunk done)
{
    ++writeBacks_;
    // The bus only reads from the page of a write-back.
    const mem::BusTransaction tx{
        .type = mem::TxType::WriteBack,
        .requester = id_,
        .paddr = frame * pageBytes_,
        .bytes = pageBytes_,
        .data = const_cast<std::uint8_t *>(data.get()),
        .newEntry = after,
        .updatesTable = true};
    issue(ops_.put(BusOp{tx, "write-back", &aborts, &bus_, false,
                         RetryLoop{0, events_.now()}, done,
                         std::move(data)}));
}

void
ProtocolClient::issue(std::uint64_t op)
{
    const BusOp &o = ops_[op];
    if (o.tx.type == mem::TxType::WriteBack)
        copier_.writeBackPage(o.tx.paddr, o.tx.data, o.tx.bytes,
                              o.tx.newEntry, mem::Completion{this, op});
    else
        o.bus->request(o.tx, mem::Completion{this, op});
}

void
ProtocolClient::busDone(std::uint64_t token, const mem::TxResult &res)
{
    BusOp &op = ops_[token];
    if (!res.aborted || op.operation == nullptr) {
        const std::uint64_t frame = frameOf(op.tx.paddr);
        if (op.tx.updatesTable)
            setShadow(frame, op.tx.newEntry);
        if (op.tx.updatesTable &&
            op.tx.type == mem::TxType::AssertOwnership)
            acquired(frame);
        ops_.take(token).done();
        return;
    }
    if (op.aborts != nullptr)
        ++*op.aborts;
    if (!retryAbandoned(op.operation, op.tx.paddr, op.loop)) {
        const Thunk retry =
            Thunk::to<&ProtocolClient::retryAfterDelay>(this, token);
        if (ops_[token].serviceFirst)
            serviceInterrupts(retry);
        else
            retry();
        return;
    }
    // Abandoned. Any loop but a write-back just continues; a
    // write-back's aborting board is dead, so the page's data is lost,
    // but our own entry must not stay stale. The table write is never
    // aborted, so this always completes.
    BusOp &lost = ops_[token];
    if (lost.tx.type != mem::TxType::WriteBack ||
        lost.tx.newEntry == mem::ActionEntry::Protect) {
        ops_.take(token).done();
        return;
    }
    lost.tx = {.type = mem::TxType::WriteActionTable,
               .requester = id_,
               .paddr = lost.tx.paddr,
               .newEntry = lost.tx.newEntry,
               .updatesTable = true};
    lost.operation = nullptr;
    lost.data.reset();
    issue(token);
}

void
ProtocolClient::retryAfterDelay(std::uint64_t op)
{
    afterSoftware(retryDelay(), Thunk::to<&ProtocolClient::issue>(this, op));
}

// --------------------------------------------------------------------
// Interrupt service
// --------------------------------------------------------------------

void
ProtocolClient::serviceInterrupts(Thunk done)
{
    if (dead_) {
        // Failstopped: the service software is gone. Words rot in the
        // FIFO until the recovery coordinator drains them (or a rejoin
        // clears them) — an idle pass must not resurrect the board.
        done();
        return;
    }
    if (wedged_) {
        // Wedged service loop (partial failure): the service software
        // is stuck, but the board is not silent — the monitor hardware
        // keeps aborting against its (increasingly stale) table, and
        // dead() stays false. Words rot undrained; only the health
        // witness's progress-epoch check can tell this from healthy.
        // The processor is stuck *inside* the handler, so completion
        // is deferred by one futile service quantum — simulated time
        // advances (callers re-poll without livelocking at one tick)
        // while the epoch stays frozen.
        events_.scheduleIn(kServiceNs, done, "svc-wedged");
        return;
    }
    if (!interruptPending()) {
        done();
        return;
    }
    // One drain per client: a call while it runs joins it.
    service_.waiters.push_back(done);
    if (service_.waiters.size() > 1)
        return;
    service_.started = events_.now();
    service_.wordsBefore = wordsServiced_.value();
    drain();
}

void
ProtocolClient::drain()
{
    if (monitor_.fifo().overflowed()) {
        ++serviceEpoch_;
        recoverFromOverflow(Thunk::to<&ProtocolClient::drain>(this));
        return;
    }
    const auto word = monitor_.fifo().pop();
    if (!word) {
        // Drained: one span and one stall charge for the whole record.
        ++serviceEpoch_;
        serviceStall_ += events_.now() - service_.started;
        if (tracer_ != nullptr) {
            obs::TraceEvent event;
            event.kind = obs::EventKind::Service;
            event.at = service_.started;
            event.arg0 = events_.now() - service_.started;
            event.arg1 = wordsServiced_.value() - service_.wordsBefore;
            event.master = id_;
            event.track = traceTrack_;
            tracer_->record(event);
        }
        // Close the record before continuing: a waiter may start the
        // next drain, into the spare list.
        std::vector<Thunk> waiters = std::move(service_.spare);
        waiters.swap(service_.waiters);
        for (const Thunk &waiter : waiters)
            waiter();
        waiters.clear();
        service_.spare = std::move(waiters);
        return;
    }
    ++serviceEpoch_;
    // slowFactor_ is 1 on a healthy board — multiplying the charge by
    // one keeps the unfaulted run bit-identical.
    serviceCpuNs_ += kServiceNs * slowFactor_;
    takeWord(*word, Thunk::to<&ProtocolClient::drain>(this));
}

void
ProtocolClient::serviceQueued(Thunk done)
{
    if (const auto word = monitor_.fifo().pop()) {
        takeWord(*word, box([this, done] { serviceQueued(done); }));
        return;
    }
    done();
}

void
ProtocolClient::takeWord(const monitor::InterruptWord &word, Thunk next)
{
    ++wordsServiced_;
    VMP_DTRACE(debug::Monitor, events_.now(), kind_, id_,
               " service word ", mem::txTypeName(word.type), " pa=0x",
               std::hex, word.paddr, std::dec, " from=", word.requester,
               word.aborted ? " (aborted)" : "");
    afterSoftware(kServiceNs * slowFactor_,
                  Thunk::to<&ProtocolClient::serveWord>(
                      this, words_.put(WordOp{word, next})));
}

void
ProtocolClient::serveWord(std::uint64_t op)
{
    const WordOp taken = words_.take(op);
    serviceWord(taken.word, taken.next);
}

void
ProtocolClient::recoverOverflow(std::vector<std::uint64_t> frames,
                                FrameStep drop, Thunk done)
{
    monitor_.fifo().clearOverflow();
    ++recoveries_;
    releaseFrames(
        std::make_shared<std::vector<std::uint64_t>>(std::move(frames)),
        std::move(drop), done);
}

void
ProtocolClient::releaseFrames(
    std::shared_ptr<std::vector<std::uint64_t>> frames, FrameStep drop,
    Thunk done)
{
    if (frames->empty()) {
        done();
        return;
    }
    const std::uint64_t frame = frames->back();
    frames->pop_back();
    const Thunk release = box([this, frame, frames, drop, done] {
        releaseEntry(frame * pageBytes_, box([this, frames, drop, done] {
                         releaseFrames(frames, drop, done);
                     }));
    });
    if (drop)
        drop(frame, release);
    else
        release();
}

} // namespace vmp::proto
