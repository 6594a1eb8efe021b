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
                               const SoftwareTiming &timing,
                               std::uint64_t seed)
    : events_(events), kind_(kind), id_(id), monitor_(monitor), bus_(bus),
      copier_(id, bus), pageBytes_(page_bytes), timing_(timing), rng_(seed)
{}

Tick
ProtocolClient::retryDelay()
{
    Tick delay = timing_.retryNs;
    if (timing_.retryJitterNs > 0)
        delay += rng_.below(timing_.retryJitterNs + 1);
    return delay;
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
ProtocolClient::writeTable(Addr paddr, mem::ActionEntry entry, Done done)
{
    mem::BusTransaction tx;
    tx.type = mem::TxType::WriteActionTable;
    tx.requester = id_;
    tx.paddr = frameBase(paddr);
    tx.newEntry = entry;
    tx.updatesTable = true;
    const std::uint64_t frame = frameOf(paddr);
    bus_.request(tx, [this, frame, entry,
                      done = std::move(done)](const mem::TxResult &) {
        setShadow(frame, entry);
        done();
    });
}

void
ProtocolClient::releaseEntry(Addr paddr, Done done)
{
    if (shadowEntry(paddr) != mem::ActionEntry::Ignore)
        writeTable(paddr, mem::ActionEntry::Ignore, std::move(done));
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
    if (timing_.deadOwnerTimeoutNs == 0 ||
        events_.now() - started < timing_.deadOwnerTimeoutNs)
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
    ++loop.tries;
    watchdogCheck(operation, 0, 0, paddr, loop.tries, loop.started);
    return deadOwnerCheck(operation, 0, paddr, loop.tries, loop.started);
}

void
ProtocolClient::writeBack(std::uint64_t frame, PageBuffer data,
                          mem::ActionEntry after, Counter &aborts,
                          Done done)
{
    ++writeBacks_;
    writeBackAttempt(frame, std::move(data), after, aborts,
                     std::move(done), RetryLoop{0, events_.now()});
}

void
ProtocolClient::writeBackAttempt(std::uint64_t frame, PageBuffer data,
                                 mem::ActionEntry after, Counter &aborts,
                                 Done done, RetryLoop loop)
{
    const Addr base = frame * pageBytes_;
    const std::uint8_t *bytes = data->data();
    copier_.writeBackPage(
        base, bytes, pageBytes_, after,
        [this, frame, base, data = std::move(data), after, &aborts,
         done = std::move(done), loop](const mem::TxResult &res) mutable {
            if (!res.aborted) {
                setShadow(frame, after);
                done();
                return;
            }
            // Only another master's stale entry can abort a write-back
            // (we own the page); it clears once that master services
            // its interrupt, so a plain jittered retry converges.
            ++aborts;
            if (retryAbandoned("write-back", base, loop)) {
                // The aborting board is dead: the page's data is lost,
                // but our own entry must not stay stale. The table write
                // is never aborted, so this always completes.
                if (after == mem::ActionEntry::Protect)
                    done();
                else
                    writeTable(base, after, std::move(done));
                return;
            }
            afterSoftware(retryDelay(), [this, frame, data, after,
                                         &aborts, done, loop] {
                writeBackAttempt(frame, data, after, aborts, done, loop);
            });
        });
}

// --------------------------------------------------------------------
// Interrupt service
// --------------------------------------------------------------------

void
ProtocolClient::serviceInterrupts(Done done)
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
        events_.scheduleIn(timing_.serviceNs,
                           [done = std::move(done)] { done(); },
                           "svc-wedged");
        return;
    }
    if (!interruptPending()) {
        done();
        return;
    }
    // One drain per client: a call while it runs joins it.
    service_.waiters.push_back(std::move(done));
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
        recoverFromOverflow([this] { drain(); });
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
        // next drain.
        const auto waiters = std::exchange(service_.waiters, {});
        for (const Done &waiter : waiters)
            waiter();
        return;
    }
    ++serviceEpoch_;
    // slowFactor_ is 1 on a healthy board — multiplying the charge by
    // one keeps the unfaulted run bit-identical.
    serviceCpuNs_ += timing_.serviceNs * slowFactor_;
    takeWord(*word, [this] { drain(); });
}

void
ProtocolClient::serviceQueued(Done done)
{
    if (const auto word = monitor_.fifo().pop()) {
        takeWord(*word, [this, done = std::move(done)] {
            serviceQueued(done);
        });
        return;
    }
    done();
}

void
ProtocolClient::takeWord(const monitor::InterruptWord &word, Done next)
{
    ++wordsServiced_;
    VMP_DTRACE(debug::Monitor, events_.now(), kind_, id_,
               " service word ", mem::txTypeName(word.type), " pa=0x",
               std::hex, word.paddr, std::dec, " from=", word.requester,
               word.aborted ? " (aborted)" : "");
    afterSoftware(timing_.serviceNs * slowFactor_,
                  [this, word, next = std::move(next)] {
                      serviceWord(word, next);
                  });
}

void
ProtocolClient::recoverOverflow(std::vector<std::uint64_t> frames,
                                FrameStep drop, Done done)
{
    monitor_.fifo().clearOverflow();
    ++recoveries_;
    releaseFrames(
        std::make_shared<std::vector<std::uint64_t>>(std::move(frames)),
        std::move(drop), std::move(done));
}

void
ProtocolClient::releaseFrames(
    std::shared_ptr<std::vector<std::uint64_t>> frames, FrameStep drop,
    Done done)
{
    if (frames->empty()) {
        done();
        return;
    }
    const std::uint64_t frame = frames->back();
    frames->pop_back();
    Done release = [this, frame, frames, drop, done = std::move(done)] {
        releaseEntry(frame * pageBytes_, [this, frames, drop, done] {
            releaseFrames(frames, drop, done);
        });
    };
    if (drop)
        drop(frame, std::move(release));
    else
        release();
}

} // namespace vmp::proto
