#include "proto/controller.hh"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vmp::proto
{

namespace
{

/** Does a protection flag set permit this access? (Mirrors the cache.) */
bool
protPermits(cache::SlotFlags prot, bool write, bool supervisor)
{
    using namespace vmp::cache;
    if (supervisor)
        return !write || (prot & FlagSupWritable);
    return write ? (prot & FlagUserWritable) != 0
                 : (prot & FlagUserReadable) != 0;
}

/** A continuation running @p done on its second call: the join of two
 *  overlapped branches. */
CacheController::Done
joinOfTwo(CacheController::Done done)
{
    auto remaining = std::make_shared<int>(2);
    return [remaining, done = std::move(done)] {
        if (--*remaining == 0)
            done();
    };
}

} // namespace

std::string
WatchdogReport::toString() const
{
    std::ostringstream os;
    os << "cpu" << cpu << " " << operation << " starved: " << attempts
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

CacheController::CacheController(CpuId cpu, EventQueue &events,
                                 cache::Cache &cache,
                                 monitor::BusMonitor &busMonitor,
                                 mem::VmeBus &bus,
                                 Translator &translator,
                                 const SoftwareTiming &timing)
    : cpuId_(cpu), events_(events), cache_(cache), monitor_(busMonitor),
      bus_(bus), copier_(cpu, bus), translator_(translator),
      timing_(timing), rng_(0x9E3779B9u * (cpu + 1) + 0x1234),
      slotFrame_(cache.config().totalSlots(), noFrame),
      aliasNext_(cache.config().totalSlots(), cache::noSlot)
{
    misses_.reserve(4);
    // The board's service software takes its own interrupt line; the
    // IrqService mode says whether the line starts an idle pass.
    monitor_.setInterruptLine([this] { pokeIdle(); });
}

CacheController::~CacheController()
{
    monitor_.setInterruptLine(nullptr);
    events_.deschedule(idlePass_);
}

Tick
CacheController::retryDelay()
{
    Tick delay = timing_.retryNs;
    if (timing_.retryJitterNs > 0)
        delay += rng_.below(timing_.retryJitterNs + 1);
    return delay;
}

void
CacheController::setFaultHandler(FaultHandler handler)
{
    faultHandler_ = std::move(handler);
}

void
CacheController::setNotifyHandler(NotifyHandler handler)
{
    notifyHandler_ = std::move(handler);
}

void
CacheController::setWatchdog(std::uint64_t max_retries,
                             WatchdogHandler handler)
{
    watchdogCap_ = max_retries;
    watchdogHandler_ = std::move(handler);
}

void
CacheController::setFaultHooks(mem::FaultHooks *hooks)
{
    copier_.setFaultHooks(hooks);
}

void
CacheController::setTracer(obs::EventTracer *tracer,
                           std::uint16_t track)
{
    tracer_ = tracer;
    traceTrack_ = track;
    // A miss in flight stays untraced: its earlier phases were never
    // emitted.
    for (MissRecord &m : misses_)
        m.traced = false;
    copier_.setTracer(tracer, track);
}

// --------------------------------------------------------------------
// Tracing (pure observation; every helper is a no-op without a tracer)
// --------------------------------------------------------------------

void
CacheController::traceClosePhase(const MissRecord &m)
{
    const Tick now = events_.now();
    if (now == m.phaseStartedAt)
        return; // empty phase: contributes nothing
    obs::TraceEvent event;
    event.kind = obs::EventKind::MissPhase;
    event.at = m.phaseStartedAt;
    event.arg0 = now - m.phaseStartedAt;
    event.master = cpuId_;
    event.track = traceTrack_;
    event.aux = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(m.phase) | nestedAux());
    tracer_->record(event);
}

void
CacheController::tracePhase(obs::MissPhase phase)
{
    MissRecord &m = misses_.back();
    if (m.phase == phase)
        return;
    if (m.traced)
        traceClosePhase(m);
    m.phase = phase;
    m.phaseStartedAt = events_.now();
}

void
CacheController::traceMissEnd(const MissRecord &m)
{
    traceClosePhase(m);
    obs::TraceEvent event;
    event.kind = obs::EventKind::Miss;
    event.at = m.started;
    event.arg0 = events_.now() - m.started;
    event.arg1 = m.retries;
    event.master = cpuId_;
    event.track = traceTrack_;
    event.aux = static_cast<std::uint8_t>((m.dirty ? 1u : 0u) |
                                          (m.kind << 1) | nestedAux());
    tracer_->record(event);
}

void
CacheController::watchdogCheck(const char *operation, Asid asid,
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
    report.cpu = cpuId_;
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
CacheController::deadOwnerCheck(const char *operation, Addr vaddr,
                                Addr paddr, std::uint64_t attempts,
                                Tick started)
{
    if (timing_.deadOwnerTimeoutNs == 0 ||
        events_.now() - started < timing_.deadOwnerTimeoutNs)
        return false;
    ++deadOwnerErrors_;
    DeadOwnerError error;
    error.cpu = cpuId_;
    error.operation = operation;
    error.paddr = paddr;
    error.vaddr = vaddr;
    error.attempts = attempts;
    error.started = started;
    error.now = events_.now();
    error.ownerKnownDead = deadOracle_ != nullptr && paddr != 0 &&
        deadOracle_->isFrameOwnerDead(paddr);
    lastDeadOwnerError_ = error;
    VMP_DTRACE(debug::Recover, events_.now(), "cpu", cpuId_,
               " abandoning timed wait: ", error.toString());
    if (deadOwnerHandler_) {
        deadOwnerHandler_(error);
    } else {
        warn("dead-owner timeout: ", error.toString());
    }
    return true;
}

void
CacheController::failstop()
{
    // The board's management software and cache contents are gone; the
    // bus-side monitor hardware (action table, FIFO) keeps running and
    // is handled by recovery / rejoin.
    dead_ = true;
    const auto total =
        static_cast<cache::SlotIndex>(cache_.config().totalSlots());
    for (cache::SlotIndex s = 0; s < total; ++s)
        cache_.invalidate(s);
    frames_.clear();
    std::fill(slotFrame_.begin(), slotFrame_.end(), noFrame);
    shadow_.clear();
    // The in-flight reference's retry count is software state too.
    for (MissRecord &m : misses_)
        m.retries = 0;
    VMP_DTRACE(debug::Recover, events_.now(), "cpu", cpuId_,
               " failstop: local state wiped");
}

void
CacheController::rejoin()
{
    dead_ = false;
    for (MissRecord &m : misses_)
        m.retries = 0;
    // Cold software restart also clears partial-failure seam state:
    // the restarted service loop is neither wedged nor slow.
    wedged_ = false;
    slowFactor_ = 1;
    VMP_DTRACE(debug::Recover, events_.now(), "cpu", cpuId_,
               " rejoin: cold restart");
}

void
CacheController::setServiceSlowdown(std::uint64_t factor)
{
    if (factor == 0)
        panic("cpu", cpuId_, ": service slowdown factor must be >= 1");
    slowFactor_ = factor;
}

void
CacheController::finishMiss()
{
    MissRecord &m = misses_.back();
    missStall_ += events_.now() - m.started;
    retryHistogram_.sample(static_cast<double>(m.retries));
    if (m.traced)
        traceMissEnd(m);
    // Pop before continuing: the continuation may trap the next miss.
    const AccessDone done = std::move(m.done);
    misses_.pop_back();
    done(AccessOutcome::MissCompleted);
}

std::uint32_t
CacheController::pageBytes() const
{
    return cache_.config().pageBytes;
}

std::uint64_t
CacheController::frameOf(Addr paddr) const
{
    return paddr / pageBytes();
}

Addr
CacheController::frameBase(Addr paddr) const
{
    return alignDown(paddr, pageBytes());
}

void
CacheController::afterSoftware(Tick delay, Done fn)
{
    events_.scheduleIn(delay, std::move(fn), "sw");
}

// --------------------------------------------------------------------
// Reference entry point
// --------------------------------------------------------------------

void
CacheController::access(Asid asid, Addr vaddr, bool write,
                        bool supervisor, AccessDone done)
{
    const auto res = lookup(asid, vaddr, write, supervisor);
    if (res.hit) {
        done(AccessOutcome::Hit);
        return;
    }
    miss(res, asid, vaddr, write, supervisor, std::move(done));
}

void
CacheController::miss(const cache::AccessResult &res, Asid asid,
                      Addr vaddr, bool write, bool supervisor,
                      AccessDone done)
{
    ++missCount_;
    VMP_DTRACE(debug::Proto, events_.now(), "cpu", cpuId_, " miss ",
               (write ? "W" : "R"), " va=0x", std::hex, vaddr,
               std::dec, " asid=", unsigned{asid});
    MissRecord &m = misses_.emplace_back();
    m.req = TranslateRequest{asid, vaddr, write, supervisor};
    m.started = events_.now();
    m.done = std::move(done);
    m.phaseStartedAt = m.started;
    m.traced = tracer_ != nullptr;
    switch (res.miss) {
      case cache::MissKind::WriteShared:
        ++ownershipCount_;
        m.kind = 1;
        break;
      case cache::MissKind::Protection:
        m.kind = 2;
        break;
      default:
        break;
    }
    dispatchMiss(res);
}

void
CacheController::dispatchMiss(const cache::AccessResult &res)
{
    switch (res.miss) {
      case cache::MissKind::NoMatch:
        trapAndTranslate([this](const TranslateResult &result) {
            missWithTranslation(result);
        });
        return;
      case cache::MissKind::WriteShared: {
        const cache::SlotIndex slot = res.slot;
        const std::uint64_t frame = slotFrame_[slot];
        if (frame == noFrame)
            panic("cpu", cpuId_, ": ownership miss on untracked slot");
        // The handler consults the page tables before granting write
        // access: this re-validates protection against a concurrent
        // mapping change and lets the VM system maintain the PTE
        // modified bit (Section 3.4).
        trapAndTranslate([this, slot, frame](
                             const TranslateResult &result) {
            upgradeOwnership(slot, frame, result);
        });
        return;
      }
      case cache::MissKind::Protection:
        trapAndTranslate([this, slot = res.slot](
                             const TranslateResult &result) {
            refreshProtection(slot, result);
        });
        return;
      case cache::MissKind::None:
        break;
    }
    panic("miss dispatch with MissKind::None");
}

void
CacheController::trapAndTranslate(TranslateDone next)
{
    tracePhase(obs::MissPhase::Trap);
    afterSoftware(timing_.trapEntryNs, [this, next = std::move(next)] {
        // A copy: the walk may push a nested miss onto misses_.
        const TranslateRequest req = misses_.back().req;
        translator_.translate(
            req, *this,
            [this, req, next](const TranslateResult &result) {
                if (result.ok &&
                    protPermits(result.prot, req.write, req.supervisor)) {
                    next(result);
                    return;
                }
                if (!faultHandler_)
                    fatal(result.ok ? "protection" : "page",
                          " fault at 0x", std::hex, req.vaddr, std::dec,
                          " (asid ", unsigned{req.asid},
                          ") with no fault handler installed");
                faultHandler_(req, [this] { retryAccess(); });
            });
    });
}

void
CacheController::retryAccess()
{
    // The processor re-traps on the retried instruction; pending
    // monitor interrupts are taken first, which is what resolves the
    // self-competition (alias) aborts.
    MissRecord &m = misses_.back();
    ++retryCount_;
    const std::uint64_t retries = ++m.retries;
    const TranslateRequest req = m.req;
    const Tick started = m.started;
    tracePhase(obs::MissPhase::ConsistencyWait);
    watchdogCheck("access", req.asid, req.vaddr, 0, retries, started);
    if (deadOwnerCheck("access", req.vaddr, 0, retries, started)) {
        // Timed wait expired: the board that must release the page is
        // not answering. Abandon the access — the reference completes
        // *without* a cache fill (the caller sees MissCompleted and a
        // DeadOwnerError); readWord/writeWord must not be used against
        // potentially-stranded frames for this reason.
        finishMiss();
        return;
    }
    serviceInterrupts([this] {
        afterSoftware(retryDelay(), [this] {
            const TranslateRequest &req = misses_.back().req;
            const auto res = cache_.access(req.asid, req.vaddr,
                                           req.write, req.supervisor);
            if (res.hit)
                finishMiss();
            else
                dispatchMiss(res);
        });
    });
}

// --------------------------------------------------------------------
// Full miss: trap, translate, retire victim, block-copy fill
// --------------------------------------------------------------------

void
CacheController::missWithTranslation(const TranslateResult &result)
{
    const cache::SlotIndex victim =
        cache_.victimFor(misses_.back().req.vaddr);
    tracePhase(obs::MissPhase::VictimWriteback);
    retireVictim(victim, [this, result, victim] {
        tracePhase(obs::MissPhase::TableLookup);
        afterSoftware(timing_.postNs, [this, result, victim] {
            issueFill(result, victim);
        });
    });
}

void
CacheController::forgetSlot(cache::SlotIndex slot)
{
    const std::uint64_t frame = slotFrame_[slot];
    if (frame == noFrame)
        return;
    slotFrame_[slot] = noFrame;
    // A tracked slot always has its frame's entry (invariant I7).
    const auto info_it = frames_.find(frame);
    cache::SlotIndex *link = &info_it->second.firstSlot;
    while (*link != slot)
        link = &aliasNext_[*link];
    *link = aliasNext_[slot];
    // Drop the frame bookkeeping once no slot caches it any more.
    if (info_it->second.firstSlot == cache::noSlot)
        frames_.erase(info_it);
}

CacheController::PageBuffer
CacheController::copyPage(cache::SlotIndex slot) const
{
    const auto page = cache_.pageData(slot);
    return std::make_shared<const std::vector<std::uint8_t>>(page.begin(),
                                                             page.end());
}

CacheController::PageBuffer
CacheController::dropFrameSlots(std::uint64_t frame,
                                cache::SlotIndex keep)
{
    PageBuffer dirty;
    const auto info_it = frames_.find(frame);
    if (info_it == frames_.end())
        return dirty;
    // Read each link before forgetSlot unlinks the slot (and, with the
    // last one, erases the entry). At most one slot is modified:
    // acquiring a frame discards its aliases.
    for (cache::SlotIndex slot = info_it->second.firstSlot, next;
         slot != cache::noSlot; slot = next) {
        next = aliasNext_[slot];
        if (slot == keep)
            continue;
        const cache::Slot &s = cache_.slot(slot);
        if (s.valid() && s.modified())
            dirty = copyPage(slot);
        cache_.invalidate(slot);
        forgetSlot(slot);
    }
    return dirty;
}

void
CacheController::retireVictim(cache::SlotIndex victim, Done done)
{
    cache::Slot &slot = cache_.slot(victim);
    if (!slot.valid()) {
        afterSoftware(timing_.overlapNs, std::move(done));
        return;
    }

    const std::uint64_t frame = slotFrame_[victim];
    if (frame == noFrame)
        panic("cpu", cpuId_, ": valid victim slot ", victim,
              " has no frame bookkeeping");

    if (slot.modified()) {
        // Dirty implies privately owned: write the page back,
        // releasing ownership (entry -> 00), overlapped with up to
        // overlapNs of bookkeeping.
        misses_.back().dirty = true;
        auto buffer = copyPage(victim);
        forgetSlot(victim);
        cache_.invalidate(victim);
        const Done join = joinOfTwo(std::move(done));
        writeBack(frame, std::move(buffer), mem::ActionEntry::Ignore,
                  join);
        afterSoftware(timing_.overlapNs, join);
        return;
    }

    // Clean victim.
    const auto info_it = frames_.find(frame);
    const bool was_private = info_it != frames_.end() &&
        info_it->second.state == FrameState::Private;
    forgetSlot(victim);
    cache_.invalidate(victim);

    if (was_private && frames_.find(frame) == frames_.end()) {
        // A privately held (but clean) page is being dropped: the
        // Protect entry must not go stale or it would abort every
        // other master's access to the frame forever. Release it with
        // an explicit action-table write, overlapped with bookkeeping.
        const Done join = joinOfTwo(std::move(done));
        writeActionTable(frame * pageBytes(), mem::ActionEntry::Ignore,
                         join);
        afterSoftware(timing_.overlapNs, join);
    } else {
        // Shared (or still-aliased) victim: leave the 01 entry stale;
        // a later spurious interrupt cleans it up lazily. This keeps
        // the common replacement path free of extra bus transactions.
        afterSoftware(timing_.overlapNs, std::move(done));
    }
}

void
CacheController::issueFill(const TranslateResult &result,
                           cache::SlotIndex victim)
{
    const Addr base = frameBase(result.paddr);
    const std::uint64_t frame = frameOf(result.paddr);
    tracePhase(obs::MissPhase::BlockCopy);
    auto staging =
        std::make_shared<std::vector<std::uint8_t>>(pageBytes());

    // Non-shared memory (Section 5.4 hint) is fetched with
    // read-private even on a read miss, pre-empting the later
    // assert-ownership upgrade on the first write.
    const bool write = misses_.back().req.write;
    const bool exclusive = write || result.privateHint;
    if (!write && result.privateHint)
        ++hintedPrivateFills_;
    copier_.readPage(
        base, staging->data(), pageBytes(), exclusive,
        [this, result, victim, staging, frame,
         exclusive](const mem::TxResult &res) {
            if (res.aborted) {
                // The instruction re-traps and retries (Section 2):
                // cache flags were left unchanged.
                retryAccess();
                return;
            }
            const TranslateRequest &req = misses_.back().req;
            cache::SlotFlags flags = result.prot;
            if (exclusive)
                flags = static_cast<cache::SlotFlags>(
                    flags | cache::FlagExclusive);
            cache_.fill(victim, cache_.tagFor(req.asid, req.vaddr),
                        flags);
            if (cache_.config().storeData)
                cache_.writeBytes(victim, 0, staging->data(),
                                  pageBytes());
            FrameInfo &info = frames_[frame];
            if (slotFrame_[victim] != noFrame)
                panic("cpu", cpuId_, ": fill into tracked slot ", victim);
            slotFrame_[victim] = frame;
            aliasNext_[victim] = info.firstSlot;
            info.firstSlot = victim;
            if (exclusive) {
                info.state = FrameState::Private;
                info.owningSlot = victim;
            } else {
                // Shared fill. (A private state here is impossible:
                // our own monitor would have aborted the read-shared.)
                info.state = FrameState::Shared;
                info.owningSlot = cache::noSlot;
            }
            shadow_[frame] = exclusive ? mem::ActionEntry::Protect
                                       : mem::ActionEntry::Shared;
            finishMiss();
        });
}

// --------------------------------------------------------------------
// Ownership (write-to-shared) and protection misses
// --------------------------------------------------------------------

void
CacheController::upgradeOwnership(cache::SlotIndex slot,
                                  std::uint64_t frame,
                                  const TranslateResult &result)
{
    if (frameOf(result.paddr) != frame) {
        // The mapping changed under us: drop the stale slot and redo
        // the access from scratch.
        cache_.invalidate(slot);
        forgetSlot(slot);
        retryAccess();
        return;
    }
    tracePhase(obs::MissPhase::TableLookup);
    afterSoftware(timing_.ownershipNs, [this, slot, frame] {
        mem::BusTransaction tx;
        tx.type = mem::TxType::AssertOwnership;
        tx.requester = cpuId_;
        tx.paddr = frame * pageBytes();
        tx.newEntry = mem::ActionEntry::Protect;
        tx.updatesTable = true;
        tracePhase(obs::MissPhase::ConsistencyWait);
        bus_.request(tx, [this, slot, frame](const mem::TxResult &res) {
            if (res.aborted) {
                retryAccess();
                return;
            }
            // We now own the frame exclusively. Other caches (and our
            // own aliases, via the self-echo interrupt word) discard
            // their copies in parallel.
            cache::Slot &s = cache_.slot(slot);
            if (s.valid()) {
                cache_.setFlags(slot, static_cast<cache::SlotFlags>(
                                          s.flags |
                                          cache::FlagExclusive));
            }
            FrameInfo &info = frames_[frame];
            info.state = FrameState::Private;
            info.owningSlot = slot;
            shadow_[frame] = mem::ActionEntry::Protect;
            finishMiss();
        });
    });
}

void
CacheController::refreshProtection(cache::SlotIndex slot,
                                   const TranslateResult &result)
{
    // The page tables grant the access: refresh the slot's protection
    // flags and retry (the retry resolves any remaining ownership
    // requirement).
    cache::Slot &s = cache_.slot(slot);
    if (s.valid()) {
        const cache::SlotFlags keep = static_cast<cache::SlotFlags>(
            s.flags & (cache::FlagModified | cache::FlagExclusive));
        cache_.setFlags(slot, static_cast<cache::SlotFlags>(
                                  cache::FlagValid | result.prot |
                                  keep));
    }
    retryAccess();
}

// --------------------------------------------------------------------
// Data plane
// --------------------------------------------------------------------

void
CacheController::readWord(Asid asid, Addr vaddr, bool supervisor,
                          std::function<void(std::uint32_t)> done)
{
    access(asid, vaddr, false, supervisor,
           [this, asid, vaddr, supervisor,
            done = std::move(done)](AccessOutcome) {
               const auto res =
                   cache_.probe(asid, vaddr, false, supervisor);
               if (!res.hit)
                   panic("cpu", cpuId_,
                         ": readWord probe missed after access");
               std::uint32_t value = 0;
               cache_.readBytes(res.slot, cache_.offsetOf(vaddr),
                                &value, sizeof(value));
               done(value);
           });
}

void
CacheController::writeWord(Asid asid, Addr vaddr, std::uint32_t value,
                           bool supervisor, Done done)
{
    access(asid, vaddr, true, supervisor,
           [this, asid, vaddr, value, supervisor,
            done = std::move(done)](AccessOutcome) {
               const auto res =
                   cache_.probe(asid, vaddr, true, supervisor);
               if (!res.hit)
                   panic("cpu", cpuId_,
                         ": writeWord probe missed after access");
               cache::Slot &s = cache_.slot(res.slot);
               s.flags = static_cast<cache::SlotFlags>(
                   s.flags | cache::FlagModified);
               cache_.writeBytes(res.slot, cache_.offsetOf(vaddr),
                                 &value, sizeof(value));
               done();
           });
}

// --------------------------------------------------------------------
// Interrupt service
// --------------------------------------------------------------------

void
CacheController::serviceInterrupts(Done done)
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
    // One drain per controller: a call while it runs joins it.
    service_.waiters.push_back(std::move(done));
    if (service_.waiters.size() > 1)
        return;
    service_.started = events_.now();
    service_.wordsBefore = serviceCount_.value();
    drainInterrupts();
}

void
CacheController::drainInterrupts()
{
    if (monitor_.fifo().overflowed()) {
        monitor_.fifo().clearOverflow();
        ++serviceEpoch_;
        recoverFromOverflow([this] { drainInterrupts(); });
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
            event.arg1 = serviceCount_.value() - service_.wordsBefore;
            event.master = cpuId_;
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
    ++serviceCount_;
    ++serviceEpoch_;
    VMP_DTRACE(debug::Monitor, events_.now(), "cpu", cpuId_,
               " service word ", mem::txTypeName(word->type), " pa=0x",
               std::hex, word->paddr, std::dec, " from=",
               word->requester, word->aborted ? " (aborted)" : "");
    // slowFactor_ is 1 on a healthy board — multiplying the charge by
    // one keeps the unfaulted run bit-identical.
    serviceCpuNs_ += timing_.serviceNs * slowFactor_;
    afterSoftware(timing_.serviceNs * slowFactor_, [this, w = *word] {
        serviceWord(w, [this] { drainInterrupts(); });
    });
}

void
CacheController::setIrqService(IrqService mode)
{
    irqService_ = mode;
    if (mode == IrqService::Idle && interruptPending())
        pokeIdle();
}

void
CacheController::pokeIdle()
{
    // One pass per burst: lines raised while a pass is scheduled or
    // draining are picked up by its re-poke.
    if (irqService_ != IrqService::Idle || idlePassLive_)
        return;
    idlePassLive_ = true;
    idlePass_ = events_.scheduleIn(1, [this] {
        if (irqService_ == IrqService::Off) {
            // The board went Off (its CPU halted) after the line rose.
            idlePassLive_ = false;
            return;
        }
        serviceInterrupts([this] {
            idlePassLive_ = false;
            // A dead board's words wait for recovery or a rejoin;
            // polling them would spin.
            if (irqService_ == IrqService::Idle && !dead_ &&
                interruptPending())
                pokeIdle();
        });
    }, "idle-service");
}

void
CacheController::serviceWord(const monitor::InterruptWord &word,
                             Done next)
{
    const std::uint64_t frame = frameOf(word.paddr);
    const Addr base = frame * pageBytes();
    const auto info_it = frames_.find(frame);

    switch (word.type) {
      case mem::TxType::Notify:
        if (notifyHandler_)
            notifyHandler_(word.paddr);
        next();
        return;

      case mem::TxType::WriteBack:
        // We aborted someone's write-back. The writer owns the page,
        // so any entry (or copy) we still have for the frame is stale
        // — typically a lazily-left 01 from a clean replacement. Clear
        // it so the writer's retry can succeed; a dirty copy of our
        // own here would be a genuine protocol violation.
        if (dropFrameSlots(frame))
            ++violationCount_;
        frames_.erase(frame);
        if (shadowEntry(base) != mem::ActionEntry::Ignore)
            ++spuriousCount_;
        releaseEntry(base, std::move(next));
        return;

      case mem::TxType::ReadShared:
      case mem::TxType::ReadPrivate:
      case mem::TxType::AssertOwnership:
        if (info_it == frames_.end()) {
            // Stale entry with no bookkeeping: clean it up.
            ++spuriousCount_;
            releaseEntry(base, std::move(next));
            return;
        }
        if (word.type == mem::TxType::ReadShared) {
            // Only queued when we aborted it: we hold the frame
            // privately (possibly via an alias of our own). Downgrade
            // to shared.
            downgradeFrame(frame, std::move(next));
            return;
        }
        if (word.requester == cpuId_ && !word.aborted) {
            // Echo of our own successful acquisition: discard our other
            // (alias) copies of the frame, keeping the acquiring slot.
            dropFrameSlots(frame, info_it->second.owningSlot);
            next();
            return;
        }
        // Another master wants the frame privately (or we aborted our
        // own transaction against a page we hold): relinquish.
        relinquishFrame(frame, std::move(next));
        return;

      default:
        panic("cpu", cpuId_, ": unexpected interrupt word type ",
              mem::txTypeName(word.type));
    }
}

void
CacheController::relinquishFrame(std::uint64_t frame, Done next)
{
    if (frames_.find(frame) == frames_.end()) {
        next();
        return;
    }
    // Drop every slot caching this frame, keeping any dirty contents
    // for the write-back.
    PageBuffer dirty = dropFrameSlots(frame);
    frames_.erase(frame);
    if (dirty) {
        writeBack(frame, std::move(dirty), mem::ActionEntry::Ignore,
                  std::move(next));
        return;
    }
    // Clean: release via an explicit action-table write when the entry
    // could be non-00 (shared copies or clean private).
    releaseEntry(frame * pageBytes(), std::move(next));
}

void
CacheController::downgradeFrame(std::uint64_t frame, Done next)
{
    const Addr base = frame * pageBytes();
    const auto info_it = frames_.find(frame);
    if (info_it == frames_.end()) {
        next();
        return;
    }
    // Clear exclusive/modified on our copies, capturing dirty data.
    PageBuffer dirty;
    bool any_slot = false;
    for (cache::SlotIndex slot = info_it->second.firstSlot;
         slot != cache::noSlot; slot = aliasNext_[slot]) {
        cache::Slot &s = cache_.slot(slot);
        if (!s.valid())
            continue;
        any_slot = true;
        if (s.modified())
            dirty = copyPage(slot);
        s.flags = static_cast<cache::SlotFlags>(
            s.flags & ~(cache::FlagExclusive | cache::FlagModified));
    }

    if (!any_slot) {
        // Ownership held without a cached copy (DMA bracket): release
        // it entirely rather than leaving a stale shared entry.
        frames_.erase(info_it);
        writeActionTable(base, mem::ActionEntry::Ignore,
                         std::move(next));
        return;
    }

    FrameInfo &info = info_it->second;
    info.state = FrameState::Shared;
    info.owningSlot = cache::noSlot;

    if (dirty) {
        writeBack(frame, std::move(dirty), mem::ActionEntry::Shared,
                  std::move(next));
        return;
    }
    // Clean private copy: memory is already current; just move the
    // entry from 10 to 01.
    writeActionTable(base, mem::ActionEntry::Shared, std::move(next));
}

void
CacheController::recoverFromOverflow(Done done)
{
    ++recoveryCount_;
    // Conservative recovery (Section 3.3): discard every shared entry
    // and clear the matching action-table entries. Privately owned
    // pages are safe — requests against them are aborted and retried,
    // so their interrupt words regenerate.
    auto shared_frames = std::make_shared<std::vector<std::uint64_t>>();
    for (const auto &[frame, info] : frames_) {
        if (info.state == FrameState::Shared)
            shared_frames->push_back(frame);
    }
    for (const auto frame : *shared_frames) {
        dropFrameSlots(frame);
        frames_.erase(frame);
    }
    // Clear the table entries one bus write at a time.
    releaseEntries(std::move(shared_frames), std::move(done));
}

void
CacheController::releaseEntry(Addr base, Done done)
{
    if (shadowEntry(base) != mem::ActionEntry::Ignore)
        writeActionTable(base, mem::ActionEntry::Ignore, std::move(done));
    else
        done();
}

void
CacheController::releaseEntries(
    std::shared_ptr<std::vector<std::uint64_t>> frames, Done done)
{
    if (frames->empty()) {
        done();
        return;
    }
    const Addr base = frames->back() * pageBytes();
    frames->pop_back();
    releaseEntry(base, [this, frames, done = std::move(done)] {
        releaseEntries(frames, done);
    });
}

// --------------------------------------------------------------------
// Bus retry loops
// --------------------------------------------------------------------

bool
CacheController::retryAbandoned(const char *operation, Addr base,
                                RetryLoop &loop)
{
    ++loop.tries;
    watchdogCheck(operation, 0, 0, base, loop.tries, loop.started);
    return deadOwnerCheck(operation, 0, base, loop.tries, loop.started);
}

void
CacheController::writeBack(std::uint64_t frame, PageBuffer data,
                           mem::ActionEntry after, Done done)
{
    ++writeBackCount_;
    writeBackAttempt(frame, std::move(data), after, std::move(done),
                     RetryLoop{0, events_.now()});
}

void
CacheController::writeBackAttempt(std::uint64_t frame, PageBuffer data,
                                  mem::ActionEntry after, Done done,
                                  RetryLoop loop)
{
    const Addr base = frame * pageBytes();
    const std::uint8_t *bytes = data->data();
    copier_.writeBackPage(
        base, bytes, pageBytes(), after,
        [this, frame, base, data = std::move(data), after,
         done = std::move(done), loop](const mem::TxResult &res) mutable {
            if (!res.aborted) {
                shadow_[frame] = after;
                done();
                return;
            }
            // An abort can only come from another monitor's stale entry
            // and resolves once that processor services its interrupt.
            ++violationCount_;
            if (retryAbandoned("write-back", base, loop)) {
                // The aborting board is dead: the page's data is lost,
                // but our own entry must not stay stale. The table write
                // is never aborted, so this always completes.
                if (after == mem::ActionEntry::Protect)
                    done();
                else
                    writeActionTable(base, after, std::move(done));
                return;
            }
            afterSoftware(retryDelay(), [this, frame, data, after, done,
                                         loop] {
                writeBackAttempt(frame, data, after, done, loop);
            });
        });
}

// --------------------------------------------------------------------
// VM / synchronization support operations
// --------------------------------------------------------------------

void
CacheController::assertOwnership(Addr paddr, Done done)
{
    const auto info_it = frames_.find(frameOf(paddr));
    if (info_it != frames_.end() &&
        info_it->second.state == FrameState::Private) {
        done();
        return;
    }
    assertOwnershipAttempt(frameBase(paddr), std::move(done),
                           RetryLoop{0, events_.now()});
}

void
CacheController::assertOwnershipAttempt(Addr base, Done done,
                                        RetryLoop loop)
{
    mem::BusTransaction tx;
    tx.type = mem::TxType::AssertOwnership;
    tx.requester = cpuId_;
    tx.paddr = base;
    tx.newEntry = mem::ActionEntry::Protect;
    tx.updatesTable = true;
    bus_.request(tx, [this, base, done = std::move(done),
                      loop](const mem::TxResult &res) mutable {
        if (res.aborted) {
            ++retryCount_;
            if (retryAbandoned("assert-ownership", base, loop)) {
                // Abandoned: the caller continues *without* ownership
                // and must consult deadOwnerErrors() before relying on
                // exclusivity.
                done();
                return;
            }
            // Service our own words first: the abort may be our own
            // monitor protecting an alias we hold.
            serviceInterrupts([this, base, done, loop] {
                afterSoftware(retryDelay(), [this, base, done, loop] {
                    assertOwnershipAttempt(base, done, loop);
                });
            });
            return;
        }
        const std::uint64_t frame = frameOf(base);
        FrameInfo &info = frames_[frame];
        info.state = FrameState::Private;
        info.owningSlot = cache::noSlot;
        shadow_[frame] = mem::ActionEntry::Protect;
        done();
    });
}

void
CacheController::releaseProtection(Addr paddr, Done done)
{
    const auto info_it = frames_.find(frameOf(paddr));
    const bool has_slots = info_it != frames_.end() &&
        info_it->second.firstSlot != cache::noSlot;
    if (info_it != frames_.end()) {
        if (has_slots) {
            info_it->second.state = FrameState::Shared;
            info_it->second.owningSlot = cache::noSlot;
        } else {
            frames_.erase(info_it);
        }
    }
    writeActionTable(paddr,
                     has_slots ? mem::ActionEntry::Shared
                               : mem::ActionEntry::Ignore,
                     std::move(done));
}

void
CacheController::notifyFrame(Addr paddr, Done done)
{
    notifyAttempt(frameBase(paddr), std::move(done),
                  RetryLoop{0, events_.now()});
}

void
CacheController::notifyAttempt(Addr base, Done done, RetryLoop loop)
{
    mem::BusTransaction tx;
    tx.type = mem::TxType::Notify;
    tx.requester = cpuId_;
    tx.paddr = base;
    bus_.request(tx, [this, base, done = std::move(done),
                      loop](const mem::TxResult &res) mutable {
        // An abandoned notification just completes (best-effort).
        if (!res.aborted || retryAbandoned("notify", base, loop)) {
            done();
            return;
        }
        afterSoftware(retryDelay(), [this, base, done, loop] {
            notifyAttempt(base, done, loop);
        });
    });
}

void
CacheController::writeActionTable(Addr paddr, mem::ActionEntry entry,
                                  Done done)
{
    mem::BusTransaction tx;
    tx.type = mem::TxType::WriteActionTable;
    tx.requester = cpuId_;
    tx.paddr = frameBase(paddr);
    tx.newEntry = entry;
    tx.updatesTable = true;
    const std::uint64_t frame = frameOf(paddr);
    bus_.request(tx, [this, frame, entry,
                      done = std::move(done)](const mem::TxResult &) {
        shadow_[frame] = entry;
        done();
    });
}

void
CacheController::uncachedRead(Addr paddr,
                              std::function<void(std::uint32_t)> done)
{
    auto buf = std::make_shared<std::uint32_t>(0);
    mem::BusTransaction tx;
    tx.type = mem::TxType::DmaRead;
    tx.requester = cpuId_;
    tx.paddr = paddr;
    tx.bytes = 4;
    tx.data = reinterpret_cast<std::uint8_t *>(buf.get());
    bus_.request(tx, [buf, done = std::move(done)](const mem::TxResult &) {
        done(*buf);
    });
}

void
CacheController::uncachedWrite(Addr paddr, std::uint32_t value,
                               Done done)
{
    auto buf = std::make_shared<std::uint32_t>(value);
    mem::BusTransaction tx;
    tx.type = mem::TxType::DmaWrite;
    tx.requester = cpuId_;
    tx.paddr = paddr;
    tx.bytes = 4;
    tx.data = reinterpret_cast<std::uint8_t *>(buf.get());
    bus_.request(tx,
                 [buf, done = std::move(done)](const mem::TxResult &) {
                     done();
                 });
}

void
CacheController::uncachedTas(Addr paddr,
                             std::function<void(std::uint32_t)> done)
{
    auto new_value = std::make_shared<std::uint32_t>(1);
    auto old_value = std::make_shared<std::uint32_t>(0);
    mem::BusTransaction tx;
    tx.type = mem::TxType::DmaWrite;
    tx.requester = cpuId_;
    tx.paddr = paddr;
    tx.bytes = 4;
    tx.data = reinterpret_cast<std::uint8_t *>(new_value.get());
    tx.rmw = true;
    tx.oldData = reinterpret_cast<std::uint8_t *>(old_value.get());
    bus_.request(tx, [new_value, old_value,
                      done = std::move(done)](const mem::TxResult &) {
        done(*old_value);
    });
}

void
CacheController::flushFrame(Addr paddr, Done done)
{
    const std::uint64_t frame = frameOf(paddr);
    PageBuffer dirty = dropFrameSlots(frame);
    // We still own the frame (protection retained for the caller).
    FrameInfo &info = frames_[frame];
    info.state = FrameState::Private;
    info.owningSlot = cache::noSlot;
    if (!dirty) {
        done();
        return;
    }
    writeBack(frame, std::move(dirty), mem::ActionEntry::Protect,
              std::move(done));
}

void
CacheController::invalidateFrame(Addr paddr)
{
    const std::uint64_t frame = frameOf(paddr);
    dropFrameSlots(frame);
    frames_.erase(frame);
}

// --------------------------------------------------------------------
// Introspection and statistics
// --------------------------------------------------------------------

const FrameInfo *
CacheController::frameInfo(Addr paddr) const
{
    const auto it = frames_.find(frameOf(paddr));
    return it == frames_.end() ? nullptr : &it->second;
}

mem::ActionEntry
CacheController::shadowEntry(Addr paddr) const
{
    const auto it = shadow_.find(frameOf(paddr));
    return it == shadow_.end() ? mem::ActionEntry::Ignore : it->second;
}

void
CacheController::registerStats(StatGroup &group) const
{
    group.addCounter("misses", "references that missed in the cache",
                     missCount_);
    group.addCounter("ownership_misses",
                     "write misses upgraded with assert-ownership",
                     ownershipCount_);
    group.addCounter("hinted_private_fills",
                     "read misses served read-private (non-shared "
                     "hint)",
                     hintedPrivateFills_);
    group.addCounter("retries", "aborted transactions retried",
                     retryCount_);
    group.addCounter("words_serviced",
                     "bus-monitor interrupt words serviced",
                     serviceCount_);
    group.addCounter("spurious_words",
                     "interrupt words against stale table entries",
                     spuriousCount_);
    group.addCounter("write_backs", "cache pages written back",
                     writeBackCount_);
    group.addCounter("protocol_violations",
                     "aborted write-backs observed", violationCount_);
    group.addCounter("overflow_recoveries",
                     "interrupt FIFO overflow recovery sweeps",
                     recoveryCount_);
    group.addCounter("watchdog_trips",
                     "retry loops that exceeded the watchdog cap",
                     watchdogTrips_);
    group.addCounter("dead_owner_suspected",
                     "watchdog cap hits attributed to a dead owner",
                     deadOwnerSuspected_);
    group.addCounter("dead_owner_errors",
                     "timed waits abandoned with a DeadOwnerError",
                     deadOwnerErrors_);
    group.addHistogram("retries_per_miss",
                       "retries needed per completed miss",
                       retryHistogram_);
}

} // namespace vmp::proto
