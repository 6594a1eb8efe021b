#include "proto/controller.hh"

#include <algorithm>
#include <array>
#include <memory>
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

} // namespace

CacheController::CacheController(CpuId cpu, EventQueue &events,
                                 cache::Cache &cache,
                                 monitor::BusMonitor &busMonitor,
                                 mem::VmeBus &bus,
                                 Translator &translator,
                                 Tick dead_owner_timeout_ns)
    : ProtocolClient("cpu", cpu, events, busMonitor, bus,
                     cache.config().pageBytes, dead_owner_timeout_ns,
                     0x9E3779B9u * (cpu + 1) + 0x1234),
      cache_(cache), translator_(translator),
      slotFrame_(cache.config().totalSlots(), noFrame),
      aliasNext_(cache.config().totalSlots(), cache::noSlot)
{
    misses_.reserve(4);
    // The board's service software takes its own interrupt line; the
    // IrqService mode says whether the line starts an idle pass.
    monitor().setInterruptLine([this] { pokeIdle(); });
}

CacheController::~CacheController()
{
    monitor().setInterruptLine(nullptr);
    events_.deschedule(idlePass_);
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
CacheController::setTracer(obs::EventTracer *tracer,
                           std::uint16_t track)
{
    ProtocolClient::setTracer(tracer, track);
    // A miss in flight stays untraced: its earlier phases were never
    // emitted.
    for (MissRecord &m : misses_)
        m.traced = false;
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
    event.master = id();
    event.track = traceTrack();
    event.aux = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(m.phase) | nestedAux());
    tracer()->record(event);
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
    event.master = id();
    event.track = traceTrack();
    event.aux = static_cast<std::uint8_t>((m.dirty ? 1u : 0u) |
                                          (m.kind << 1) | nestedAux());
    tracer()->record(event);
}

void
CacheController::failstop()
{
    // The board's management software and cache contents are gone; the
    // bus-side monitor hardware (action table, FIFO) keeps running and
    // is handled by recovery / rejoin.
    ProtocolClient::failstop();
    const auto total =
        static_cast<cache::SlotIndex>(cache_.config().totalSlots());
    for (cache::SlotIndex s = 0; s < total; ++s)
        cache_.invalidate(s);
    frames_.clear();
    std::fill(slotFrame_.begin(), slotFrame_.end(), noFrame);
    clearShadow();
    // The in-flight reference's retry count is software state too.
    for (MissRecord &m : misses_)
        m.retries = 0;
    VMP_DTRACE(debug::Recover, events_.now(), "cpu", id(),
               " failstop: local state wiped");
}

void
CacheController::rejoin()
{
    ProtocolClient::rejoin();
    for (MissRecord &m : misses_)
        m.retries = 0;
    VMP_DTRACE(debug::Recover, events_.now(), "cpu", id(),
               " rejoin: cold restart");
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
    const AccessDone done = m.done;
    misses_.pop_back();
    done();
}

// --------------------------------------------------------------------
// Reference entry point
// --------------------------------------------------------------------

void
CacheController::access(Asid asid, Addr vaddr, bool write,
                        bool supervisor, AccessCallback done)
{
    const auto res = lookup(asid, vaddr, write, supervisor);
    if (res.hit) {
        done(AccessOutcome::Hit);
        return;
    }
    miss(res, asid, vaddr, write, supervisor,
         box([done = std::move(done)] {
             done(AccessOutcome::MissCompleted);
         }));
}

void
CacheController::miss(const cache::AccessResult &res, Asid asid,
                      Addr vaddr, bool write, bool supervisor,
                      AccessDone done)
{
    ++missCount_;
    VMP_DTRACE(debug::Proto, events_.now(), "cpu", id(), " miss ",
               (write ? "W" : "R"), " va=0x", std::hex, vaddr,
               std::dec, " asid=", unsigned{asid});
    MissRecord &m = misses_.emplace_back();
    m.req = TranslateRequest{asid, vaddr, write, supervisor};
    m.started = events_.now();
    m.done = done;
    m.phaseStartedAt = m.started;
    m.traced = tracer() != nullptr;
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
    MissRecord &m = misses_.back();
    m.verdict = res.miss;
    m.slot = res.slot;
    switch (res.miss) {
      case cache::MissKind::WriteShared:
        m.frame = slotFrame_[res.slot];
        if (m.frame == noFrame)
            panic("cpu", id(), ": ownership miss on untracked slot");
        // The handler consults the page tables before granting write
        // access: this re-validates protection against a concurrent
        // mapping change and lets the VM system maintain the PTE
        // modified bit (Section 3.4).
        [[fallthrough]];
      case cache::MissKind::NoMatch:
      case cache::MissKind::Protection:
        // Trap entry, then translation.
        tracePhase(obs::MissPhase::Trap);
        afterSoftware(kTrapEntryNs,
                      Thunk::to<&CacheController::translateMiss>(this));
        return;
      case cache::MissKind::None:
        break;
    }
    panic("miss dispatch with MissKind::None");
}

void
CacheController::translateMiss()
{
    // A copy: the walk may push a nested miss onto misses_.
    const TranslateRequest req = misses_.back().req;
    translator_.translate(req, *this);
}

void
CacheController::translated(const TranslateResult &result)
{
    MissRecord &m = misses_.back();
    const TranslateRequest req = m.req;
    if (!result.ok || !protPermits(result.prot, req.write, req.supervisor)) {
        if (!faultHandler_)
            fatal(result.ok ? "protection" : "page", " fault at 0x",
                  std::hex, req.vaddr, std::dec, " (asid ",
                  unsigned{req.asid}, ") with no fault handler installed");
        faultHandler_(req, [this] { retryAccess(); });
        return;
    }
    m.result = result;
    switch (m.verdict) {
      case cache::MissKind::NoMatch:
        missWithTranslation();
        return;
      case cache::MissKind::WriteShared:
        upgradeOwnership();
        return;
      default:
        refreshProtection();
        return;
    }
}

void
CacheController::retryAccess()
{
    // The processor re-traps on the retried instruction; pending
    // monitor interrupts are taken first, which is what resolves the
    // self-competition (alias) aborts.
    MissRecord &m = misses_.back();
    ++retries();
    const std::uint64_t attempts = ++m.retries;
    const TranslateRequest req = m.req;
    const Tick started = m.started;
    tracePhase(obs::MissPhase::ConsistencyWait);
    watchdogCheck("access", req.asid, req.vaddr, 0, attempts, started);
    if (deadOwnerCheck("access", req.vaddr, 0, attempts, started)) {
        // Timed wait expired: the board that must release the page is
        // not answering. Abandon the access — the reference completes
        // *without* a cache fill (the caller sees MissCompleted and a
        // DeadOwnerError); readWord/writeWord must not be used against
        // potentially-stranded frames for this reason.
        finishMiss();
        return;
    }
    serviceInterrupts(Thunk::to<&CacheController::retryAfterService>(this));
}

void
CacheController::retryAfterService()
{
    afterSoftware(retryDelay(), Thunk::to<&CacheController::reaccess>(this));
}

void
CacheController::reaccess()
{
    const TranslateRequest &req = misses_.back().req;
    const auto res =
        cache_.access(req.asid, req.vaddr, req.write, req.supervisor);
    if (res.hit)
        finishMiss();
    else
        dispatchMiss(res);
}

void
CacheController::busDone(std::uint64_t token, const mem::TxResult &res)
{
    if (token < kOwnTokens)
        ProtocolClient::busDone(token, res);
    else if (res.aborted)
        retryAccess(); // the instruction re-traps (Section 2)
    else if (token == kFillToken)
        filled();
    else
        upgraded();
}

// --------------------------------------------------------------------
// Full miss: trap, translate, retire victim, block-copy fill
// --------------------------------------------------------------------


void
CacheController::victimJoined()
{
    if (--misses_.back().joins != 0)
        return;
    tracePhase(obs::MissPhase::TableLookup);
    afterSoftware(kPostNs,
                  Thunk::to<&CacheController::issueFill>(this));
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
    auto copy = std::make_shared<std::uint8_t[]>(pageBytes());
    std::copy(page.begin(), page.end(), copy.get());
    return copy;
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
CacheController::missWithTranslation()
{
    MissRecord &m = misses_.back();
    const cache::SlotIndex victim = m.slot = cache_.victimFor(m.req.vaddr);
    tracePhase(obs::MissPhase::VictimWriteback);
    const Thunk joined = Thunk::to<&CacheController::victimJoined>(this);
    // One branch of bookkeeping, overlapped with a second (a bus write)
    // when the victim must be written back or released.
    m.joins = 1;
    cache::Slot &slot = cache_.slot(victim);
    if (!slot.valid()) {
        afterSoftware(kOverlapNs, joined);
        return;
    }

    const std::uint64_t frame = slotFrame_[victim];
    if (frame == noFrame)
        panic("cpu", id(), ": valid victim slot ", victim,
              " has no frame bookkeeping");

    if (slot.modified()) {
        // Dirty implies privately owned: write the page back,
        // releasing ownership (entry -> 00), overlapped with up to
        // kOverlapNs of bookkeeping.
        m.dirty = true;
        m.joins = 2;
        auto buffer = copyPage(victim);
        forgetSlot(victim);
        cache_.invalidate(victim);
        writeBack(frame, std::move(buffer), mem::ActionEntry::Ignore,
                  violationCount_, joined);
        afterSoftware(kOverlapNs, joined);
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
        m.joins = 2;
        writeTable(frame * pageBytes(), mem::ActionEntry::Ignore, joined);
    }
    // Otherwise (shared or still-aliased victim) the 01 entry stays
    // stale; a later spurious interrupt cleans it up lazily. This keeps
    // the common replacement path free of extra bus transactions.
    afterSoftware(kOverlapNs, joined);
}

void
CacheController::issueFill()
{
    const MissRecord &m = misses_.back();
    tracePhase(obs::MissPhase::BlockCopy);
    // Non-shared memory (Section 5.4 hint) is fetched with
    // read-private even on a read miss, pre-empting the later
    // assert-ownership upgrade on the first write.
    const bool exclusive = m.req.write || m.result.privateHint;
    if (!m.req.write && m.result.privateHint)
        ++hintedPrivateFills_;
    copier().readPage(frameBase(m.result.paddr), staging(), pageBytes(),
                      exclusive, mem::Completion{this, kFillToken});
}

void
CacheController::filled()
{
    const MissRecord &m = misses_.back();
    const cache::SlotIndex victim = m.slot;
    const std::uint64_t frame = frameOf(m.result.paddr);
    const bool exclusive = m.req.write || m.result.privateHint;
    cache::SlotFlags flags = m.result.prot;
    if (exclusive)
        flags = static_cast<cache::SlotFlags>(flags | cache::FlagExclusive);
    cache_.fill(victim, cache_.tagFor(m.req.asid, m.req.vaddr), flags);
    if (cache_.config().storeData)
        cache_.writeBytes(victim, 0, staging(), pageBytes());
    FrameInfo &info = frames_[frame];
    if (slotFrame_[victim] != noFrame)
        panic("cpu", id(), ": fill into tracked slot ", victim);
    slotFrame_[victim] = frame;
    aliasNext_[victim] = info.firstSlot;
    info.firstSlot = victim;
    if (exclusive) {
        info.state = FrameState::Private;
        info.owningSlot = victim;
    } else {
        // Shared fill. (A private state here is impossible: our own
        // monitor would have aborted the read-shared.)
        info.state = FrameState::Shared;
        info.owningSlot = cache::noSlot;
    }
    setShadow(frame, exclusive ? mem::ActionEntry::Protect
                               : mem::ActionEntry::Shared);
    finishMiss();
}

// --------------------------------------------------------------------
// Ownership (write-to-shared) and protection misses
// --------------------------------------------------------------------

void
CacheController::upgradeOwnership()
{
    const MissRecord &m = misses_.back();
    if (frameOf(m.result.paddr) != m.frame) {
        // The mapping changed under us: drop the stale slot and redo
        // the access from scratch.
        cache_.invalidate(m.slot);
        forgetSlot(m.slot);
        retryAccess();
        return;
    }
    tracePhase(obs::MissPhase::TableLookup);
    afterSoftware(kOwnershipNs,
                  Thunk::to<&CacheController::assertMissOwnership>(this));
}

void
CacheController::assertMissOwnership()
{
    tracePhase(obs::MissPhase::ConsistencyWait);
    bus().request({.type = mem::TxType::AssertOwnership,
                   .requester = id(),
                   .paddr = misses_.back().frame * pageBytes(),
                   .newEntry = mem::ActionEntry::Protect,
                   .updatesTable = true},
                  mem::Completion{this, kUpgradeToken});
}

void
CacheController::upgraded()
{
    // We now own the frame exclusively. Other caches (and our own
    // aliases, via the self-echo interrupt word) discard their copies
    // in parallel.
    const MissRecord &m = misses_.back();
    cache::Slot &s = cache_.slot(m.slot);
    if (s.valid()) {
        cache_.setFlags(m.slot, static_cast<cache::SlotFlags>(
                                    s.flags | cache::FlagExclusive));
    }
    FrameInfo &info = frames_[m.frame];
    info.state = FrameState::Private;
    info.owningSlot = m.slot;
    setShadow(m.frame, mem::ActionEntry::Protect);
    finishMiss();
}

void
CacheController::refreshProtection()
{
    // The page tables grant the access: refresh the slot's protection
    // flags and retry (the retry resolves any remaining ownership
    // requirement).
    const MissRecord &m = misses_.back();
    cache::Slot &s = cache_.slot(m.slot);
    if (s.valid()) {
        const cache::SlotFlags keep = static_cast<cache::SlotFlags>(
            s.flags & (cache::FlagModified | cache::FlagExclusive));
        cache_.setFlags(m.slot, static_cast<cache::SlotFlags>(
                                    cache::FlagValid | m.result.prot |
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
                   panic("cpu", id(),
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
                   panic("cpu", id(),
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
            if (irqService_ == IrqService::Idle && !dead() &&
                interruptPending())
                pokeIdle();
        });
    }, "idle-service");
}

void
CacheController::serviceWord(const monitor::InterruptWord &word,
                             Thunk next)
{
    // The engine charged the service quantum; this is the per-word
    // policy of a processor board.
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
            ++spuriousWords();
        releaseEntry(base, next);
        return;

      case mem::TxType::ReadShared:
      case mem::TxType::ReadPrivate:
      case mem::TxType::AssertOwnership:
        if (info_it == frames_.end()) {
            // Stale entry with no bookkeeping: clean it up.
            ++spuriousWords();
            releaseEntry(base, next);
            return;
        }
        if (word.type == mem::TxType::ReadShared) {
            // Only queued when we aborted it: we hold the frame
            // privately (possibly via an alias of our own). Downgrade
            // to shared.
            downgradeFrame(frame, next);
            return;
        }
        if (word.requester == id() && !word.aborted) {
            // Echo of our own successful acquisition: discard our other
            // (alias) copies of the frame, keeping the acquiring slot.
            dropFrameSlots(frame, info_it->second.owningSlot);
            next();
            return;
        }
        // Another master wants the frame privately (or we aborted our
        // own transaction against a page we hold): relinquish.
        relinquishFrame(frame, next);
        return;

      default:
        panic("cpu", id(), ": unexpected interrupt word type ",
              mem::txTypeName(word.type));
    }
}

void
CacheController::relinquishFrame(std::uint64_t frame, Thunk next)
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
                  violationCount_, next);
        return;
    }
    // Clean: release via an explicit action-table write when the entry
    // could be non-00 (shared copies or clean private).
    releaseEntry(frame * pageBytes(), next);
}

void
CacheController::downgradeFrame(std::uint64_t frame, Thunk next)
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
        writeTable(base, mem::ActionEntry::Ignore, next);
        return;
    }

    FrameInfo &info = info_it->second;
    info.state = FrameState::Shared;
    info.owningSlot = cache::noSlot;

    if (dirty) {
        writeBack(frame, std::move(dirty), mem::ActionEntry::Shared,
                  violationCount_, next);
        return;
    }
    // Clean private copy: memory is already current; just move the
    // entry from 10 to 01.
    writeTable(base, mem::ActionEntry::Shared, next);
}

void
CacheController::recoverFromOverflow(Thunk done)
{
    // Conservative recovery (Section 3.3): discard every shared entry
    // and clear the matching action-table entries. Privately owned
    // pages are safe — requests against them are aborted and retried,
    // so their interrupt words regenerate.
    std::vector<std::uint64_t> shared_frames;
    for (const auto &[frame, info] : frames_) {
        if (info.state == FrameState::Shared)
            shared_frames.push_back(frame);
    }
    for (const auto frame : shared_frames) {
        dropFrameSlots(frame);
        frames_.erase(frame);
    }
    // Clear the table entries one bus write at a time, last first.
    recoverOverflow(std::move(shared_frames), {}, done);
}

std::uint64_t
CacheController::pendingWords() const
{
    const auto &fifo = monitor().fifo();
    return fifo.size() + (fifo.overflowed() ? 1 : 0);
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
    // Each retry services our own words first: the abort may be our own
    // monitor protecting an alias we hold. An abandoned loop continues
    // *without* ownership; the caller must consult deadOwnerErrors()
    // before relying on exclusivity.
    retryLoop({.type = mem::TxType::AssertOwnership,
               .requester = id(),
               .paddr = frameBase(paddr),
               .newEntry = mem::ActionEntry::Protect,
               .updatesTable = true},
              "assert-ownership", &retries(), box(std::move(done)), true);
}

void
CacheController::acquired(std::uint64_t frame)
{
    FrameInfo &info = frames_[frame];
    info.state = FrameState::Private;
    info.owningSlot = cache::noSlot;
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
    writeTable(paddr,
               has_slots ? mem::ActionEntry::Shared
                         : mem::ActionEntry::Ignore,
               box(std::move(done)));
}

void
CacheController::notifyFrame(Addr paddr, Done done)
{
    // An abandoned notification just completes (best-effort).
    retryLoop({.type = mem::TxType::Notify,
               .requester = id(),
               .paddr = frameBase(paddr)},
              "notify", nullptr, box(std::move(done)));
}

void
CacheController::uncachedWord(Addr paddr, mem::TxType type,
                              std::uint32_t value, WordDone done, bool rmw)
{
    // The word written (or read), then the old word of an rmw; both
    // live until the completion runs.
    auto words = std::make_shared<std::array<std::uint32_t, 2>>();
    (*words)[0] = value;
    auto *bytes = reinterpret_cast<std::uint8_t *>(words->data());
    bus().request({.type = type,
                   .requester = id(),
                   .paddr = paddr,
                   .bytes = 4,
                   .data = bytes,
                   .rmw = rmw,
                   .oldData = bytes + 4},
                  [words, rmw, done = std::move(done)](const mem::TxResult &) {
                      done((*words)[rmw ? 1 : 0]);
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
              violationCount_, box(std::move(done)));
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
                     retries());
    group.addCounter("words_serviced",
                     "bus-monitor interrupt words serviced",
                     wordsServiced());
    group.addCounter("spurious_words",
                     "interrupt words against stale table entries",
                     spuriousWords());
    group.addCounter("write_backs", "cache pages written back",
                     writeBacks());
    group.addCounter("protocol_violations",
                     "aborted write-backs observed", violationCount_);
    group.addCounter("overflow_recoveries",
                     "interrupt FIFO overflow recovery sweeps",
                     overflowRecoveries());
    group.addCounter("watchdog_trips",
                     "retry loops that exceeded the watchdog cap",
                     watchdogTrips());
    group.addCounter("dead_owner_suspected",
                     "watchdog cap hits attributed to a dead owner",
                     deadOwnerSuspected());
    group.addCounter("dead_owner_errors",
                     "timed waits abandoned with a DeadOwnerError",
                     deadOwnerErrors());
    group.addHistogram("retries_per_miss",
                       "retries needed per completed miss",
                       retryHistogram_);
}

} // namespace vmp::proto
