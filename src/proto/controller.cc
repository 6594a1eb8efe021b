#include "proto/controller.hh"

#include <algorithm>
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

CacheController::CacheController(CpuId cpu, EventQueue &events,
                                 cache::Cache &cache,
                                 monitor::BusMonitor &busMonitor,
                                 mem::VmeBus &bus,
                                 Translator &translator,
                                 const SoftwareTiming &timing)
    : cpuId_(cpu), events_(events), cache_(cache), translator_(translator),
      client_(*this, "cpu", cpu, events, busMonitor, bus,
              cache.config().pageBytes, timing,
              0x9E3779B9u * (cpu + 1) + 0x1234),
      slotFrame_(cache.config().totalSlots(), noFrame),
      aliasNext_(cache.config().totalSlots(), cache::noSlot)
{
    misses_.reserve(4);
    // The board's service software takes its own interrupt line; the
    // IrqService mode says whether the line starts an idle pass.
    client_.monitor().setInterruptLine([this] { pokeIdle(); });
}

CacheController::~CacheController()
{
    client_.monitor().setInterruptLine(nullptr);
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
    client_.setTracer(tracer, track);
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
    event.master = cpuId_;
    event.track = client_.traceTrack();
    event.aux = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(m.phase) | nestedAux());
    client_.tracer()->record(event);
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
    event.track = client_.traceTrack();
    event.aux = static_cast<std::uint8_t>((m.dirty ? 1u : 0u) |
                                          (m.kind << 1) | nestedAux());
    client_.tracer()->record(event);
}

void
CacheController::failstop()
{
    // The board's management software and cache contents are gone; the
    // bus-side monitor hardware (action table, FIFO) keeps running and
    // is handled by recovery / rejoin.
    client_.failstop();
    const auto total =
        static_cast<cache::SlotIndex>(cache_.config().totalSlots());
    for (cache::SlotIndex s = 0; s < total; ++s)
        cache_.invalidate(s);
    frames_.clear();
    std::fill(slotFrame_.begin(), slotFrame_.end(), noFrame);
    client_.clearShadow();
    // The in-flight reference's retry count is software state too.
    for (MissRecord &m : misses_)
        m.retries = 0;
    VMP_DTRACE(debug::Recover, events_.now(), "cpu", cpuId_,
               " failstop: local state wiped");
}

void
CacheController::rejoin()
{
    client_.rejoin();
    for (MissRecord &m : misses_)
        m.retries = 0;
    VMP_DTRACE(debug::Recover, events_.now(), "cpu", cpuId_,
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
    const AccessDone done = std::move(m.done);
    misses_.pop_back();
    done(AccessOutcome::MissCompleted);
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
    m.traced = client_.tracer() != nullptr;
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
    client_.afterSoftware(timing().trapEntryNs, [this, next = std::move(next)] {
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
    ++client_.retries();
    const std::uint64_t retries = ++m.retries;
    const TranslateRequest req = m.req;
    const Tick started = m.started;
    tracePhase(obs::MissPhase::ConsistencyWait);
    client_.watchdogCheck("access", req.asid, req.vaddr, 0, retries,
                          started);
    if (client_.deadOwnerCheck("access", req.vaddr, 0, retries, started)) {
        // Timed wait expired: the board that must release the page is
        // not answering. Abandon the access — the reference completes
        // *without* a cache fill (the caller sees MissCompleted and a
        // DeadOwnerError); readWord/writeWord must not be used against
        // potentially-stranded frames for this reason.
        finishMiss();
        return;
    }
    serviceInterrupts([this] {
        client_.afterSoftware(client_.retryDelay(), [this] {
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
        client_.afterSoftware(timing().postNs, [this, result, victim] {
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
        client_.afterSoftware(timing().overlapNs, std::move(done));
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
        client_.afterSoftware(timing().overlapNs, join);
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
        writeActionTable(frame * client_.pageBytes(), mem::ActionEntry::Ignore,
                         join);
        client_.afterSoftware(timing().overlapNs, join);
    } else {
        // Shared (or still-aliased) victim: leave the 01 entry stale;
        // a later spurious interrupt cleans it up lazily. This keeps
        // the common replacement path free of extra bus transactions.
        client_.afterSoftware(timing().overlapNs, std::move(done));
    }
}

void
CacheController::issueFill(const TranslateResult &result,
                           cache::SlotIndex victim)
{
    const Addr base = client_.frameBase(result.paddr);
    const std::uint64_t frame = client_.frameOf(result.paddr);
    tracePhase(obs::MissPhase::BlockCopy);
    auto staging =
        std::make_shared<std::vector<std::uint8_t>>(client_.pageBytes());

    // Non-shared memory (Section 5.4 hint) is fetched with
    // read-private even on a read miss, pre-empting the later
    // assert-ownership upgrade on the first write.
    const bool write = misses_.back().req.write;
    const bool exclusive = write || result.privateHint;
    if (!write && result.privateHint)
        ++hintedPrivateFills_;
    client_.copier().readPage(
        base, staging->data(), client_.pageBytes(), exclusive,
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
                                  client_.pageBytes());
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
            client_.setShadow(frame, exclusive ? mem::ActionEntry::Protect
                                               : mem::ActionEntry::Shared);
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
    if (client_.frameOf(result.paddr) != frame) {
        // The mapping changed under us: drop the stale slot and redo
        // the access from scratch.
        cache_.invalidate(slot);
        forgetSlot(slot);
        retryAccess();
        return;
    }
    tracePhase(obs::MissPhase::TableLookup);
    client_.afterSoftware(timing().ownershipNs, [this, slot, frame] {
        mem::BusTransaction tx;
        tx.type = mem::TxType::AssertOwnership;
        tx.requester = cpuId_;
        tx.paddr = frame * client_.pageBytes();
        tx.newEntry = mem::ActionEntry::Protect;
        tx.updatesTable = true;
        tracePhase(obs::MissPhase::ConsistencyWait);
        client_.bus().request(tx, [this, slot,
                                   frame](const mem::TxResult &res) {
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
            client_.setShadow(frame, mem::ActionEntry::Protect);
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
                             Done next)
{
    // The engine charged the service quantum; this is the per-word
    // policy of a processor board.
    const std::uint64_t frame = client_.frameOf(word.paddr);
    const Addr base = frame * client_.pageBytes();
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
        if (client_.shadowEntry(base) != mem::ActionEntry::Ignore)
            ++client_.spuriousWords();
        client_.releaseEntry(base, std::move(next));
        return;

      case mem::TxType::ReadShared:
      case mem::TxType::ReadPrivate:
      case mem::TxType::AssertOwnership:
        if (info_it == frames_.end()) {
            // Stale entry with no bookkeeping: clean it up.
            ++client_.spuriousWords();
            client_.releaseEntry(base, std::move(next));
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
    client_.releaseEntry(frame * client_.pageBytes(), std::move(next));
}

void
CacheController::downgradeFrame(std::uint64_t frame, Done next)
{
    const Addr base = frame * client_.pageBytes();
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
    client_.recoverOverflow(std::move(shared_frames), {}, std::move(done));
}

std::uint64_t
CacheController::pendingWords() const
{
    const auto &fifo = client_.monitor().fifo();
    return fifo.size() + (fifo.overflowed() ? 1 : 0);
}

// --------------------------------------------------------------------
// VM / synchronization support operations
// --------------------------------------------------------------------

void
CacheController::assertOwnership(Addr paddr, Done done)
{
    const auto info_it = frames_.find(client_.frameOf(paddr));
    if (info_it != frames_.end() &&
        info_it->second.state == FrameState::Private) {
        done();
        return;
    }
    assertOwnershipAttempt(client_.frameBase(paddr), std::move(done),
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
    client_.bus().request(tx, [this, base, done = std::move(done),
                      loop](const mem::TxResult &res) mutable {
        if (res.aborted) {
            ++client_.retries();
            if (client_.retryAbandoned("assert-ownership", base, loop)) {
                // Abandoned: the caller continues *without* ownership
                // and must consult deadOwnerErrors() before relying on
                // exclusivity.
                done();
                return;
            }
            // Service our own words first: the abort may be our own
            // monitor protecting an alias we hold.
            serviceInterrupts([this, base, done, loop] {
                client_.afterSoftware(client_.retryDelay(),
                                      [this, base, done, loop] {
                    assertOwnershipAttempt(base, done, loop);
                });
            });
            return;
        }
        const std::uint64_t frame = client_.frameOf(base);
        FrameInfo &info = frames_[frame];
        info.state = FrameState::Private;
        info.owningSlot = cache::noSlot;
        client_.setShadow(frame, mem::ActionEntry::Protect);
        done();
    });
}

void
CacheController::releaseProtection(Addr paddr, Done done)
{
    const auto info_it = frames_.find(client_.frameOf(paddr));
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
    notifyAttempt(client_.frameBase(paddr), std::move(done),
                  RetryLoop{0, events_.now()});
}

void
CacheController::notifyAttempt(Addr base, Done done, RetryLoop loop)
{
    mem::BusTransaction tx;
    tx.type = mem::TxType::Notify;
    tx.requester = cpuId_;
    tx.paddr = base;
    client_.bus().request(tx, [this, base, done = std::move(done),
                      loop](const mem::TxResult &res) mutable {
        // An abandoned notification just completes (best-effort).
        if (!res.aborted || client_.retryAbandoned("notify", base, loop)) {
            done();
            return;
        }
        client_.afterSoftware(client_.retryDelay(), [this, base, done, loop] {
            notifyAttempt(base, done, loop);
        });
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
    client_.bus().request(tx, [buf, done = std::move(done)](
                                  const mem::TxResult &) {
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
    client_.bus().request(tx,
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
    client_.bus().request(tx, [new_value, old_value,
                      done = std::move(done)](const mem::TxResult &) {
        done(*old_value);
    });
}

void
CacheController::flushFrame(Addr paddr, Done done)
{
    const std::uint64_t frame = client_.frameOf(paddr);
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
    const std::uint64_t frame = client_.frameOf(paddr);
    dropFrameSlots(frame);
    frames_.erase(frame);
}

// --------------------------------------------------------------------
// Introspection and statistics
// --------------------------------------------------------------------

const FrameInfo *
CacheController::frameInfo(Addr paddr) const
{
    const auto it = frames_.find(client_.frameOf(paddr));
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
                     client_.retries());
    group.addCounter("words_serviced",
                     "bus-monitor interrupt words serviced",
                     client_.wordsServiced());
    group.addCounter("spurious_words",
                     "interrupt words against stale table entries",
                     client_.spuriousWords());
    group.addCounter("write_backs", "cache pages written back",
                     client_.writeBacks());
    group.addCounter("protocol_violations",
                     "aborted write-backs observed", violationCount_);
    group.addCounter("overflow_recoveries",
                     "interrupt FIFO overflow recovery sweeps",
                     client_.overflowRecoveries());
    group.addCounter("watchdog_trips",
                     "retry loops that exceeded the watchdog cap",
                     client_.watchdogTrips());
    group.addCounter("dead_owner_suspected",
                     "watchdog cap hits attributed to a dead owner",
                     client_.deadOwnerSuspected());
    group.addCounter("dead_owner_errors",
                     "timed waits abandoned with a DeadOwnerError",
                     client_.deadOwnerErrors());
    group.addHistogram("retries_per_miss",
                       "retries needed per completed miss",
                       retryHistogram_);
}

} // namespace vmp::proto
