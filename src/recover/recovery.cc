#include "recover/recovery.hh"

#include <vector>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vmp::recover
{

RecoveryManager::RecoveryManager(EventQueue &events, mem::VmeBus &bus,
                                 mem::PhysMem &memory,
                                 RecoveryConfig config)
    : events_(events), bus_(bus), mem_(memory),
      config_(config),
      detector_(events, bus, memory.pageBytes(), config.detector)
{
    detector_.setOnDead(
        [this](std::uint32_t master) { onDeclaredDead(master); });
    detector_.setOnFence(
        [this](std::uint32_t master, SuspicionKind kind) {
            onFenced(master, kind);
        });
    detector_.setOnUnfence(
        [this](std::uint32_t master) { onUnfenced(master); });
}

void
RecoveryManager::addBoard(std::uint32_t master,
                          monitor::BusMonitor *monitor,
                          FailureDetector::HealthFn health)
{
    if (find(master) != nullptr)
        fatal("master ", master, " registered twice for recovery");
    Record record;
    record.master = master;
    record.monitor = monitor;
    records_.push_back(record);
    detector_.addBoard(master, monitor, std::move(health));
}

void
RecoveryManager::install()
{
    detector_.install();
}

void
RecoveryManager::setBackingStore(backing::PageStore *store, Asid asid)
{
    backing_ = store;
    backingAsid_ = asid;
}

void
RecoveryManager::setPostReclaimHook(std::function<void()> hook)
{
    postReclaimHook_ = std::move(hook);
}

void
RecoveryManager::setFenceHooks(std::function<void(std::uint32_t)> park,
                               std::function<void(std::uint32_t)> resync)
{
    parkHook_ = std::move(park);
    resyncHook_ = std::move(resync);
}

void
RecoveryManager::markRejoined(std::uint32_t master)
{
    Record *record = find(master);
    if (record == nullptr)
        fatal("markRejoined for unknown master ", master);
    if (record->reclaiming)
        fatal("master ", master, " rejoined mid-reclaim");
    record->dead = false;
    if (record->fenced) {
        // Operator-forced rejoin of a quarantined board: lift the
        // fence as part of trusting it again.
        record->fenced = false;
        bus_.setMasterFenced(master, false);
        if (record->monitor != nullptr)
            record->monitor->setMasked(false);
    }
    detector_.markRejoined(master);
}

bool
RecoveryManager::isFrameOwnerDead(Addr paddr) const
{
    const std::uint64_t frame = paddr / mem_.pageBytes();
    for (const Record &record : records_) {
        // A fenced board's frames are as hopeless to wait on as a dead
        // one's until its reclaim clears them.
        if (!record.dead && !record.fenced)
            continue;
        // A dead bridge strands every frame reached through it.
        if (record.monitor == nullptr)
            return true;
        if (record.monitor->table().get(frame) ==
            mem::ActionEntry::Protect) {
            return true;
        }
    }
    return false;
}

std::uint64_t
RecoveryManager::deadBoards() const
{
    std::uint64_t dead = 0;
    for (const Record &record : records_) {
        if (record.dead)
            ++dead;
    }
    return dead;
}

std::uint64_t
RecoveryManager::fencedBoards() const
{
    std::uint64_t fenced = 0;
    for (const Record &record : records_) {
        if (record.fenced)
            ++fenced;
    }
    return fenced;
}

bool
RecoveryManager::isFenced(std::uint32_t master) const
{
    const Record *record = find(master);
    return record != nullptr && record->fenced;
}

bool
RecoveryManager::recovering() const
{
    for (const Record &record : records_) {
        if (record.reclaiming)
            return true;
    }
    return false;
}

RecoveryManager::Record *
RecoveryManager::find(std::uint32_t master)
{
    for (Record &record : records_) {
        if (record.master == master)
            return &record;
    }
    return nullptr;
}

const RecoveryManager::Record *
RecoveryManager::find(std::uint32_t master) const
{
    for (const Record &record : records_) {
        if (record.master == master)
            return &record;
    }
    return nullptr;
}

void
RecoveryManager::onDeclaredDead(std::uint32_t master)
{
    Record *record = find(master);
    if (record == nullptr)
        fatal("declaration for unregistered master ", master);
    if (record->dead)
        return;
    record->dead = true;
    record->declaredAt = events_.now();
    ++boardsDead_;
    if (tracer_ != nullptr) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::RecoveryBegin;
        event.at = events_.now();
        event.master = master;
        event.track = traceTrack_;
        event.aux = record->monitor == nullptr ? 1 : 0;
        tracer_->record(event);
    }

    if (record->monitor == nullptr) {
        // Liveness bookkeeping only: the bridge's global-side frames
        // are reclaimed by the global bus's manager. From here on the
        // oracle answers "dead owner" for every frame on this bus.
        VMP_DTRACE(debug::Recover, events_.now(), "bridge master ",
                   master, " declared dead; stranding remote frames");
        return;
    }

    VMP_DTRACE(debug::Recover, events_.now(), "master ", master,
               " declared dead; monitor masked, starting reclaim");
    maskAndReclaim(*record);
}

void
RecoveryManager::maskAndReclaim(Record &record)
{
    // 1. Mask the monitor: its stale entries stop aborting live
    //    traffic. The table is retained for the reclaim scan below.
    record.monitor->setMasked(true);

    // 2. Drain the board's interrupt FIFO — nobody will ever service
    //    those words.
    while (record.monitor->fifo().pop().has_value()) {
    }
    record.monitor->fifo().clearOverflow();

    // 3. Announce the masking with one short broadcast, then reclaim.
    record.reclaiming = true;
    mem::BusTransaction tx;
    tx.type = mem::TxType::BoardMask;
    tx.requester = kCoordinatorMaster;
    Record *target = &record; // deque: stable address
    bus_.request(tx, [this, target](const mem::TxResult &) {
        startReclaim(*target);
    });
}

void
RecoveryManager::onFenced(std::uint32_t master, SuspicionKind kind)
{
    Record *record = find(master);
    if (record == nullptr)
        fatal("fence for unregistered master ", master);
    if (record->dead || record->fenced)
        return;
    record->fenced = true;
    record->declaredAt = events_.now();
    lastFenceAt_ = events_.now();
    ++boardsFenced_;
    if (tracer_ != nullptr) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::RecoveryBegin;
        event.at = events_.now();
        event.master = master;
        event.track = traceTrack_;
        // aux: 0/1 = dead board/bridge, 2+ = fence, offset by kind.
        event.aux = static_cast<std::uint8_t>(
            2 + static_cast<std::uint8_t>(kind));
        tracer_->record(event);
    }
    VMP_DTRACE(debug::Recover, events_.now(), "master ", master,
               " fenced (", suspicionKindName(kind),
               "); quarantining");

    // Quarantine: park the board's reference stream and drop its
    // requests at the bus — a babbling or wedged board must not keep
    // competing for arbitration while its frames are reclaimed.
    if (parkHook_)
        parkHook_(master);
    bus_.setMasterFenced(master, true);

    if (record->monitor == nullptr) {
        // Bridge fencing is liveness + bus quarantine only here; the
        // bridge's global-side frames are the global manager's
        // problem, exactly as for a dead bridge.
        return;
    }
    maskAndReclaim(*record);
}

void
RecoveryManager::onUnfenced(std::uint32_t master)
{
    Record *record = find(master);
    if (record == nullptr)
        fatal("unfence for unregistered master ", master);
    if (!record->fenced)
        return;
    if (record->reclaiming) {
        // The detector cleared the fence while the reclaim broadcast
        // chain is still on the bus; let it finish, then lift.
        events_.scheduleIn(kReclaimServiceNs * 4,
                           [this, master] { onUnfenced(master); },
                           "unfence-wait");
        return;
    }
    record->fenced = false;
    ++boardsUnfenced_;
    VMP_DTRACE(debug::Recover, events_.now(), "master ", master,
               " unfenced; cold rejoin");
    bus_.setMasterFenced(master, false);
    // The reclaim scan left the table clean; the monitor may watch the
    // bus again.
    if (record->monitor != nullptr)
        record->monitor->setMasked(false);
    if (resyncHook_)
        resyncHook_(master);
}

void
RecoveryManager::startReclaim(Record &record)
{
    // Scan the masked table: Shared/Notify entries are clean-copy
    // bookkeeping (memory is authoritative) and drop silently; Protect
    // entries queue for reclaim — their only valid copy died with the
    // board.
    auto frames = std::make_shared<std::deque<std::uint64_t>>();
    for (const std::uint64_t frame :
         record.monitor->table().nonIgnoredFrames()) {
        if (record.monitor->table().get(frame) ==
            mem::ActionEntry::Protect) {
            frames->push_back(frame);
        } else {
            record.monitor->table().set(frame,
                                        mem::ActionEntry::Ignore);
            ++sharedDropped_;
        }
    }
    VMP_DTRACE(debug::Recover, events_.now(), "master ", record.master,
               ": ", frames->size(), " Protect frames to reclaim, ",
               sharedDropped_.value(), " shared entries dropped");
    reclaimNext(record, std::move(frames));
}

void
RecoveryManager::reclaimNext(
    Record &record, std::shared_ptr<std::deque<std::uint64_t>> frames)
{
    if (frames->empty()) {
        finishReclaim(record);
        return;
    }
    const std::uint64_t frame = frames->front();
    frames->pop_front();
    Record *target = &record;
    events_.scheduleIn(kReclaimServiceNs,
                       [this, target, frame, frames] {
        mem::BusTransaction tx;
        tx.type = mem::TxType::Reclaim;
        tx.requester = kCoordinatorMaster;
        tx.paddr = frame * mem_.pageBytes();
        bus_.request(tx, [this, target, frame,
                          frames](const mem::TxResult &) {
            target->monitor->table().set(frame,
                                         mem::ActionEntry::Ignore);
            ++framesReclaimed_;
            if (tracer_ != nullptr) {
                obs::TraceEvent event;
                event.kind = obs::EventKind::Reclaim;
                event.at = events_.now();
                event.addr = frame * mem_.pageBytes();
                event.master = target->master;
                event.track = traceTrack_;
                tracer_->record(event);
            }
            VMP_DTRACE(debug::Recover, events_.now(), "reclaimed frame ",
                       frame, " from dead master ", target->master);
            restoreFrame(*target, frame, frames);
        });
    }, "reclaim");
}

void
RecoveryManager::restoreFrame(
    Record &record, std::uint64_t frame,
    std::shared_ptr<std::deque<std::uint64_t>> frames)
{
    // A frame with no usable image is genuinely lost; with the
    // FrameCheckpointer shadowing ownership transfers, every Protect
    // entry has one, and pages_lost stays zero by construction.
    if (backing_ == nullptr) {
        ++pagesLost_;
        reclaimNext(record, std::move(frames));
        return;
    }
    const auto *image = backing_->fetch(backingAsid_, frame);
    if (image == nullptr || image->size() != mem_.pageBytes()) {
        ++pagesLost_;
        reclaimNext(record, std::move(frames));
        return;
    }
    // The last checkpointed image of the lost page: stream it back to
    // the memory board after the backing-store fetch latency. Copy
    // now — the borrowed pointer goes stale at the next store.
    auto buffer =
        std::make_shared<std::vector<std::uint8_t>>(*image);
    Record *target = &record;
    events_.scheduleIn(backing_->latency(),
                       [this, target, frame, frames, buffer] {
        mem::BusTransaction tx;
        tx.type = mem::TxType::DmaWrite;
        tx.requester = kCoordinatorMaster;
        tx.paddr = frame * mem_.pageBytes();
        tx.bytes = static_cast<std::uint32_t>(buffer->size());
        tx.data = buffer->data();
        bus_.request(tx, [this, target, frame, frames,
                          buffer](const mem::TxResult &) {
            ++pagesRestored_;
            VMP_DTRACE(debug::Recover, events_.now(),
                       "restored frame ", frame,
                       " from the backing store");
            reclaimNext(*target, frames);
        });
    }, "reclaim-restore");
}

void
RecoveryManager::finishReclaim(Record &record)
{
    record.reclaiming = false;
    lastRecoveryNs_ = events_.now() - record.declaredAt;
    ++recoveries_;
    if (tracer_ != nullptr) {
        obs::TraceEvent event;
        event.kind = obs::EventKind::Recovery;
        event.at = record.declaredAt;
        event.arg0 = lastRecoveryNs_;
        event.master = record.master;
        event.track = traceTrack_;
        tracer_->record(event);
    }
    VMP_DTRACE(debug::Recover, events_.now(), "master ", record.master,
               " reclaim complete in ", lastRecoveryNs_, " ns");
    if (postReclaimHook_)
        postReclaimHook_();
}

void
RecoveryManager::registerStats(StatGroup &group) const
{
    group.addCounter("boards_declared_dead",
                     "boards (and bridges) declared failstopped",
                     boardsDead_);
    group.addCounter("boards_fenced",
                     "boards quarantined for partial failures",
                     boardsFenced_);
    group.addCounter("boards_unfenced",
                     "quarantines lifted after recovery",
                     boardsUnfenced_);
    group.addCounter("frames_reclaimed",
                     "Protect frames reclaimed from dead boards",
                     framesReclaimed_);
    group.addCounter("shared_dropped",
                     "Shared/Notify entries of dead boards dropped",
                     sharedDropped_);
    group.addCounter("pages_lost",
                     "privately owned pages lost with their board",
                     pagesLost_);
    group.addCounter("pages_restored",
                     "lost pages re-fetched from the backing store",
                     pagesRestored_);
    group.addCounter("recoveries_completed",
                     "reclaim sequences run to completion",
                     recoveries_);
    detector_.registerStats(group);
}

} // namespace vmp::recover
