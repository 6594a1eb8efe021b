#include "hier/inter_bus_board.hh"

#include <algorithm>
#include <functional>
#include <utility>

#include "sim/logging.hh"

namespace vmp::hier
{

using mem::ActionEntry;
using mem::TxType;
using mem::WatchVerdict;

InterBusBoard::InterBusBoard(std::uint32_t cluster_index,
                             std::uint32_t local_master_id,
                             EventQueue &events, mem::VmeBus &local_bus,
                             mem::VmeBus &global_bus,
                             mem::PhysMem &image,
                             std::size_t fifo_capacity)
    : ProtocolClient("ibc", cluster_index, events, globalMonitor_,
                     global_bus, image.pageBytes(), 0,
                     0x51C5'A11Du * (cluster_index + 1) + 0x0B0Au),
      localId_(local_master_id), localBus_(local_bus), image_(image),
      localTable_(image.size(), image.pageBytes()),
      localFifo_(fifo_capacity),
      globalMonitor_(cluster_index, image.size(), image.pageBytes(),
                     fifo_capacity)
{
    localBus_.attachWatcher(localId_, *this);
    global_bus.attachWatcher(cluster_index, globalMonitor_);
    globalMonitor_.setInterruptLine([this] { kick(); });
}

void
InterBusBoard::traceInstant(obs::EventKind kind, Addr addr)
{
    if (tracer() == nullptr)
        return;
    obs::TraceEvent event;
    event.kind = kind;
    event.at = events_.now();
    event.addr = addr;
    event.master = id();
    event.track = traceTrack();
    tracer()->record(event);
}

void
InterBusBoard::traceFetch(Tick started, Addr addr, bool exclusive,
                          bool upgrade)
{
    if (tracer() == nullptr)
        return;
    obs::TraceEvent event;
    event.kind = obs::EventKind::IbcFetch;
    event.at = started;
    event.addr = addr;
    event.arg0 = events_.now() - started;
    event.master = id();
    event.track = traceTrack();
    event.aux = static_cast<std::uint8_t>((exclusive ? 1u : 0u) |
                                          (upgrade ? 2u : 0u));
    tracer()->record(event);
}

WatchVerdict
InterBusBoard::observe(const mem::BusTransaction &tx)
{
    // Never compete against our own local recalls.
    if (tx.requester == localId_)
        return WatchVerdict::Ignore;

    switch (tx.type) {
      case TxType::WriteBack:
        // Every local write-back lands in the cluster image. Mark the
        // frame dirty so a later downgrade/invalidate propagates it to
        // main memory. The marking is conservative: we cannot know
        // here whether another local monitor aborts this transfer, but
        // writing back a frame whose image copy merely *equals* main
        // memory is redundant, never incorrect.
        dirty_.insert(frameOf(tx.paddr));
        return WatchVerdict::Ignore;
      case TxType::Notify:
        // Notifications are cluster-local (cross-cluster notification
        // would need a global forwarding entry; out of scope).
        return WatchVerdict::Ignore;
      case TxType::ReadShared:
        if (localTable_.entryFor(tx.paddr) != ActionEntry::Ignore)
            return WatchVerdict::Ignore; // present: serve from image
        break;
      case TxType::ReadPrivate:
      case TxType::AssertOwnership:
        if (localTable_.entryFor(tx.paddr) == ActionEntry::Protect)
            return WatchVerdict::Ignore; // cluster owns the frame
        break;
      default:
        return WatchVerdict::Ignore;
    }

    // Cluster-level miss: abort the local transaction (the CPU retries,
    // just as against a busy owner in the flat protocol) and queue a
    // fetch/upgrade request for the service software.
    ++localAborts_;
    localFifo_.push({tx.type, tx.paddr, tx.requester, true});
    kick();
    return WatchVerdict::AbortAndInterrupt;
}

void
InterBusBoard::sideEffectUpdate(const mem::BusTransaction &)
{
    // The board's own local transactions never carry side-effect
    // updates (recalls use updatesTable = false); CPU transactions
    // update their own monitors, not this watcher.
}

mem::ActionEntry
InterBusBoard::clusterState(Addr paddr) const
{
    return localTable_.entryFor(paddr);
}

bool
InterBusBoard::isDirty(Addr paddr) const
{
    return dirty_.count(image_.frameOf(paddr)) != 0;
}

bool
InterBusBoard::idle() const
{
    return !busy_ && !kickScheduled_ && localFifo_.empty() &&
        !localFifo_.overflowed() && globalMonitor_.fifo().empty() &&
        !globalMonitor_.fifo().overflowed();
}

void
InterBusBoard::kick()
{
    if (dead() || wedged() || busy_ || kickScheduled_)
        return;
    kickScheduled_ = true;
    events_.scheduleIn(1, [this] {
        kickScheduled_ = false;
        pump();
    }, "ibc-pump");
}

void
InterBusBoard::pump()
{
    if (dead() || wedged() || busy_)
        return;
    // Global-FIFO overflow may have lost an interrupt word for another
    // cluster's *successful* ownership acquisition; recover
    // conservatively before trusting any entry again.
    if (globalMonitor_.fifo().overflowed()) {
        busy_ = true;
        noteProgress();
        recoverFromOverflow(Thunk::to<&InterBusBoard::finishWork>(this));
        return;
    }
    // Local-FIFO overflow is harmless: every dropped word belonged to
    // an aborted local transaction whose CPU retries and regenerates
    // it.
    if (localFifo_.overflowed()) {
        localFifo_.clearOverflow();
        ++localOverflowClears_;
    }
    if (auto word = globalMonitor_.fifo().pop()) {
        busy_ = true;
        noteProgress();
        takeWord(*word, Thunk::to<&InterBusBoard::finishWork>(this));
        return;
    }
    if (auto word = localFifo_.pop()) {
        busy_ = true;
        ++requestsServiced();
        noteProgress();
        local_.word = *word;
        afterSoftware(proto::kServiceNs,
                      Thunk::to<&InterBusBoard::startLocalWord>(this));
        return;
    }
}

void
InterBusBoard::finishWork()
{
    busy_ = false;
    pump();
}

// --- local side: fetch/upgrade requests -----------------------------

void
InterBusBoard::startLocalWord()
{
    // A failstopped board's software never gets here.
    if (dead())
        return;
    local_.loop = proto::RetryLoop{0, events_.now()};
    dispatchLocalWord();
}

void
InterBusBoard::dispatchLocalWord()
{
    const auto entry = localTable_.entryFor(local_.word.paddr);
    const bool want_exclusive = local_.word.type != TxType::ReadShared;

    // An earlier word (or a concurrent upgrade) may already have
    // satisfied this request.
    if (entry == ActionEntry::Protect ||
        (!want_exclusive && entry != ActionEntry::Ignore)) {
        ++spuriousWords();
        finishWork();
        return;
    }
    if (entry == ActionEntry::Ignore)
        fetchFrame(want_exclusive);
    else
        upgradeFrame(); // Shared -> Protect
}

void
InterBusBoard::busDone(std::uint64_t token, const mem::TxResult &res)
{
    if (token < kOwnTokens)
        ProtocolClient::busDone(token, res);
    else if (res.aborted)
        retryLocalWord(token == kFetchToken ? "fetch" : "upgrade");
    else if (token == kFetchToken)
        fetched();
    else
        upgraded();
}

void
InterBusBoard::fetchFrame(bool exclusive)
{
    local_.exclusive = exclusive;
    local_.started = events_.now();
    copier().readPage(frameBase(local_.word.paddr), staging(), pageBytes(),
                      exclusive, mem::Completion{this, kFetchToken});
}

void
InterBusBoard::fetched()
{
    const Addr base = frameBase(local_.word.paddr);
    image_.initBlock(base, staging(), pageBytes());
    const auto frame = frameOf(base);
    dirty_.erase(frame);
    setShadow(frame, local_.exclusive ? ActionEntry::Protect
                                      : ActionEntry::Shared);
    ++(local_.exclusive ? exclusiveFetches_ : sharedFetches_);
    traceFetch(local_.started, base, local_.exclusive, /*upgrade=*/false);
    install();
}

void
InterBusBoard::upgradeFrame()
{
    local_.exclusive = true;
    local_.started = events_.now();
    bus().request({.type = TxType::AssertOwnership,
                   .requester = id(),
                   .paddr = frameBase(local_.word.paddr),
                   .newEntry = ActionEntry::Protect,
                   .updatesTable = true},
                  mem::Completion{this, kUpgradeToken});
}

void
InterBusBoard::upgraded()
{
    const Addr base = frameBase(local_.word.paddr);
    ++upgrades_;
    setShadow(frameOf(base), ActionEntry::Protect);
    traceFetch(local_.started, base, /*exclusive=*/true, /*upgrade=*/true);
    install();
}

void
InterBusBoard::retryLocalWord(const char *operation)
{
    ++retries();
    // The watchdog observes; the board has no dead-owner deadline.
    watchdogCheck(operation, 0, 0, frameBase(local_.word.paddr),
                  ++local_.loop.tries, local_.loop.started);
    // Another cluster owns the frame. Service its pending requests
    // first — it may be waiting for a frame *we* hold — then retry from
    // current cluster state: the drain may even have invalidated this
    // very frame (we lost a race for ownership).
    serviceQueued(Thunk::to<&InterBusBoard::retryAfterDrain>(this));
}

void
InterBusBoard::retryAfterDrain()
{
    afterSoftware(retryDelay(),
                  Thunk::to<&InterBusBoard::dispatchLocalWord>(this));
}

void
InterBusBoard::install()
{
    afterSoftware(proto::kInstallNs,
                  Thunk::to<&InterBusBoard::installed>(this));
}

void
InterBusBoard::installed()
{
    if (dead())
        return;
    localTable_.setFor(frameBase(local_.word.paddr),
                       local_.exclusive ? ActionEntry::Protect
                                        : ActionEntry::Shared);
    finishWork();
}

// --- global side: consistency interrupt service ---------------------

void
InterBusBoard::serviceWord(const monitor::InterruptWord &word, Thunk done)
{
    // A failstopped board's software never gets here.
    if (dead())
        return;
    // Echo of one of our own (self-observed) transactions.
    if (word.requester == id() && !word.aborted) {
        ++spuriousWords();
        done();
        return;
    }
    const Addr base = frameBase(word.paddr);
    const auto frame = frameOf(word.paddr);
    const auto state = localTable_.entryFor(base);
    switch (word.type) {
      case TxType::ReadShared:
        // Another cluster wants a shared copy of a frame we own.
        if (state == ActionEntry::Protect) {
            downgradeCluster(base, done);
        } else if (state == ActionEntry::Shared) {
            // Compatible with our shared copy: typically the retry of
            // a request our since-downgraded Protect entry aborted.
            // The Shared entry MUST stand — it is what guarantees we
            // are interrupted when another cluster later asserts
            // ownership. Clearing it here would let that assert slip
            // past silently and leave this cluster free to upgrade a
            // stale image.
            ++spuriousWords();
            done();
        } else {
            clearGlobalEntryIfStale(base, done);
        }
        return;
      case TxType::ReadPrivate:
      case TxType::AssertOwnership:
        if (state != ActionEntry::Ignore)
            invalidateCluster(base, done);
        else
            clearGlobalEntryIfStale(base, done);
        return;
      case TxType::WriteBack:
        // Another cluster wrote a frame back while our entry still
        // claimed it: only legal as a stale-entry race (they acquired
        // ownership and the corresponding word is, or was, ahead of
        // this one in the FIFO).
        if (state != ActionEntry::Ignore || dirty_.count(frame)) {
            ++violations_;
            localTable_.setFor(base, ActionEntry::Ignore);
            dirty_.erase(frame);
            recallLocal(base, box([this, base, done] {
                            clearGlobalEntryIfStale(base, done);
                        }));
        } else {
            clearGlobalEntryIfStale(base, done);
        }
        return;
      default:
        ++spuriousWords();
        done();
        return;
    }
}

void
InterBusBoard::downgradeCluster(Addr base, Thunk done)
{
    ++downgrades_;
    const auto frame = frameOf(base);
    // Block new local fills first: local transactions abort and queue
    // as ordinary fetch requests until the transition completes.
    localTable_.setFor(base, ActionEntry::Ignore);
    recallLocal(base, box([this, base, frame, done] {
        releaseImage(base, ActionEntry::Shared, dirty_.count(frame) != 0,
                     box([this, base, done] {
                         localTable_.setFor(base, ActionEntry::Shared);
                         done();
                     }));
    }));
}

void
InterBusBoard::invalidateCluster(Addr base, Thunk done)
{
    ++invalidates_;
    const auto frame = frameOf(base);
    const auto state = localTable_.entryFor(base);
    localTable_.setFor(base, ActionEntry::Ignore);
    recallLocal(base, box([this, base, frame, state, done] {
        releaseImage(base, ActionEntry::Ignore,
                     state == ActionEntry::Protect && dirty_.count(frame),
                     done);
    }));
}

void
InterBusBoard::clearGlobalEntryIfStale(Addr base, Thunk done)
{
    if (shadowEntry(base) == ActionEntry::Ignore)
        ++spuriousWords();
    releaseEntry(base, done);
}

void
InterBusBoard::recoverFromOverflow(Thunk done)
{
    // A lost word can only have *required* action for a SharedGlobal
    // frame (another cluster's successful ownership acquisition);
    // transactions against Protect frames were aborted and will be
    // retried, regenerating their words. Drop every shared frame,
    // lowest first (the engine releases the list from its back).
    std::vector<std::uint64_t> frames;
    for (const auto &[frame, entry] : shadowTable()) {
        if (entry == ActionEntry::Shared)
            frames.push_back(frame);
    }
    std::sort(frames.begin(), frames.end(), std::greater<>());
    recoverOverflow(
        std::move(frames),
        [this](std::uint64_t frame, Thunk next) {
            const Addr base = image_.frameBase(frame);
            localTable_.setFor(base, ActionEntry::Ignore);
            recallLocal(base, box([this, frame, next] {
                            dirty_.erase(frame);
                            next();
                        }));
        },
        done);
}

// --- primitives -----------------------------------------------------

void
InterBusBoard::recallLocal(Addr base, Thunk done)
{
    ++recalls_;
    // An abort means a local cache still owns the frame; it relinquishes
    // (writing dirty data back to the image) when it services the
    // interrupt the attempt queued. The loop has no dead-owner deadline.
    retryLoop({.type = TxType::AssertOwnership,
               .requester = localId_,
               .paddr = base},
              "recall", &retries(), box([this, base, done] {
                  traceInstant(obs::EventKind::IbcRecall, base);
                  done();
              }),
              false, &localBus_);
}

void
InterBusBoard::releaseImage(Addr base, ActionEntry after, bool write_back,
                            Thunk done)
{
    const auto frame = frameOf(base);
    if (!write_back) {
        dirty_.erase(frame);
        writeTable(base, after, done);
        return;
    }
    auto page = std::make_shared<std::uint8_t[]>(pageBytes());
    image_.readBlock(base, page.get(), pageBytes());
    // An abort here is a stale Shared entry in another cluster's
    // monitor; the engine retries it, counted as a retry.
    writeBack(frame, std::move(page), after, retries(),
              box([this, base, frame, done] {
                  ++globalWriteBacks_;
                  traceInstant(obs::EventKind::IbcWriteBack, base);
                  dirty_.erase(frame);
                  done();
              }));
}

// --- statistics -----------------------------------------------------

void
InterBusBoard::registerStats(StatGroup &group) const
{
    group.addCounter("fetches_shared",
                     "global page fetches, shared", sharedFetches_);
    group.addCounter("fetches_exclusive",
                     "global page fetches, exclusive",
                     exclusiveFetches_);
    group.addCounter("upgrades",
                     "global shared-to-private upgrades", upgrades_);
    group.addCounter("downgrades",
                     "cluster downgrades (lost exclusivity)",
                     downgrades_);
    group.addCounter("invalidates",
                     "cluster invalidations (lost frame)",
                     invalidates_);
    group.addCounter("recalls",
                     "local recalls issued before releasing frames",
                     recalls_);
    group.addCounter("global_write_backs",
                     "image pages written back to main memory",
                     globalWriteBacks_);
    group.addCounter("retries",
                     "aborted transactions retried (both buses)",
                     retries());
    group.addCounter("words_local",
                     "local fetch/upgrade request words serviced",
                     requestsServiced());
    group.addCounter("words_global",
                     "global consistency interrupt words serviced",
                     wordsServiced());
    group.addCounter("spurious_words",
                     "words already satisfied/stale when serviced",
                     spuriousWords());
    group.addCounter("local_aborts",
                     "local transactions aborted (cluster misses)",
                     localAborts_);
    group.addCounter("violations",
                     "protocol invariant violations observed",
                     violations_);
    group.addCounter("overflow_recoveries",
                     "global-FIFO overflow recovery sweeps",
                     overflowRecoveries());
    group.addCounter("local_overflow_clears",
                     "local-FIFO overflow flags cleared",
                     localOverflowClears_);
}

} // namespace vmp::hier
