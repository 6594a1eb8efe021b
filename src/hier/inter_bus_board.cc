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

namespace
{

/**
 * The engine's share of the board's instruction budget: the service
 * quantum and the retry back-off. No dead-owner deadline: the board's
 * retry loops keep retrying until their frame comes.
 */
proto::SoftwareTiming
engineTiming(const IbcTiming &timing)
{
    proto::SoftwareTiming engine;
    engine.serviceNs = timing.serviceNs;
    engine.retryNs = timing.retryNs;
    engine.retryJitterNs = timing.retryJitterNs;
    engine.deadOwnerTimeoutNs = 0;
    return engine;
}

} // namespace

InterBusBoard::InterBusBoard(std::uint32_t cluster_index,
                             std::uint32_t local_master_id,
                             EventQueue &events, mem::VmeBus &local_bus,
                             mem::VmeBus &global_bus,
                             mem::PhysMem &image,
                             const IbcTiming &timing,
                             std::size_t fifo_capacity)
    : localId_(local_master_id), events_(events), localBus_(local_bus),
      image_(image), timing_(timing),
      localTable_(image.size(), image.pageBytes()),
      localFifo_(fifo_capacity),
      globalMonitor_(cluster_index, image.size(), image.pageBytes(),
                     fifo_capacity),
      client_(*this, "ibc", cluster_index, events, globalMonitor_,
              global_bus, image.pageBytes(), engineTiming(timing),
              0x51C5'A11Du * (cluster_index + 1) + 0x0B0Au),
      staging_(image.pageBytes())
{
    localBus_.attachWatcher(localId_, *this);
    global_bus.attachWatcher(cluster_index, globalMonitor_);
    globalMonitor_.setInterruptLine([this] { kick(); });
}

void
InterBusBoard::traceInstant(obs::EventKind kind, Addr addr)
{
    if (client_.tracer() == nullptr)
        return;
    obs::TraceEvent event;
    event.kind = kind;
    event.at = events_.now();
    event.addr = addr;
    event.master = client_.id();
    event.track = client_.traceTrack();
    client_.tracer()->record(event);
}

void
InterBusBoard::traceFetch(Tick started, Addr addr, bool exclusive,
                          bool upgrade)
{
    if (client_.tracer() == nullptr)
        return;
    obs::TraceEvent event;
    event.kind = obs::EventKind::IbcFetch;
    event.at = started;
    event.addr = addr;
    event.arg0 = events_.now() - started;
    event.master = client_.id();
    event.track = client_.traceTrack();
    event.aux = static_cast<std::uint8_t>((exclusive ? 1u : 0u) |
                                          (upgrade ? 2u : 0u));
    client_.tracer()->record(event);
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
        dirty_.insert(client_.frameOf(tx.paddr));
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
    if (client_.dead() || client_.wedged() || busy_ || kickScheduled_)
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
    if (client_.dead() || client_.wedged() || busy_)
        return;
    // Global-FIFO overflow may have lost an interrupt word for another
    // cluster's *successful* ownership acquisition; recover
    // conservatively before trusting any entry again.
    if (globalMonitor_.fifo().overflowed()) {
        busy_ = true;
        client_.noteProgress();
        recoverFromOverflow([this] { finishWork(); });
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
        client_.noteProgress();
        client_.serviceWord(*word, [this] { finishWork(); });
        return;
    }
    if (auto word = localFifo_.pop()) {
        busy_ = true;
        ++client_.requestsServiced();
        client_.noteProgress();
        client_.afterSoftware(timing_.serviceNs, [this, word = *word] {
            // A failstopped board's software never gets here.
            if (!client_.dead())
                dispatchLocalWord(word, [this] { finishWork(); },
                                  proto::RetryLoop{0, events_.now()});
        });
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
InterBusBoard::dispatchLocalWord(monitor::InterruptWord word, Done done,
                                 proto::RetryLoop loop)
{
    const auto entry = localTable_.entryFor(word.paddr);
    const bool want_exclusive = word.type != TxType::ReadShared;

    // An earlier word (or a concurrent upgrade) may already have
    // satisfied this request.
    if (entry == ActionEntry::Protect ||
        (!want_exclusive && entry != ActionEntry::Ignore)) {
        ++client_.spuriousWords();
        done();
        return;
    }
    if (entry == ActionEntry::Ignore)
        fetchFrame(word, want_exclusive, std::move(done), loop);
    else
        upgradeFrame(word, std::move(done), loop); // Shared -> Protect
}

void
InterBusBoard::fetchFrame(monitor::InterruptWord word, bool exclusive,
                          Done done, proto::RetryLoop loop)
{
    const Addr base = client_.frameBase(word.paddr);
    const Tick fetch_started = events_.now();
    client_.copier().readPage(
        base, staging_.data(), client_.pageBytes(), exclusive,
        [this, word, exclusive, base, fetch_started, loop,
         done = std::move(done)](const mem::TxResult &result) {
            if (result.aborted) {
                retryLocalWord("fetch", word, done, loop);
                return;
            }
            image_.initBlock(base, staging_.data(), client_.pageBytes());
            const auto frame = client_.frameOf(base);
            dirty_.erase(frame);
            const auto entry = exclusive ? ActionEntry::Protect
                                         : ActionEntry::Shared;
            client_.setShadow(frame, entry);
            ++(exclusive ? exclusiveFetches_ : sharedFetches_);
            if (budgetFault_)
                budgetFault_();
            traceFetch(fetch_started, base, exclusive,
                       /*upgrade=*/false);
            install(base, entry, done);
        });
}

void
InterBusBoard::upgradeFrame(monitor::InterruptWord word, Done done,
                            proto::RetryLoop loop)
{
    const Addr base = client_.frameBase(word.paddr);
    const Tick upgrade_started = events_.now();
    mem::BusTransaction tx;
    tx.type = TxType::AssertOwnership;
    tx.requester = client_.id();
    tx.paddr = base;
    tx.newEntry = ActionEntry::Protect;
    tx.updatesTable = true;
    client_.bus().request(tx, [this, word, base, upgrade_started, loop,
                               done = std::move(done)](
                                  const mem::TxResult &result) {
        if (result.aborted) {
            retryLocalWord("upgrade", word, done, loop);
            return;
        }
        ++upgrades_;
        client_.setShadow(client_.frameOf(base), ActionEntry::Protect);
        if (budgetFault_)
            budgetFault_();
        traceFetch(upgrade_started, base, /*exclusive=*/true,
                   /*upgrade=*/true);
        install(base, ActionEntry::Protect, done);
    });
}

void
InterBusBoard::retryLocalWord(const char *operation,
                              monitor::InterruptWord word, Done done,
                              proto::RetryLoop loop)
{
    ++client_.retries();
    // The watchdog observes; the board has no dead-owner deadline.
    client_.watchdogCheck(operation, 0, 0, client_.frameBase(word.paddr),
                          ++loop.tries, loop.started);
    // Another cluster owns the frame. Service its pending requests
    // first — it may be waiting for a frame *we* hold — then retry from
    // current cluster state: the drain may even have invalidated this
    // very frame (we lost a race for ownership).
    client_.serviceQueued([this, word, done, loop] {
        client_.afterSoftware(client_.retryDelay(), [this, word, done,
                                                     loop] {
            dispatchLocalWord(word, done, loop);
        });
    });
}

void
InterBusBoard::install(Addr base, ActionEntry entry, Done done)
{
    client_.afterSoftware(timing_.installNs, [this, base, entry,
                                              done = std::move(done)] {
        if (client_.dead())
            return;
        localTable_.setFor(base, entry);
        done();
    });
}

// --- global side: consistency interrupt service ---------------------

void
InterBusBoard::serviceWord(const monitor::InterruptWord &word, Done done)
{
    // A failstopped board's software never gets here.
    if (client_.dead())
        return;
    // Echo of one of our own (self-observed) transactions.
    if (word.requester == client_.id() && !word.aborted) {
        ++client_.spuriousWords();
        done();
        return;
    }
    const Addr base = client_.frameBase(word.paddr);
    const auto frame = client_.frameOf(word.paddr);
    const auto state = localTable_.entryFor(base);
    switch (word.type) {
      case TxType::ReadShared:
        // Another cluster wants a shared copy of a frame we own.
        if (state == ActionEntry::Protect) {
            downgradeCluster(base, std::move(done));
        } else if (state == ActionEntry::Shared) {
            // Compatible with our shared copy: typically the retry of
            // a request our since-downgraded Protect entry aborted.
            // The Shared entry MUST stand — it is what guarantees we
            // are interrupted when another cluster later asserts
            // ownership. Clearing it here would let that assert slip
            // past silently and leave this cluster free to upgrade a
            // stale image.
            ++client_.spuriousWords();
            done();
        } else {
            clearGlobalEntryIfStale(base, std::move(done));
        }
        return;
      case TxType::ReadPrivate:
      case TxType::AssertOwnership:
        if (state != ActionEntry::Ignore)
            invalidateCluster(base, std::move(done));
        else
            clearGlobalEntryIfStale(base, std::move(done));
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
            recallLocal(base, [this, base, done = std::move(done)] {
                clearGlobalEntryIfStale(base, done);
            });
        } else {
            clearGlobalEntryIfStale(base, std::move(done));
        }
        return;
      default:
        ++client_.spuriousWords();
        done();
        return;
    }
}

void
InterBusBoard::downgradeCluster(Addr base, Done done)
{
    ++downgrades_;
    const auto frame = client_.frameOf(base);
    // Block new local fills first: local transactions abort and queue
    // as ordinary fetch requests until the transition completes.
    localTable_.setFor(base, ActionEntry::Ignore);
    recallLocal(base, [this, base, frame, done = std::move(done)] {
        const Done finish = [this, base, done] {
            localTable_.setFor(base, ActionEntry::Shared);
            done();
        };
        if (dirty_.count(frame)) {
            writeBackImage(base, ActionEntry::Shared,
                           [this, frame, finish] {
                               dirty_.erase(frame);
                               finish();
                           });
        } else {
            client_.writeTable(base, ActionEntry::Shared, finish);
        }
    });
}

void
InterBusBoard::invalidateCluster(Addr base, Done done)
{
    ++invalidates_;
    const auto frame = client_.frameOf(base);
    const auto state = localTable_.entryFor(base);
    localTable_.setFor(base, ActionEntry::Ignore);
    recallLocal(base, [this, base, frame, state,
                       done = std::move(done)] {
        if (state == ActionEntry::Protect && dirty_.count(frame)) {
            writeBackImage(base, ActionEntry::Ignore,
                           [this, frame, done] {
                               dirty_.erase(frame);
                               done();
                           });
        } else {
            dirty_.erase(frame);
            client_.writeTable(base, ActionEntry::Ignore, done);
        }
    });
}

void
InterBusBoard::clearGlobalEntryIfStale(Addr base, Done done)
{
    if (client_.shadowEntry(base) == ActionEntry::Ignore)
        ++client_.spuriousWords();
    client_.releaseEntry(base, std::move(done));
}

void
InterBusBoard::recoverFromOverflow(Done done)
{
    // A lost word can only have *required* action for a SharedGlobal
    // frame (another cluster's successful ownership acquisition);
    // transactions against Protect frames were aborted and will be
    // retried, regenerating their words. Drop every shared frame,
    // lowest first (the engine releases the list from its back).
    std::vector<std::uint64_t> frames;
    for (const auto &[frame, entry] : client_.shadowTable()) {
        if (entry == ActionEntry::Shared)
            frames.push_back(frame);
    }
    std::sort(frames.begin(), frames.end(), std::greater<>());
    client_.recoverOverflow(
        std::move(frames),
        [this](std::uint64_t frame, Done next) {
            const Addr base = image_.frameBase(frame);
            localTable_.setFor(base, ActionEntry::Ignore);
            recallLocal(base, [this, frame, next = std::move(next)] {
                dirty_.erase(frame);
                next();
            });
        },
        std::move(done));
}

// --- primitives -----------------------------------------------------

void
InterBusBoard::recallLocal(Addr base, Done done)
{
    ++recalls_;
    recallAttempt(base, std::move(done), proto::RetryLoop{0, events_.now()});
}

void
InterBusBoard::recallAttempt(Addr base, Done done, proto::RetryLoop loop)
{
    mem::BusTransaction tx;
    tx.type = TxType::AssertOwnership;
    tx.requester = localId_;
    tx.paddr = base;
    localBus_.request(tx, [this, base, loop, done = std::move(done)](
                              const mem::TxResult &result) mutable {
        if (result.aborted) {
            // A local cache still owns the frame; it relinquishes
            // (writing dirty data back to the image) when it services
            // the interrupt this attempt queued.
            ++client_.retries();
            client_.watchdogCheck("recall", 0, 0, base, ++loop.tries,
                                  loop.started);
            client_.afterSoftware(client_.retryDelay(),
                                  [this, base, done, loop] {
                                      recallAttempt(base, done, loop);
                                  });
            return;
        }
        traceInstant(obs::EventKind::IbcRecall, base);
        done();
    });
}

void
InterBusBoard::writeBackImage(Addr base, ActionEntry after, Done done)
{
    auto page =
        std::make_shared<std::vector<std::uint8_t>>(client_.pageBytes());
    image_.readBlock(base, page->data(), client_.pageBytes());
    // An abort here is a stale Shared entry in another cluster's
    // monitor; the engine retries it, counted as a retry.
    client_.writeBack(client_.frameOf(base), std::move(page), after,
                      client_.retries(),
                      [this, base, done = std::move(done)] {
                          ++globalWriteBacks_;
                          traceInstant(obs::EventKind::IbcWriteBack, base);
                          done();
                      });
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
                     client_.retries());
    group.addCounter("words_local",
                     "local fetch/upgrade request words serviced",
                     client_.requestsServiced());
    group.addCounter("words_global",
                     "global consistency interrupt words serviced",
                     client_.wordsServiced());
    group.addCounter("spurious_words",
                     "words already satisfied/stale when serviced",
                     client_.spuriousWords());
    group.addCounter("local_aborts",
                     "local transactions aborted (cluster misses)",
                     localAborts_);
    group.addCounter("violations",
                     "protocol invariant violations observed",
                     violations_);
    group.addCounter("overflow_recoveries",
                     "global-FIFO overflow recovery sweeps",
                     client_.overflowRecoveries());
    group.addCounter("local_overflow_clears",
                     "local-FIFO overflow flags cleared",
                     localOverflowClears_);
}

} // namespace vmp::hier
