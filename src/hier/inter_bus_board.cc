#include "hier/inter_bus_board.hh"

#include <algorithm>
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
                             const IbcTiming &timing,
                             std::size_t fifo_capacity)
    : globalId_(cluster_index), localId_(local_master_id),
      events_(events), localBus_(local_bus), globalBus_(global_bus),
      image_(image), timing_(timing), pageBytes_(image.pageBytes()),
      localTable_(image.size(), image.pageBytes()),
      localFifo_(fifo_capacity),
      globalMonitor_(cluster_index, image.size(), image.pageBytes(),
                     fifo_capacity),
      globalCopier_(cluster_index, global_bus),
      rng_(0x51C5'A11Du * (cluster_index + 1) + 0x0B0Au),
      staging_(image.pageBytes())
{
    localBus_.attachWatcher(localId_, *this);
    globalBus_.attachWatcher(globalId_, globalMonitor_);
    globalMonitor_.setInterruptLine([this] { kick(); });
}

void
InterBusBoard::traceInstant(obs::EventKind kind, Addr addr)
{
    if (tracer_ == nullptr)
        return;
    obs::TraceEvent event;
    event.kind = kind;
    event.at = events_.now();
    event.addr = addr;
    event.master = globalId_;
    event.track = traceTrack_;
    tracer_->record(event);
}

void
InterBusBoard::traceFetch(Tick started, Addr addr, bool exclusive,
                          bool upgrade)
{
    if (tracer_ == nullptr)
        return;
    obs::TraceEvent event;
    event.kind = obs::EventKind::IbcFetch;
    event.at = started;
    event.addr = addr;
    event.arg0 = events_.now() - started;
    event.master = globalId_;
    event.track = traceTrack_;
    event.aux = static_cast<std::uint8_t>((exclusive ? 1u : 0u) |
                                          (upgrade ? 2u : 0u));
    tracer_->record(event);
}

std::uint64_t
InterBusBoard::frameOf(Addr paddr) const
{
    return image_.frameOf(paddr);
}

Addr
InterBusBoard::frameBase(Addr paddr) const
{
    return image_.frameBase(image_.frameOf(paddr));
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

mem::ActionEntry
InterBusBoard::globalShadowEntry(Addr paddr) const
{
    const auto it = globalShadow_.find(image_.frameOf(paddr));
    return it == globalShadow_.end() ? ActionEntry::Ignore : it->second;
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
    if (dead_ || wedged_ || busy_ || kickScheduled_)
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
    if (dead_ || wedged_ || busy_)
        return;
    // Global-FIFO overflow may have lost an interrupt word for another
    // cluster's *successful* ownership acquisition; recover
    // conservatively before trusting any entry again.
    if (globalMonitor_.fifo().overflowed()) {
        busy_ = true;
        ++serviceEpoch_;
        recoverGlobalOverflow([this] { finishWork(); });
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
        ++wordsGlobal_;
        ++serviceEpoch_;
        serviceGlobalWord(*word, [this] { finishWork(); });
        return;
    }
    if (auto word = localFifo_.pop()) {
        busy_ = true;
        ++wordsLocal_;
        ++serviceEpoch_;
        serviceLocalWord(*word, [this] { finishWork(); });
        return;
    }
}

void
InterBusBoard::finishWork()
{
    busy_ = false;
    pump();
}

void
InterBusBoard::afterSoftware(Tick delay, Done fn)
{
    // Every software step of a dead board vanishes: in-flight service
    // chains (including retry loops) cut off at their next instruction
    // boundary, so a dead board schedules no further work and the
    // event queue still drains.
    events_.scheduleIn(delay, [this, fn = std::move(fn)] {
        if (!dead_)
            fn();
    }, "ibc-software");
}

void
InterBusBoard::failstop()
{
    dead_ = true;
}

Tick
InterBusBoard::retryDelay()
{
    return timing_.retryNs + rng_.below(timing_.retryJitterNs + 1);
}

// --- local side: fetch/upgrade requests -----------------------------

void
InterBusBoard::serviceLocalWord(monitor::InterruptWord word, Done done)
{
    afterSoftware(timing_.serviceNs,
                  [this, word, done = std::move(done)] {
                      dispatchLocalWord(word, done);
                  });
}

void
InterBusBoard::dispatchLocalWord(monitor::InterruptWord word, Done done)
{
    const auto entry = localTable_.entryFor(word.paddr);
    const bool want_exclusive = word.type != TxType::ReadShared;

    // An earlier word (or a concurrent upgrade) may already have
    // satisfied this request.
    if (entry == ActionEntry::Protect ||
        (!want_exclusive && entry != ActionEntry::Ignore)) {
        ++spurious_;
        done();
        return;
    }
    if (entry == ActionEntry::Ignore)
        fetchFrame(word, want_exclusive, std::move(done));
    else
        upgradeFrame(word, std::move(done)); // Shared -> Protect
}

void
InterBusBoard::fetchFrame(monitor::InterruptWord word, bool exclusive,
                          Done done)
{
    const Addr base = frameBase(word.paddr);
    const Tick fetch_started = events_.now();
    globalCopier_.readPage(
        base, staging_.data(), pageBytes_, exclusive,
        [this, word, exclusive, base, fetch_started,
         done = std::move(done)](const mem::TxResult &result) {
            if (result.aborted) {
                ++retries_;
                // Another cluster owns the frame. Service its pending
                // requests first — it may be waiting for a frame *we*
                // hold — then retry from current cluster state.
                drainGlobalWords([this, word, done] {
                    events_.scheduleIn(retryDelay(),
                                       [this, word, done] {
                                           dispatchLocalWord(word,
                                                             done);
                                       },
                                       "ibc-fetch-retry");
                });
                return;
            }
            image_.initBlock(base, staging_.data(), pageBytes_);
            const auto frame = frameOf(base);
            dirty_.erase(frame);
            const auto entry = exclusive ? ActionEntry::Protect
                                         : ActionEntry::Shared;
            shadowSet(frame, entry);
            ++(exclusive ? exclusiveFetches_ : sharedFetches_);
            if (budgetFault_)
                budgetFault_();
            traceFetch(fetch_started, base, exclusive,
                       /*upgrade=*/false);
            afterSoftware(timing_.installNs, [this, base, entry, done] {
                localTable_.setFor(base, entry);
                done();
            });
        });
}

void
InterBusBoard::upgradeFrame(monitor::InterruptWord word, Done done)
{
    const Addr base = frameBase(word.paddr);
    const Tick upgrade_started = events_.now();
    mem::BusTransaction tx;
    tx.type = TxType::AssertOwnership;
    tx.requester = globalId_;
    tx.paddr = base;
    tx.newEntry = ActionEntry::Protect;
    tx.updatesTable = true;
    globalBus_.request(tx, [this, word, base, upgrade_started,
                            done = std::move(done)](
                               const mem::TxResult &result) {
        if (result.aborted) {
            ++retries_;
            // The drain may invalidate this very frame (we lost a
            // race for ownership); dispatch re-examines the state.
            drainGlobalWords([this, word, done] {
                events_.scheduleIn(retryDelay(),
                                   [this, word, done] {
                                       dispatchLocalWord(word, done);
                                   },
                                   "ibc-upgrade-retry");
            });
            return;
        }
        ++upgrades_;
        shadowSet(frameOf(base), ActionEntry::Protect);
        if (budgetFault_)
            budgetFault_();
        traceFetch(upgrade_started, base, /*exclusive=*/true,
                   /*upgrade=*/true);
        afterSoftware(timing_.installNs, [this, base, done] {
            localTable_.setFor(base, ActionEntry::Protect);
            done();
        });
    });
}

// --- global side: consistency interrupt service ---------------------

void
InterBusBoard::serviceGlobalWord(monitor::InterruptWord word, Done done)
{
    afterSoftware(timing_.serviceNs, [this, word,
                                      done = std::move(done)] {
        // Echo of one of our own (self-observed) transactions.
        if (word.requester == globalId_ && !word.aborted) {
            ++spurious_;
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
                // Compatible with our shared copy: typically the
                // retry of a request our since-downgraded Protect
                // entry aborted. The Shared entry MUST stand — it is
                // what guarantees we are interrupted when another
                // cluster later asserts ownership. Clearing it here
                // would let that assert slip past silently and leave
                // this cluster free to upgrade a stale image.
                ++spurious_;
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
            // claimed it: only legal as a stale-entry race (they
            // acquired ownership and the corresponding word is, or
            // was, ahead of this one in the FIFO).
            if (state != ActionEntry::Ignore || dirty_.count(frame)) {
                ++violations_;
                localTable_.setFor(base, ActionEntry::Ignore);
                dirty_.erase(frame);
                recallLocal(base, [this, base, done] {
                    clearGlobalEntryIfStale(base, done);
                });
            } else {
                clearGlobalEntryIfStale(base, done);
            }
            return;
          default:
            ++spurious_;
            done();
            return;
        }
    });
}

void
InterBusBoard::drainGlobalWords(Done done)
{
    if (auto word = globalMonitor_.fifo().pop()) {
        ++wordsGlobal_;
        serviceGlobalWord(*word, [this, done = std::move(done)] {
            drainGlobalWords(done);
        });
    } else {
        done();
    }
}

void
InterBusBoard::downgradeCluster(Addr base, Done done)
{
    ++downgrades_;
    const auto frame = frameOf(base);
    // Block new local fills first: local transactions abort and queue
    // as ordinary fetch requests until the transition completes.
    localTable_.setFor(base, ActionEntry::Ignore);
    recallLocal(base, [this, base, frame, done = std::move(done)] {
        const Done finish = [this, base, frame, done] {
            shadowSet(frame, ActionEntry::Shared);
            localTable_.setFor(base, ActionEntry::Shared);
            done();
        };
        if (dirty_.count(frame)) {
            writeBackGlobal(base, ActionEntry::Shared,
                            [this, frame, finish] {
                                dirty_.erase(frame);
                                finish();
                            });
        } else {
            setGlobalEntry(base, ActionEntry::Shared, finish);
        }
    });
}

void
InterBusBoard::invalidateCluster(Addr base, Done done)
{
    ++invalidates_;
    const auto frame = frameOf(base);
    const auto state = localTable_.entryFor(base);
    localTable_.setFor(base, ActionEntry::Ignore);
    recallLocal(base, [this, base, frame, state,
                       done = std::move(done)] {
        if (state == ActionEntry::Protect && dirty_.count(frame)) {
            writeBackGlobal(base, ActionEntry::Ignore,
                            [this, frame, done] {
                                dirty_.erase(frame);
                                shadowErase(frame);
                                done();
                            });
        } else {
            dirty_.erase(frame);
            shadowErase(frame);
            setGlobalEntry(base, ActionEntry::Ignore, done);
        }
    });
}

void
InterBusBoard::clearGlobalEntryIfStale(Addr base, Done done)
{
    const auto frame = frameOf(base);
    const auto it = globalShadow_.find(frame);
    if (it == globalShadow_.end() ||
        it->second == ActionEntry::Ignore) {
        ++spurious_;
        done();
        return;
    }
    globalShadow_.erase(it);
    if (budgetUse_)
        budgetUse_(-1);
    setGlobalEntry(base, ActionEntry::Ignore, std::move(done));
}

// --- primitives -----------------------------------------------------

void
InterBusBoard::recallLocal(Addr base, Done done)
{
    ++recalls_;
    recallAttempt(base, std::move(done));
}

void
InterBusBoard::recallAttempt(Addr base, Done done)
{
    mem::BusTransaction tx;
    tx.type = TxType::AssertOwnership;
    tx.requester = localId_;
    tx.paddr = base;
    localBus_.request(tx, [this, base, done = std::move(done)](
                              const mem::TxResult &result) {
        if (result.aborted) {
            // A local cache still owns the frame; it relinquishes
            // (writing dirty data back to the image) when it services
            // the interrupt this attempt queued.
            ++retries_;
            events_.scheduleIn(retryDelay(),
                               [this, base, done] {
                                   recallAttempt(base, done);
                               },
                               "ibc-recall-retry");
            return;
        }
        traceInstant(obs::EventKind::IbcRecall, base);
        done();
    });
}

void
InterBusBoard::writeBackGlobal(Addr base, ActionEntry after, Done done)
{
    // Re-read the image on every attempt: cheap, and immune to any
    // staging reuse between retries.
    image_.readBlock(base, staging_.data(), pageBytes_);
    globalCopier_.writeBackPage(
        base, staging_.data(), pageBytes_, after,
        [this, base, after,
         done = std::move(done)](const mem::TxResult &result) {
            if (result.aborted) {
                // Only a stale Shared entry in another cluster's
                // monitor can abort our write-back; it clears
                // autonomously, so a plain jittered retry (no drain
                // mid-transition) converges.
                ++retries_;
                events_.scheduleIn(retryDelay(),
                                   [this, base, after, done] {
                                       writeBackGlobal(base, after, done);
                                   },
                                   "ibc-wb-retry");
                return;
            }
            ++globalWriteBacks_;
            traceInstant(obs::EventKind::IbcWriteBack, base);
            done();
        });
}

void
InterBusBoard::setGlobalEntry(Addr base, ActionEntry entry, Done done)
{
    mem::BusTransaction tx;
    tx.type = TxType::WriteActionTable;
    tx.requester = globalId_;
    tx.paddr = base;
    tx.newEntry = entry;
    tx.updatesTable = true;
    globalBus_.request(tx, [done = std::move(done)](
                               const mem::TxResult &) { done(); });
}

// --- overflow recovery ----------------------------------------------

void
InterBusBoard::recoverGlobalOverflow(Done done)
{
    ++recoveries_;
    globalMonitor_.fifo().clearOverflow();
    // A lost word can only have *required* action for a SharedGlobal
    // frame (another cluster's successful ownership acquisition);
    // transactions against Protect frames were aborted and will be
    // retried, regenerating their words. Drop every shared frame.
    auto frames = std::make_shared<std::vector<std::uint64_t>>();
    for (const auto &[frame, entry] : globalShadow_) {
        if (entry == ActionEntry::Shared)
            frames->push_back(frame);
    }
    std::sort(frames->begin(), frames->end());
    dropSharedFrames(std::move(frames), 0, std::move(done));
}

void
InterBusBoard::dropSharedFrames(
    std::shared_ptr<std::vector<std::uint64_t>> frames,
    std::size_t index, Done done)
{
    if (index >= frames->size()) {
        done();
        return;
    }
    const Addr base = image_.frameBase((*frames)[index]);
    localTable_.setFor(base, ActionEntry::Ignore);
    recallLocal(base, [this, frames, index, base,
                       done = std::move(done)] {
        dirty_.erase((*frames)[index]);
        shadowErase((*frames)[index]);
        setGlobalEntry(base, ActionEntry::Ignore,
                       [this, frames, index, done] {
                           dropSharedFrames(frames, index + 1, done);
                       });
    });
}

// --- budget-client footprint tracking -------------------------------

void
InterBusBoard::shadowSet(std::uint64_t frame, ActionEntry entry)
{
    const bool fresh =
        globalShadow_.insert_or_assign(frame, entry).second;
    if (fresh && budgetUse_)
        budgetUse_(+1);
}

void
InterBusBoard::shadowErase(std::uint64_t frame)
{
    if (globalShadow_.erase(frame) != 0 && budgetUse_)
        budgetUse_(-1);
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
                     retries_);
    group.addCounter("words_local",
                     "local fetch/upgrade request words serviced",
                     wordsLocal_);
    group.addCounter("words_global",
                     "global consistency interrupt words serviced",
                     wordsGlobal_);
    group.addCounter("spurious_words",
                     "words already satisfied/stale when serviced",
                     spurious_);
    group.addCounter("local_aborts",
                     "local transactions aborted (cluster misses)",
                     localAborts_);
    group.addCounter("violations",
                     "protocol invariant violations observed",
                     violations_);
    group.addCounter("overflow_recoveries",
                     "global-FIFO overflow recovery sweeps",
                     recoveries_);
    group.addCounter("local_overflow_clears",
                     "local-FIFO overflow flags cleared",
                     localOverflowClears_);
}

} // namespace vmp::hier
