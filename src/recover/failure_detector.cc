#include "recover/failure_detector.hh"

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vmp::recover
{

const char *
suspicionKindName(SuspicionKind kind)
{
    switch (kind) {
      case SuspicionKind::None:
        return "none";
      case SuspicionKind::Failstop:
        return "failstop";
      case SuspicionKind::Wedge:
        return "wedge";
      case SuspicionKind::Babble:
        return "babble";
      case SuspicionKind::FailSlow:
        return "fail-slow";
      case SuspicionKind::StuckTable:
        return "stuck-table";
    }
    return "?";
}

FailureDetector::FailureDetector(EventQueue &events, mem::VmeBus &bus,
                                 std::uint32_t page_bytes,
                                 DetectorConfig config)
    : events_(events), bus_(bus), pageBytes_(page_bytes),
      config_(config)
{
    if (pageBytes_ == 0)
        fatal("failure detector needs a nonzero page size");
    if (config_.maxProbes == 0)
        fatal("failure detector needs at least one probe");
    if (config_.deadlineNs == 0)
        fatal("failure detector needs a nonzero probe deadline");
    if (config_.wedgeSweeps == 0)
        fatal("failure detector needs at least one wedge sweep");
    if (config_.babbleMinWords == 0)
        fatal("babble witness needs a nonzero minimum word sample");
    if (config_.babbleFraction <= 0.0 || config_.babbleFraction > 1.0)
        fatal("babble fraction must be in (0, 1]");
    if (config_.babbleSweeps == 0)
        fatal("failure detector needs at least one babble sweep");
    if (config_.slowEwmaAlpha <= 0.0 || config_.slowEwmaAlpha > 1.0)
        fatal("EWMA smoothing factor must be in (0, 1]");
    if (config_.tableStuckStrikes == 0)
        fatal("failure detector needs at least one stuck-table strike");
    if (config_.unfenceCheckNs == 0)
        fatal("failure detector needs a nonzero unfence-check delay");
}

void
FailureDetector::addBoard(std::uint32_t master,
                          const monitor::BusMonitor *monitor,
                          HealthFn health)
{
    if (find(master) != nullptr)
        fatal("master ", master, " registered twice with the detector");
    if (!health)
        fatal("master ", master, " registered without a HealthFn");
    Board board;
    board.master = master;
    board.monitor = monitor;
    board.health = std::move(health);
    resetWitness(board);
    boards_.push_back(std::move(board));
}

void
FailureDetector::install()
{
    if (installed_)
        fatal("failure detector installed twice on one bus");
    if (!onDead_ || !onFence_ || !onUnfence_)
        fatal("failure detector installed without its dead, fence and "
              "unfence hooks");
    installed_ = true;
    bus_.addTxObserver(
        [this](const mem::BusTransaction &tx,
               const mem::TxResult &result) {
            onTransaction(tx, result);
        });
}

void
FailureDetector::markRejoined(std::uint32_t master)
{
    Board *board = find(master);
    if (board == nullptr)
        fatal("markRejoined for unknown master ", master);
    board->state = BoardState::Live;
    board->kind = SuspicionKind::None;
    board->probeAttempt = 0;
    resetWitness(*board);
}

bool
FailureDetector::declaredDead(std::uint32_t master) const
{
    const Board *board = find(master);
    return board != nullptr && board->state == BoardState::Dead;
}

bool
FailureDetector::isFenced(std::uint32_t master) const
{
    const Board *board = find(master);
    return board != nullptr && board->state == BoardState::Fenced;
}

SuspicionKind
FailureDetector::fenceKindOf(std::uint32_t master) const
{
    const Board *board = find(master);
    if (board == nullptr || board->state != BoardState::Fenced)
        return SuspicionKind::None;
    return board->kind;
}

void
FailureDetector::fenceBoard(std::uint32_t master, SuspicionKind kind)
{
    Board *board = find(master);
    if (board == nullptr)
        fatal("fenceBoard for unknown master ", master);
    if (board->state == BoardState::Dead)
        fatal("master ", master, " is declared dead, not fenceable");
    if (board->state == BoardState::Fenced)
        return;
    fence(*board, kind);
}

FailureDetector::Board *
FailureDetector::find(std::uint32_t master)
{
    for (Board &board : boards_) {
        if (board.master == master)
            return &board;
    }
    return nullptr;
}

const FailureDetector::Board *
FailureDetector::find(std::uint32_t master) const
{
    for (const Board &board : boards_) {
        if (board.master == master)
            return &board;
    }
    return nullptr;
}

void
FailureDetector::onTransaction(const mem::BusTransaction &tx,
                               const mem::TxResult &result)
{
    // Stuck-table evidence: a completed explicit table write is the
    // owner visibly releasing (or downgrading) the frame — every
    // writable value replaces a Protect entry. If a *Protect-entry*
    // abort streak later re-forms on that same frame, the monitor
    // hardware dropped the write — the signature of a stuck table,
    // and one a live-but-busy owner can never produce.
    if (tx.type == mem::TxType::WriteActionTable && !result.aborted) {
        Board *writer = find(tx.requester);
        if (writer != nullptr && writer->stuckFrame != kNoFrame &&
            tx.paddr / pageBytes_ == writer->stuckFrame) {
            writer->stuckWriteSeen = true;
        }
    }

    if (!mem::isConsistencyRelated(tx.type))
        return;
    ++observed_;

    const std::uint64_t frame = tx.paddr / pageBytes_;

    // A completed side-effect update (ReadPrivate/AssertOwnership
    // re-acquisition) legitimately re-arms Protect on the frame, so
    // any pending release-write evidence there is stale: later
    // Protect aborts are the new ownership, not a dropped write.
    if (!result.aborted && tx.updatesTable) {
        Board *writer = find(tx.requester);
        if (writer != nullptr && writer->stuckFrame == frame)
            writer->stuckWriteSeen = false;
    }
    if (result.aborted) {
        const std::uint64_t streak = ++abortStreaks_[frame];
        if (streak >= config_.abortStreakThreshold) {
            abortStreaks_.erase(frame);
            suspectOwnerOf(frame, tx.type);
        }
    } else {
        abortStreaks_.erase(frame);
    }

    // Periodic sweep, clocked by bus traffic rather than a standing
    // timer so an idle event queue still drains. Each non-quarantined
    // board is probed once: liveness first (a dead board that owns
    // nothing is caught here), then the health witnesses read the same
    // report. Suspect boards are swept too — not just FailSlow ones:
    // a sick-but-alive board (say, fail-slow) draws a steady stream of
    // abort-streak Failstop suspicions from its stranded peers, each
    // cleared by the next probe, and skipping sweeps during those
    // windows would starve the very witness that can name the real
    // disease. Raising a *new* suspicion stays gated on Live inside
    // the sweep; for a pending one the updated deltas and EWMA are
    // what the probe reads to see a recovery.
    if (config_.sweepPeriod != 0 &&
        observed_ % config_.sweepPeriod == 0) {
        for (Board &board : boards_) {
            if (board.state != BoardState::Live &&
                board.state != BoardState::Suspect)
                continue;
            const HealthReport r = board.health();
            if (board.state == BoardState::Live && !r.alive)
                suspect(board, SuspicionKind::Failstop, false);
            else
                witnessSweep(board, r);
        }
    }
}

void
FailureDetector::suspectOwnerOf(std::uint64_t frame, mem::TxType type)
{
    // Whose table is doing the aborting? A Protect entry aborts every
    // consistency transaction; a Shared entry aborts write-back only.
    for (Board &board : boards_) {
        if (board.state != BoardState::Live || board.monitor == nullptr)
            continue;
        if (board.monitor->masked())
            continue;
        const mem::ActionEntry entry = board.monitor->table().get(frame);
        const bool aborter =
            entry == mem::ActionEntry::Protect ||
            (entry == mem::ActionEntry::Shared &&
             type == mem::TxType::WriteBack);
        if (aborter)
            suspect(board, SuspicionKind::Failstop, true, frame,
                    entry == mem::ActionEntry::Protect);
    }
}

void
FailureDetector::witnessSweep(Board &board, const HealthReport &r)
{
    const std::uint64_t d_serviced =
        r.wordsServiced - board.lastServiced;
    const std::uint64_t d_spurious =
        r.spuriousWords - board.lastSpurious;

    // Wedge witness: backlog pending and a frozen progress epoch,
    // sustained over wedgeSweeps consecutive sweeps. A busy-but-live
    // board advances its epoch between sweeps (sweepPeriod bus
    // transactions apart); a wedged one cannot.
    if (r.alive && r.pendingWords > 0 &&
        r.progressEpoch == board.lastEpoch) {
        if (++board.wedgeStrikes >= config_.wedgeSweeps &&
            board.state == BoardState::Live) {
            board.wedgeStrikes = 0;
            suspect(board, SuspicionKind::Wedge, false);
        }
    } else {
        board.wedgeStrikes = 0;
    }

    // Babble witness: of the words the board serviced since the last
    // sweep, what fraction turned out spurious? Judged only on a
    // meaningful sample, and only when sustained over babbleSweeps
    // consecutive windows — under heavy sharing a healthy board can
    // legitimately burn one whole window on stale FIFO entries for
    // frames it already released, but never window after window.
    if (d_serviced >= config_.babbleMinWords &&
        static_cast<double>(d_spurious) >=
            config_.babbleFraction * static_cast<double>(d_serviced)) {
        if (++board.babbleStrikes >= config_.babbleSweeps &&
            board.state == BoardState::Live) {
            board.babbleStrikes = 0;
            suspect(board, SuspicionKind::Babble, false);
        }
    } else if (d_serviced >= config_.babbleMinWords) {
        board.babbleStrikes = 0;
    }

    // Fail-slow witness: EWMA of per-word service latency.
    if (d_serviced > 0) {
        const double sample =
            static_cast<double>(r.serviceBusyNs - board.lastBusyNs) /
            static_cast<double>(d_serviced);
        board.latencyEwma = board.ewmaPrimed
            ? config_.slowEwmaAlpha * sample +
                  (1.0 - config_.slowEwmaAlpha) * board.latencyEwma
            : sample;
        board.ewmaPrimed = true;
        if (config_.slowLatencyNs != 0 &&
            board.state == BoardState::Live &&
            board.latencyEwma >
                static_cast<double>(config_.slowLatencyNs)) {
            suspect(board, SuspicionKind::FailSlow, false);
        }
    }

    board.lastEpoch = r.progressEpoch;
    board.lastServiced = r.wordsServiced;
    board.lastSpurious = r.spuriousWords;
    board.lastBusyNs = r.serviceBusyNs;
}

void
FailureDetector::suspect(Board &board, SuspicionKind kind,
                         bool streak_origin,
                         std::uint64_t streak_frame,
                         bool streak_protect)
{
    if (board.state != BoardState::Live)
        return;
    board.state = BoardState::Suspect;
    board.kind = kind;
    board.streakOrigin = streak_origin;
    board.streakFrame = streak_frame;
    board.streakProtect = streak_protect;
    board.probeAttempt = 0;
    board.probeDelay = config_.deadlineNs;
    const HealthReport r = board.health();
    board.suspectEpoch = r.progressEpoch;
    board.suspectServiced = r.wordsServiced;
    board.suspectSpurious = r.spuriousWords;
    ++suspicions_;
    switch (kind) {
      case SuspicionKind::Wedge:
        ++wedgeSuspicions_;
        break;
      case SuspicionKind::Babble:
        ++babbleSuspicions_;
        break;
      case SuspicionKind::FailSlow:
        ++slowSuspicions_;
        break;
      default:
        break;
    }
    VMP_DTRACE(debug::Recover, events_.now(), "suspect master ",
               board.master, " (", suspicionKindName(kind),
               "); first probe in ", board.probeDelay, " ns");
    Board *target = &board; // deque: stable address
    events_.scheduleIn(board.probeDelay, [this, target] {
        probe(*target);
    }, "fd-probe");
}

bool
FailureDetector::probeAnswered(Board &board)
{
    // Every kind is alive-gated: a dead board answers no probe (its
    // FIFO is quiet and its EWMA merely froze).
    const HealthReport r = board.health();
    if (!r.alive)
        return false;
    switch (board.kind) {
      case SuspicionKind::Wedge:
        // Answered if the service loop responds — or demonstrably made
        // progress since the suspicion (a loop can be momentarily
        // unresponsive while grinding through a storm).
        return r.responsive || r.progressEpoch != board.suspectEpoch;
      case SuspicionKind::Babble: {
        const std::uint64_t d_spurious =
            r.spuriousWords - board.suspectSpurious;
        if (d_spurious == 0)
            return true; // gone quiet since the suspicion
        const std::uint64_t d_serviced =
            r.wordsServiced - board.suspectServiced;
        return static_cast<double>(d_spurious) <
            config_.babbleFraction * static_cast<double>(d_serviced);
      }
      case SuspicionKind::FailSlow:
        // The EWMA keeps updating at sweeps while this suspicion is
        // pending; answered once it falls back under the threshold.
        return board.latencyEwma <=
            static_cast<double>(config_.slowLatencyNs);
      default:
        return true;
    }
}

void
FailureDetector::probe(Board &board)
{
    if (board.state != BoardState::Suspect)
        return; // rejoined or already declared while the probe was queued
    ++probes_;
    if (probeAnswered(board)) {
        board.state = BoardState::Live;
        ++falseSuspicions_;
        VMP_DTRACE(debug::Recover, events_.now(), "master ",
                   board.master, " answered probe ",
                   board.probeAttempt + 1, " (",
                   suspicionKindName(board.kind),
                   "); suspicion cleared");
        const bool streak =
            board.kind == SuspicionKind::Failstop && board.streakOrigin;
        board.kind = SuspicionKind::None;
        // Stuck-table escalation, evidence-gated. A board that trips
        // abort streaks yet answers probes alive may be running
        // software whose table no longer follows it — but a live owner
        // under a recovery storm produces the same surface pattern
        // (long retry chains against its legitimately-held frames).
        // The discriminator: a strike counts only when a *Protect*
        // streak re-forms on a frame the owner already visibly
        // released with a completed WriteActionTable. Every writable
        // value (Ignore/Shared/Notify) replaces Protect, so a live
        // monitor that applied the write cannot still show Protect
        // there — only a stuck table can. Shared-entry write-back
        // aborts never strike: a completed downgrade-to-Shared
        // legitimately keeps aborting write-backs. And a completed
        // side-effect re-acquisition (ReadPrivate/AssertOwnership)
        // clears the evidence in onTransaction — post-reacquisition
        // Protect aborts are new ownership, not a dropped write. (A
        // wedged board never issues the write at all — the wedge
        // witness owns that case.)
        if (streak && board.monitor != nullptr) {
            if (board.streakFrame == board.stuckFrame &&
                board.stuckWriteSeen && board.streakProtect) {
                // Post-release aborts on the tracked frame: hard
                // evidence. The write stays dropped, so keep the
                // evidence armed across strikes.
                if (++board.streakStrikes >=
                    config_.tableStuckStrikes) {
                    board.streakStrikes = 0;
                    board.stuckFrame = kNoFrame;
                    board.stuckWriteSeen = false;
                    ++stuckEscalations_;
                    fence(board, SuspicionKind::StuckTable);
                }
            } else if (board.streakFrame != board.stuckFrame) {
                // New frame: rebase and wait for the owner's release
                // write before any aborts can count as evidence.
                board.stuckFrame = board.streakFrame;
                board.stuckWriteSeen = false;
                board.streakStrikes = 0;
            }
            // Same frame, no release write yet: the owner simply has
            // not serviced the word — not evidence either way.
        }
        return;
    }
    ++board.probeAttempt;
    if (board.probeAttempt >= config_.maxProbes) {
        declare(board);
        return;
    }
    board.probeDelay *= 2; // exponential backoff
    VMP_DTRACE(debug::Recover, events_.now(), "master ", board.master,
               " missed probe ", board.probeAttempt, "; next in ",
               board.probeDelay, " ns");
    Board *target = &board;
    events_.scheduleIn(board.probeDelay, [this, target] {
        probe(*target);
    }, "fd-probe");
}

void
FailureDetector::declare(Board &board)
{
    // Partial failures are quarantined, not buried: the board is sick,
    // its frames are reclaimed, and it may yet be unfenced. Liveness
    // trumps the suspicion kind: a board that died while under a
    // witness suspicion is a failstop, whatever first drew attention
    // to it — fencing a corpse just sets up a futile unfence/refence
    // cycle (its FIFO is quiet because it is dead).
    if (board.kind != SuspicionKind::Failstop && board.health().alive) {
        fence(board, board.kind);
        return;
    }
    board.state = BoardState::Dead;
    ++declarations_;
    VMP_DTRACE(debug::Recover, events_.now(), "master ", board.master,
               " declared failstopped after ", config_.maxProbes,
               " probes");
    onDead_(board.master);
}

void
FailureDetector::fence(Board &board, SuspicionKind kind)
{
    board.state = BoardState::Fenced;
    board.kind = kind;
    ++fences_;
    VMP_DTRACE(debug::Recover, events_.now(), "master ", board.master,
               " fenced (", suspicionKindName(kind), ")");
    onFence_(board.master, kind);
    // The push counter is cumulative, so the post-fence baseline reads
    // correctly even after the recovery flow drained the FIFO.
    board.recheckCount = 0;
    board.recheckPushedBase = board.health().fifoPushed;
    // Wedge and babble fences recheck for recovery; fail-slow and
    // stuck-table boards stay fenced until operator action (rejoin).
    if (kind == SuspicionKind::Wedge || kind == SuspicionKind::Babble)
        scheduleRecheck(board);
}

void
FailureDetector::scheduleRecheck(Board &board)
{
    Board *target = &board;
    events_.scheduleIn(config_.unfenceCheckNs, [this, target] {
        recheck(*target);
    }, "fd-unfence");
}

void
FailureDetector::recheck(Board &board)
{
    if (board.state != BoardState::Fenced)
        return;
    bool clear = false;
    const HealthReport r = board.health();
    switch (board.kind) {
      case SuspicionKind::Wedge:
        // A formerly wedged loop that answers again recovered (or
        // never was wedged — the false-positive path).
        clear = r.alive && r.responsive;
        break;
      case SuspicionKind::Babble:
        // The monitor is masked, so only babble still pushes words:
        // one silent recheck window proves the fault cleared.
        // Alive-gated — a dead board is silent too.
        clear = r.alive && r.fifoPushed == board.recheckPushedBase;
        board.recheckPushedBase = r.fifoPushed;
        break;
      default:
        break;
    }
    if (clear) {
        ++unfences_;
        VMP_DTRACE(debug::Recover, events_.now(), "master ",
                   board.master, " unfenced (",
                   suspicionKindName(board.kind), " cleared)");
        board.state = BoardState::Live;
        board.kind = SuspicionKind::None;
        board.probeAttempt = 0;
        resetWitness(board);
        onUnfence_(board.master);
        return;
    }
    if (++board.recheckCount < config_.unfenceChecks) {
        scheduleRecheck(board);
    } else {
        VMP_DTRACE(debug::Recover, events_.now(), "master ",
                   board.master, " fence left standing after ",
                   config_.unfenceChecks, " rechecks");
    }
}

void
FailureDetector::resetWitness(Board &board)
{
    board.wedgeStrikes = 0;
    board.babbleStrikes = 0;
    board.streakStrikes = 0;
    board.streakFrame = kNoFrame;
    board.streakProtect = false;
    board.stuckFrame = kNoFrame;
    board.stuckWriteSeen = false;
    board.latencyEwma = 0.0;
    board.ewmaPrimed = false;
    const HealthReport r = board.health();
    board.lastEpoch = r.progressEpoch;
    board.lastServiced = r.wordsServiced;
    board.lastSpurious = r.spuriousWords;
    board.lastBusyNs = r.serviceBusyNs;
}

void
FailureDetector::registerStats(StatGroup &group) const
{
    group.addCounter("suspicions", "boards moved Live -> Suspect",
                     suspicions_);
    group.addCounter("probes", "liveness probes issued", probes_);
    group.addCounter("false_suspicions",
                     "suspicions cleared by an answered probe",
                     falseSuspicions_);
    group.addCounter("declarations", "boards declared failstopped",
                     declarations_);
    group.addCounter("wedge_suspicions",
                     "wedge-witness suspicions (frozen epoch)",
                     wedgeSuspicions_);
    group.addCounter("babble_suspicions",
                     "babble-witness suspicions (spurious fraction)",
                     babbleSuspicions_);
    group.addCounter("slow_suspicions",
                     "fail-slow suspicions (latency EWMA)",
                     slowSuspicions_);
    group.addCounter("stuck_escalations",
                     "abort-streak patterns escalated to a fence",
                     stuckEscalations_);
    group.addCounter("fences", "boards quarantined", fences_);
    group.addCounter("unfences",
                     "fences cleared by a recovery recheck",
                     unfences_);
}

} // namespace vmp::recover
