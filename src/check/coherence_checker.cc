#include "check/coherence_checker.hh"

#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vmp::check
{

namespace
{

/** Human-readable violation reports kept; the counter keeps counting. */
constexpr std::size_t kMaxReports = 16;

} // namespace

CoherenceChecker::CoherenceChecker(mem::VmeBus &bus, mem::PhysMem &memory)
    : bus_(bus), mem_(memory)
{
}

std::uint32_t
CoherenceChecker::pageBytes() const
{
    return mem_.pageBytes();
}

void
CoherenceChecker::addController(const proto::CacheController &controller)
{
    controllers_.push_back(&controller);
    monitors_.push_back(&controller.monitor());
}

void
CoherenceChecker::addMonitor(const monitor::BusMonitor &monitor)
{
    monitors_.push_back(&monitor);
}

void
CoherenceChecker::install()
{
    if (installed_)
        fatal("coherence checker installed twice on one bus");
    installed_ = true;
    bus_.addTxObserver(
        [this](const mem::BusTransaction &tx,
               const mem::TxResult &result) {
            onTransaction(tx, result);
        });
}

void
CoherenceChecker::report(const std::string &text)
{
    ++violations_;
    VMP_DTRACE(debug::Check, bus_.eventQueue().now(),
               "VIOLATION: ", text);
    if (reports_.size() < kMaxReports)
        reports_.push_back(text);
}

void
CoherenceChecker::onTransaction(const mem::BusTransaction &tx,
                                const mem::TxResult &result)
{
    (void)result;
    ++observed_;
    // Online check: bus-side state only. Software bookkeeping (shadow
    // tables, frame maps) legitimately lags the transaction that is
    // completing right now — handlers run afterwards — so only the
    // hardware single-owner invariant is checkable per transaction.
    if (mem::isConsistencyRelated(tx.type) ||
        tx.type == mem::TxType::WriteActionTable) {
        checkFrameOwners(tx.paddr / pageBytes(), tx.toString().c_str());
    }
}

void
CoherenceChecker::checkFrameOwners(std::uint64_t frame,
                                   const char *context)
{
    std::size_t owners = 0;
    for (const monitor::BusMonitor *monitor : monitors_) {
        // A masked monitor is off the bus: its stale entries neither
        // abort anything nor count as ownership (a live board may
        // legally re-acquire a frame mid-reclaim).
        if (monitor->masked())
            continue;
        if (monitor->table().get(frame) == mem::ActionEntry::Protect)
            ++owners;
    }
    if (owners > 1) {
        std::ostringstream os;
        os << "I1: frame " << frame << " has " << owners
           << " Protect owners (" << context << ")";
        report(os.str());
    }
}

std::uint64_t
CoherenceChecker::checkOwnersSweep()
{
    const std::uint64_t before = violations_.value();
    std::set<std::uint64_t> frames_of_interest;
    for (const monitor::BusMonitor *monitor : monitors_) {
        if (monitor->masked())
            continue;
        for (const std::uint64_t frame :
             monitor->table().nonIgnoredFrames()) {
            frames_of_interest.insert(frame);
        }
    }
    for (const std::uint64_t frame : frames_of_interest)
        checkFrameOwners(frame, "owners sweep");
    return violations_.value() - before;
}

std::uint64_t
CoherenceChecker::checkFull()
{
    const std::uint64_t before = violations_.value();
    const std::uint32_t page = pageBytes();

    // --- I1: at most one Protect owner per frame, globally ---
    checkOwnersSweep();

    // --- per-controller invariants ---
    std::map<std::uint64_t, std::size_t> private_claims; // I4
    for (const proto::CacheController *ctl : controllers_) {
        // A failstopped board's software state is gone and its masked
        // monitor table is recovery input, not protocol state: skip
        // its per-board invariants until it rejoins.
        if (ctl->dead())
            continue;
        const auto cpu = ctl->id();
        const monitor::ActionTable &table = ctl->monitor().table();

        // I2: software frame state vs own hardware table entry.
        for (const auto &[frame, info] : ctl->frameTable()) {
            const mem::ActionEntry entry = table.get(frame);
            if (info.state == proto::FrameState::Private) {
                ++private_claims[frame];
                if (entry != mem::ActionEntry::Protect) {
                    std::ostringstream os;
                    os << "I2: cpu" << cpu << " holds frame " << frame
                       << " Private but its entry is "
                       << mem::actionEntryName(entry);
                    report(os.str());
                }
            } else if (entry != mem::ActionEntry::Shared) {
                std::ostringstream os;
                os << "I2: cpu" << cpu << " holds frame " << frame
                   << " Shared but its entry is "
                   << mem::actionEntryName(entry);
                report(os.str());
            }
        }

        // I2 (reverse): a Protect entry must be backed by a Private
        // frame — stale Protect would abort every other master forever.
        for (const std::uint64_t frame : table.nonIgnoredFrames()) {
            if (table.get(frame) != mem::ActionEntry::Protect)
                continue;
            const auto it = ctl->frameTable().find(frame);
            if (it == ctl->frameTable().end() ||
                it->second.state != proto::FrameState::Private) {
                std::ostringstream os;
                os << "I2: cpu" << cpu << " table entry Protect for "
                   << "frame " << frame
                   << " without Private bookkeeping (stale 10)";
                report(os.str());
            }
        }

        // I3: software shadow table == hardware table.
        for (const auto &[frame, entry] : ctl->shadowTable()) {
            const mem::ActionEntry actual = table.get(frame);
            if (actual != entry) {
                std::ostringstream os;
                os << "I3: cpu" << cpu << " shadow says "
                   << mem::actionEntryName(entry) << " for frame "
                   << frame << " but the table holds "
                   << mem::actionEntryName(actual);
                report(os.str());
            }
        }

        // I5/I7: slot maps vs cache flags, and dirty => Private.
        const cache::Cache &cache = ctl->cache();
        const std::vector<std::uint64_t> &slot_frames = ctl->slotFrames();
        std::set<std::uint64_t> dirty_frames;
        for (std::size_t index = 0; index < slot_frames.size(); ++index) {
            const auto slot = static_cast<cache::SlotIndex>(index);
            const std::uint64_t frame = slot_frames[index];
            const cache::Slot &s = cache.slot(slot);
            const bool tracked = frame != proto::noFrame;
            if (tracked != s.valid()) {
                std::ostringstream os;
                os << "I7: cpu" << cpu << " slot " << slot;
                if (tracked)
                    os << " tracked for frame " << frame
                       << " but invalid in the cache";
                else
                    os << " valid in the cache but untracked";
                report(os.str());
            }
            if (!tracked || !s.valid())
                continue;
            if (s.modified())
                dirty_frames.insert(frame);
            if (s.modified() || s.exclusive()) {
                const auto it = ctl->frameTable().find(frame);
                if (it == ctl->frameTable().end() ||
                    it->second.state != proto::FrameState::Private) {
                    std::ostringstream os;
                    os << "I5: cpu" << cpu << " slot " << slot
                       << (s.modified() ? " modified" : " exclusive")
                       << " but frame " << frame << " is not Private";
                    report(os.str());
                }
            }
        }

        // I6: clean copies match the memory-server image. Skipped for
        // frames with a dirty slot (memory is legitimately stale).
        if (cache.config().storeData) {
            std::vector<std::uint8_t> image(page);
            for (std::size_t index = 0; index < slot_frames.size();
                 ++index) {
                const auto slot = static_cast<cache::SlotIndex>(index);
                const std::uint64_t frame = slot_frames[index];
                const cache::Slot &s = cache.slot(slot);
                if (frame == proto::noFrame || !s.valid() ||
                    dirty_frames.count(frame) != 0)
                    continue;
                mem_.readBlock(frame * page, image.data(), page);
                if (std::memcmp(cache.pageData(slot).data(),
                                image.data(), page) != 0) {
                    std::ostringstream os;
                    os << "I6: cpu" << cpu << " clean slot " << slot
                       << " differs from memory frame " << frame;
                    report(os.str());
                }
            }
        }
    }

    // --- I4: at most one controller believes it owns a frame ---
    for (const auto &[frame, claims] : private_claims) {
        if (claims > 1) {
            std::ostringstream os;
            os << "I4: frame " << frame << " claimed Private by "
               << claims << " controllers";
            report(os.str());
        }
    }

    return violations_.value() - before;
}

void
CoherenceChecker::registerStats(StatGroup &group) const
{
    group.addCounter("transactions_observed",
                     "bus transactions observed by the checker",
                     observed_);
    group.addCounter("violations",
                     "coherence-invariant violations detected",
                     violations_);
}

} // namespace vmp::check
