#include "sync/mailbox.hh"

#include "sim/logging.hh"

namespace vmp::sync
{

MailboxReceiver::MailboxReceiver(proto::CacheController &owner,
                                 Addr base, std::uint32_t slots)
    : owner_(owner), base_(base), slots_(slots)
{
    if (!isPowerOf2(slots) || slots == 0)
        fatal("mailbox slot count must be a power of two");
}

MailboxReceiver::~MailboxReceiver()
{
    owner_.setNotifyHandler(nullptr);
}

void
MailboxReceiver::enable(Handler handler,
                        proto::CacheController::Done done)
{
    handler_ = std::move(handler);
    owner_.setNotifyHandler([this](Addr paddr) {
        // Dispatch on the interrupt word's frame address.
        if (alignDown(base_, owner_.cache().config().pageBytes) ==
            paddr) {
            drain();
        }
    });
    owner_.writeTable(base_, mem::ActionEntry::Notify, std::move(done));
}

void
MailboxReceiver::disable(proto::CacheController::Done done)
{
    owner_.setNotifyHandler(nullptr);
    handler_ = nullptr;
    owner_.writeTable(base_, mem::ActionEntry::Ignore, std::move(done));
}

void
MailboxReceiver::drain()
{
    if (draining_)
        return;
    draining_ = true;
    drainNext();
}

void
MailboxReceiver::drainNext()
{
    owner_.uncachedRead(
        base_ + MailboxLayout::headOffset, [this](std::uint32_t head) {
            owner_.uncachedRead(
                base_ + MailboxLayout::tailOffset,
                [this, head](std::uint32_t tail) {
                    if (head == tail) {
                        draining_ = false;
                        return;
                    }
                    const Addr slot_addr = base_ +
                        MailboxLayout::slotsOffset + (head % slots_) * 4;
                    owner_.uncachedRead(
                        slot_addr, [this, head](std::uint32_t message) {
                            owner_.uncachedWrite(
                                base_ + MailboxLayout::headOffset,
                                head + 1, [this, message] {
                                    ++received_;
                                    if (handler_)
                                        handler_(message);
                                    drainNext();
                                });
                        });
                });
        });
}

void
mailboxSend(proto::CacheController &sender, Addr base,
            std::uint32_t slots, std::uint32_t message,
            std::function<void(bool)> done)
{
    if (!isPowerOf2(slots) || slots == 0)
        fatal("mailbox slot count must be a power of two");

    // Acquire the mailbox spin word (senders only; the receiver's
    // head update is a single racing-safe word advance).
    sender.uncachedTas(
        base + MailboxLayout::lockOffset,
        [&sender, base, slots, message,
         done = std::move(done)](std::uint32_t old) {
            if (old != 0) {
                // Spin word held: retry the whole send.
                mailboxSend(sender, base, slots, message, done);
                return;
            }
            sender.uncachedRead(
                base + MailboxLayout::headOffset,
                [&sender, base, slots, message,
                 done](std::uint32_t head) {
                    sender.uncachedRead(
                        base + MailboxLayout::tailOffset,
                        [&sender, base, slots, message, done,
                         head](std::uint32_t tail) {
                            const bool full = tail - head >= slots;
                            auto finish = [&sender, base, done,
                                           full](bool notify) {
                                sender.uncachedWrite(
                                    base + MailboxLayout::lockOffset, 0,
                                    [&sender, base, done, full, notify] {
                                        if (!notify) {
                                            done(!full);
                                            return;
                                        }
                                        sender.notifyFrame(
                                            base,
                                            [done, full] { done(!full); });
                                    });
                            };
                            if (full) {
                                finish(false);
                                return;
                            }
                            const Addr slot_addr = base +
                                MailboxLayout::slotsOffset +
                                (tail % slots) * 4;
                            sender.uncachedWrite(
                                slot_addr, message,
                                [&sender, base, tail,
                                 finish = std::move(finish)] {
                                    sender.uncachedWrite(
                                        base + MailboxLayout::tailOffset,
                                        tail + 1,
                                        [finish] { finish(true); });
                                });
                        });
                });
        });
}

} // namespace vmp::sync
