/**
 * @file
 * Interprocessor messages over the bus monitor (Section 5.4: "the bus
 * monitor can also be used to implement interprocessor messages: the
 * bus monitor would interrupt the processor when a message is written
 * to the cache page corresponding to its mailbox").
 *
 * The mailbox is a small ring buffer in non-cached global memory
 * (reserved low frames): a spin word serializing senders, head/tail
 * indices, and a power-of-two array of 32-bit message slots. The
 * receiving processor sets its action-table entry for the mailbox's
 * frame to 11 (notify); a sender deposits the message with uncached
 * writes and issues one notify transaction, which interrupts exactly
 * the subscribed processor — no polling, no cache traffic.
 */

#ifndef VMP_SYNC_MAILBOX_HH
#define VMP_SYNC_MAILBOX_HH

#include <cstdint>
#include <functional>

#include "proto/controller.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vmp::sync
{

/** Word offsets of the mailbox header in memory. */
struct MailboxLayout
{
    static constexpr Addr lockOffset = 0;
    static constexpr Addr headOffset = 4;
    static constexpr Addr tailOffset = 8;
    static constexpr Addr slotsOffset = 12;

    /** Total bytes for a mailbox with @p slots message slots. */
    static constexpr std::uint32_t
    bytes(std::uint32_t slots)
    {
        return slotsOffset + slots * 4;
    }
};

/**
 * Receiving end of one mailbox, bound to the owning processor's
 * controller. Installs itself as the controller's notify handler (the
 * real system dispatches on the interrupt word's address; this model
 * supports one mailbox handler per processor plus pass-through for
 * other frames).
 */
class MailboxReceiver
{
  public:
    using Handler = std::function<void(std::uint32_t message)>;

    /**
     * @param base physical address of the mailbox (uncached region)
     * @param slots ring capacity (power of two)
     */
    MailboxReceiver(proto::CacheController &owner, Addr base,
                    std::uint32_t slots);
    ~MailboxReceiver();

    /** Subscribe: set the action-table entry to notify and install
     *  @p handler; completes when the entry is written. */
    void enable(Handler handler, proto::CacheController::Done done);

    /** Unsubscribe (entry back to 00). */
    void disable(proto::CacheController::Done done);

    Addr base() const { return base_; }
    std::uint32_t slots() const { return slots_; }
    const Counter &received() const { return received_; }

  private:
    /** Drain all queued messages, then idle. */
    void drain();
    /** Receive the next queued message, if any, and re-enter. */
    void drainNext();

    proto::CacheController &owner_;
    Addr base_;
    std::uint32_t slots_;
    Handler handler_;
    bool draining_ = false;
    Counter received_;
};

/**
 * Send @p message to the mailbox at @p base through @p sender's
 * controller: acquire the mailbox spin word, append (dropping the
 * message if the ring is full — returned in the callback), release,
 * and notify. Any processor (or several concurrently) may send.
 */
void mailboxSend(proto::CacheController &sender, Addr base,
                 std::uint32_t slots, std::uint32_t message,
                 std::function<void(bool delivered)> done);

} // namespace vmp::sync

#endif // VMP_SYNC_MAILBOX_HH
