/**
 * @file
 * Interprocessor messages over the bus monitor (Section 5.4): a
 * producer processor sends a stream of work items to a consumer's
 * mailbox; the consumer is interrupted by notify transactions rather
 * than polling. Compare the bus transaction count with what a polled
 * shared-memory queue would cost.
 *
 *   $ ./examples/message_passing
 */

#include <iostream>
#include <numeric>

#include "core/system.hh"
#include "sim/logging.hh"
#include "sync/mailbox.hh"
#include "trace/synthetic.hh"

int
main()
{
    using namespace vmp;
    setInformEnabled(false);

    core::VmpConfig config;
    config.processors = 2;
    config.cache = cache::CacheConfig::forSize(KiB(64), 256, 4, true);
    config.memBytes = MiB(8);
    core::VmpSystem system(config);
    system.attachIdleServicers();

    constexpr std::uint32_t messages = 64;
    const Addr box = 0x400; // reserved uncached frame
    constexpr std::uint32_t slots = 16;

    // CPU0 is the consumer: its bus monitor's entry for the mailbox
    // frame is set to 11 (notify); incoming notify transactions
    // interrupt it and it drains the ring.
    sync::MailboxReceiver receiver(system.controller(0), box, slots);
    std::uint64_t received_sum = 0;
    std::uint32_t received_count = 0;
    receiver.enable(
        [&](std::uint32_t message) {
            received_sum += message;
            ++received_count;
        },
        [] {});
    system.events().run();

    // CPU1 produces: deposit + one notify transaction per message.
    std::uint32_t sent = 0, dropped = 0;
    for (std::uint32_t i = 1; i <= messages; ++i) {
        bool done = false;
        sync::mailboxSend(system.controller(1), box, slots, i,
                          [&](bool delivered) {
                              (delivered ? sent : dropped) += 1;
                              done = true;
                          });
        system.events().run();
        if (!done)
            fatal("send did not complete");
    }

    const std::uint64_t expected =
        static_cast<std::uint64_t>(messages) * (messages + 1) / 2;
    std::cout << "Producer sent " << sent << " messages (" << dropped
              << " dropped); consumer received " << received_count
              << ", sum " << received_sum
              << (received_sum == expected ? " (correct)"
                                           : " (WRONG)")
              << "\n";
    std::cout << "Bus transactions: "
              << system.root().bus.transactions().value() << " total, "
              << system.root().bus.countOf(mem::TxType::Notify).value()
              << " notifies, "
              << system.root().bus.countOf(mem::TxType::ReadPrivate).value()
              << " read-privates (no cache-page ping-pong: the ring "
                 "lives in uncached memory)\n";
    std::cout << "Simulated time: "
              << toUsec(system.events().now()) << " us for "
              << messages << " messages ("
              << toUsec(system.events().now()) / messages
              << " us/message)\n";
    return 0;
}
