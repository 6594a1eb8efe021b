/**
 * @file
 * DMA I/O example: the Section 3.3 bracket that lets plain VME DMA
 * devices coexist with the consistency protocol. A processor caches a
 * buffer (dirtying it), then the "operating system" takes an uncached
 * lock on the region, assert-ownership flushes every cached copy, the
 * device streams fresh data in with ordinary (unmonitored) DMA
 * transactions, the protection is released, and both processors then
 * read the device's data — with no stale cache copies anywhere.
 *
 *   $ ./examples/dma_io
 */

#include <cstring>
#include <iostream>

#include "core/system.hh"
#include "sim/logging.hh"
#include "mem/dma.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace vmp;

/** Synchronously drive an async controller op from the example. */
template <typename Fn>
void
drive(core::VmpSystem &system, Fn &&fn)
{
    bool done = false;
    fn([&done] { done = true; });
    system.events().run();
    if (!done)
        fatal("dma example: operation did not complete");
}

} // namespace

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
    // No CPU models in this example: let each board service its own
    // bus-monitor interrupts as an idle processor would.
    system.attachIdleServicers();

    // A DMA device on the bus (ids above the CPUs are free).
    mem::DmaDevice disk(100, system.root().bus);

    const Addr buffer_va = trace::kernelBase + 0x6000;
    constexpr std::uint32_t buffer_bytes = 512; // two cache pages

    // 1. Both CPUs touch the buffer; CPU0 dirties it.
    std::cout << "1. CPU0 writes the buffer (cached, dirty); CPU1 "
                 "reads it.\n";
    drive(system, [&](auto done) {
        system.controller(0).writeWord(1, buffer_va, 0x01010101, true,
                                       done);
    });
    std::uint32_t seen = 0;
    system.controller(1).readWord(2, buffer_va, true,
                                  [&](std::uint32_t v) { seen = v; });
    system.events().run();
    std::cout << "   CPU1 sees 0x" << std::hex << seen << std::dec
              << "\n";

    // The buffer's physical frames (resolve via CPU0's bookkeeping: in
    // a real kernel the driver knows the mapping; here we probe).
    // kernel pages were demand-allocated; find the paddr by asking the
    // translator through a fresh access is overkill — the memory image
    // is what the device addresses, so locate it by content.
    Addr buffer_pa = 0;
    bool found = false;
    for (Addr pa = 0; pa + 4 <= config.memBytes && !found; pa += 4) {
        if (system.memory().readWord(pa) == 0x01010101) {
            // CPU0's copy may still be dirty; flush below handles it.
            buffer_pa = pa;
            found = true;
        }
    }

    // 2. OS bracket: uncached lock, then assert-ownership per frame.
    std::cout << "2. OS takes the uncached region lock and "
                 "assert-ownership flushes all cached copies.\n";
    drive(system, [&](auto done) {
        system.controller(0).uncachedTas(
            0x300, [done](std::uint32_t old) {
                if (old != 0)
                    fatal("region lock unexpectedly held");
                done();
            });
    });
    if (!found) {
        // Dirty data never reached memory yet: flush via the bracket
        // using the virtual address path on CPU0 (which owns it).
        // assert-ownership from CPU1 forces CPU0's write-back.
        drive(system, [&](auto done) {
            // CPU1 doesn't know the paddr either in this toy; so make
            // CPU0 write back by downgrading: CPU1 reads the buffer.
            system.controller(1).readWord(
                2, buffer_va, true,
                [done](std::uint32_t) { done(); });
        });
        for (Addr pa = 0; pa + 4 <= config.memBytes; pa += 4) {
            if (system.memory().readWord(pa) == 0x01010101) {
                buffer_pa = pa;
                found = true;
                break;
            }
        }
    }
    if (!found)
        fatal("could not locate the buffer frame");

    for (Addr pa = buffer_pa; pa < buffer_pa + buffer_bytes;
         pa += config.cache.pageBytes) {
        drive(system, [&](auto done) {
            system.controller(0).assertOwnership(pa, done);
        });
        drive(system, [&](auto done) {
            system.controller(0).flushFrame(pa, done);
        });
    }
    // Other CPUs drop their copies when they service the interrupt.
    drive(system, [&](auto done) {
        system.controller(1).serviceInterrupts(done);
    });

    // 3. Device DMA: plain block write, no monitor involvement.
    std::cout << "3. Device streams " << buffer_bytes
              << " bytes of fresh data via DMA.\n";
    std::vector<std::uint8_t> device_data(buffer_bytes);
    for (std::uint32_t i = 0; i < buffer_bytes; ++i)
        device_data[i] = static_cast<std::uint8_t>(0xD0 + i % 16);
    drive(system, [&](auto done) {
        disk.write(buffer_pa, device_data, done);
    });

    // 4. Release protection and the lock.
    std::cout << "4. OS releases the frames and the region lock.\n";
    for (Addr pa = buffer_pa; pa < buffer_pa + buffer_bytes;
         pa += config.cache.pageBytes) {
        drive(system, [&](auto done) {
            system.controller(0).releaseProtection(pa, done);
        });
    }
    drive(system, [&](auto done) {
        system.controller(0).uncachedWrite(0x300, 0, done);
    });

    // 5. Both CPUs read the buffer: they must see the DEVICE data.
    std::uint32_t expect = 0;
    std::memcpy(&expect, device_data.data(), 4);
    for (std::size_t cpu = 0; cpu < 2; ++cpu) {
        std::uint32_t value = 0;
        system.controller(cpu).readWord(
            static_cast<Asid>(cpu + 1), buffer_va, true,
            [&](std::uint32_t v) { value = v; });
        system.events().run();
        std::cout << "5. CPU" << cpu << " reads 0x" << std::hex
                  << value << std::dec
                  << (value == expect ? "  (device data, no stale copy)"
                                      : "  (STALE!)")
                  << "\n";
    }

    std::cout << "\nDevice moved " << disk.bytesMoved()
              << " bytes in " << disk.transfers().value()
              << " DMA transfers; bus aborts during DMA: 0 by "
                 "construction.\n";
    return 0;
}
