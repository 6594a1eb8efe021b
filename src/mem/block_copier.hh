/**
 * @file
 * The block copier embedded in each cache controller (Section 2). It
 * moves whole cache pages between main memory and the cache over the
 * bus's sequential block-transfer mode, concurrently with the CPU
 * executing out of local memory, and carries the cache-page flags /
 * action-table entry to apply if the copy succeeds.
 */

#ifndef VMP_MEM_BLOCK_COPIER_HH
#define VMP_MEM_BLOCK_COPIER_HH

#include <cstdint>

#include "mem/vme_bus.hh"
#include "sim/stats.hh"

namespace vmp::mem
{

/**
 * One processor board's block-copy engine. At most one copy operation
 * may be in flight per copier, matching the hardware (the CPU blocks on
 * the cache controller mid-instruction if it references the cache while
 * a transfer is in progress).
 */
class BlockCopier final : public BusClient
{
  public:
    BlockCopier(std::uint32_t master_id, VmeBus &bus);

    /**
     * Start a page read (read-shared or read-private per @p exclusive)
     * from main memory into @p buffer. @p done receives the bus's
     * result once the copier has done its own bookkeeping.
     */
    void readPage(Addr paddr, std::uint8_t *buffer, std::uint32_t bytes,
                  bool exclusive, Completion done);

    /**
     * Write a page back to main memory, releasing ownership. The
     * requester's action-table entry becomes @p after (Ignore when the
     * page is being dropped, Shared when it is being downgraded).
     */
    void writeBackPage(Addr paddr, const std::uint8_t *buffer,
                       std::uint32_t bytes, ActionEntry after,
                       Completion done);

    bool busy() const { return busy_; }

    /**
     * Attach (or detach, with nullptr) a fault-injection hook; when
     * set, injectCopierStall() may delay a transfer's bus request by a
     * bounded number of ticks (the copier stays busy meanwhile, so the
     * CPU blocks exactly as it would on a slow engine).
     */
    void setFaultHooks(FaultHooks *hooks) { hooks_ = hooks; }

    /**
     * Attach (or detach, with nullptr) an event tracer; each transfer
     * records a Copy span on @p track covering the whole engine
     * occupancy (including any injected stall). Observation only.
     */
    void
    setTracer(obs::EventTracer *tracer, std::uint16_t track)
    {
        tracer_ = tracer;
        traceTrack_ = track;
    }

    const Counter &copies() const { return copies_; }
    const Counter &abortedCopies() const { return aborted_; }
    /** Transfers delayed by an injected copier stall. */
    const Counter &stalledCopies() const { return stalled_; }

    /** The transfer left the bus: forward to its owner's completion. */
    void busDone(std::uint64_t token, const TxResult &res) override;

  private:
    void start(const BusTransaction &tx, Completion done);
    /** Put the transfer on the bus (after any injected stall). */
    void issue();

    std::uint32_t masterId_;
    VmeBus &bus_;
    bool busy_ = false;
    FaultHooks *hooks_ = nullptr;
    obs::EventTracer *tracer_ = nullptr;
    std::uint16_t traceTrack_ = 0;
    /** The transfer in flight and its owner's completion (valid while
     *  busy_), and the tick start() ran at (for the Copy span). */
    BusTransaction tx_;
    Completion done_;
    Tick startedAt_ = 0;
    Counter copies_;
    Counter aborted_;
    Counter stalled_;
};

} // namespace vmp::mem

#endif // VMP_MEM_BLOCK_COPIER_HH
