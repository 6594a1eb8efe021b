/**
 * @file
 * Dead-owner error reporting for the ownership protocol. The paper's
 * Section 3 retry discipline assumes the Protect owner of a page will
 * eventually service its interrupt and release the page; a failstopped
 * board never does, so an op retrying against its stale entry would
 * otherwise spin forever and silently hang the event queue. The
 * controller converts such waits into *timed* waits: when one logical
 * operation has been retrying longer than the configured dead-owner
 * deadline it abandons the wait and surfaces a structured
 * DeadOwnerError — whether or not the recovery subsystem is present.
 *
 * The DeadOwnerOracle is how the recovery subsystem (when enabled)
 * tells the controller and its watchdog which frames are known to be
 * stranded by a declared-dead board, so the watchdog can distinguish a
 * genuine livelock from a dead owner.
 */

#ifndef VMP_PROTO_DEAD_OWNER_HH
#define VMP_PROTO_DEAD_OWNER_HH

#include <cstdint>
#include <sstream>
#include <string>

#include "sim/types.hh"

namespace vmp::proto
{

/**
 * Structured report of an operation abandoned because the board that
 * must answer it appears failstopped (retry deadline exceeded).
 */
struct DeadOwnerError
{
    /** The abandoning client: "cpu" or "ibc" (see WatchdogReport). */
    const char *client = "cpu";
    CpuId cpu = 0;
    /** Which retry loop timed out ("access", "write-back", ...). */
    std::string operation;
    /** Frame address the operation was against (0 if unknown). */
    Addr paddr = 0;
    /** Faulting virtual address for access-path errors. */
    Addr vaddr = 0;
    /** Retries attempted before abandoning. */
    std::uint64_t attempts = 0;
    /** Tick the abandoned operation started at. */
    Tick started = 0;
    /** Tick the deadline expired at. */
    Tick now = 0;
    /** True when the recovery oracle confirms the owner is dead. */
    bool ownerKnownDead = false;

    std::string
    toString() const
    {
        std::ostringstream os;
        os << client << cpu << " " << operation
           << " abandoned after " << attempts << " retries ("
           << (now - started) << " ns) pa=0x" << std::hex << paddr
           << std::dec
           << (ownerKnownDead ? " [owner declared dead]"
                              : " [owner unresponsive]");
        return os.str();
    }
};

/**
 * Interface the recovery subsystem implements so the protocol layer can
 * ask whether the Protect owner of a frame has been declared
 * failstopped. Null (no oracle installed) means "nothing is known
 * dead" — the zero-cost default when recovery is disabled.
 */
class DeadOwnerOracle
{
  public:
    virtual ~DeadOwnerOracle() = default;

    /** True if the frame at @p paddr is stranded by a dead board. */
    virtual bool isFrameOwnerDead(Addr paddr) const = 0;
};

} // namespace vmp::proto

#endif // VMP_PROTO_DEAD_OWNER_HH
