/**
 * @file
 * Software-cost model of the cache-management code that runs out of
 * local memory. The paper evaluates the miss handler by summing 68020
 * instruction execution times ("about 15 usecs" of software per miss,
 * Section 5.1); these constants reproduce Table 1 when combined with
 * the 300/100 ns block-transfer timing:
 *
 *   elapsed(clean victim) = trapEntry + overlap + post + readXfer
 *                         = 13.5 us + readXfer
 *   elapsed(dirty victim) = trapEntry + max(overlap, wbXfer) + post
 *                           + readXfer
 *
 * i.e. up to `kOverlapNs` of bookkeeping is performed concurrently with
 * the victim write-back by the block copier, and the remainder of the
 * handler is serial.
 */

#ifndef VMP_PROTO_TIMING_HH
#define VMP_PROTO_TIMING_HH

#include "sim/types.hh"

namespace vmp::proto
{

// Instruction-time budget of the software cache-management routines.

/** Exception stacking and dispatch into the miss handler. */
inline constexpr Tick kTrapEntryNs = 2000;
/**
 * Bookkeeping that can overlap the victim write-back transfer
 * (virtual-to-physical translation, cache-table updates).
 */
inline constexpr Tick kOverlapNs = 3400;
/** Serial remainder of the handler, including return-from-trap. */
inline constexpr Tick kPostNs = 8100;
/** Software cost of an ownership (assert-ownership) miss. */
inline constexpr Tick kOwnershipNs = 8000;
/** Software cost of servicing one consistency interrupt word. */
inline constexpr Tick kServiceNs = 3000;
/** Extra re-trap cost when retrying after an aborted transaction. */
inline constexpr Tick kRetryNs = 1000;
/**
 * Upper bound of the random jitter added to each retry. Real
 * instruction streams desynchronize contending processors; a
 * deterministic simulator needs explicit jitter or symmetric
 * contenders can livelock in lockstep.
 */
inline constexpr Tick kRetryJitterNs = 12000;
/** Inter-bus board: install a fetched page in the cluster image and
 *  update the tables. */
inline constexpr Tick kInstallNs = 2000;
/**
 * Default dead-owner deadline: when one logical operation (an access
 * miss, a write-back, an assert-ownership, ...) has been retrying for
 * longer than this, the controller abandons the wait and raises a
 * structured DeadOwnerError instead of spinning forever against a
 * board that will never answer. 0 disables the timed wait. The
 * default is orders of magnitude beyond any retry chain a live
 * system produces (tens of microseconds), so the timed wait does
 * not perturb fault-free runs.
 */
inline constexpr Tick kDeadOwnerTimeoutNs = 50'000'000;

/** Total serial software time on a miss (no write-back overlap). */
constexpr Tick
serialNs()
{
    return kTrapEntryNs + kOverlapNs + kPostNs;
}

} // namespace vmp::proto

#endif // VMP_PROTO_TIMING_HH
