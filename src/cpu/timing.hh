/**
 * @file
 * Processor timing model. The prototype pairs a 16 MHz 68020 (60 ns
 * cycle) with zero-wait-state cache access; following MacGregor[16] the
 * paper uses 7 clocks per instruction (2.4 MIPS) and, implicitly in the
 * Figure 3/5 formulas, 1.2 memory references per instruction.
 */

#ifndef VMP_CPU_TIMING_HH
#define VMP_CPU_TIMING_HH

#include "sim/types.hh"

namespace vmp::cpu
{

/** Processor clock period. */
inline constexpr Tick kClockNs = 60;
/** Average clocks per instruction (MacGregor[16]). */
inline constexpr double kClocksPerInstr = 7.0;
/** Average memory references per instruction. */
inline constexpr double kRefsPerInstr = 1.2;

/** Time for one average instruction (417 ns, 2.4 MIPS). */
constexpr Tick
instrNs()
{
    return static_cast<Tick>(static_cast<double>(kClockNs) *
                             kClocksPerInstr);
}

/** Full-speed time attributed to one memory reference. */
constexpr Tick
refNs()
{
    return static_cast<Tick>(static_cast<double>(instrNs()) /
                             kRefsPerInstr);
}

/** Instruction execution rate in MIPS. */
constexpr double
mips()
{
    return 1000.0 / static_cast<double>(instrNs());
}

} // namespace vmp::cpu

#endif // VMP_CPU_TIMING_HH
