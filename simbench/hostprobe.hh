/**
 * @file
 * The host probe: a fixed piece of work, independent of the simulator,
 * that the benchmark times between reps to follow the host's speed.
 *
 * The benchmark runs on a shared host whose other tenants slow every
 * program on it by up to 40%, in phases that last from seconds to
 * minutes; a whole run can fall inside one. Timing the same fixed
 * work just before and just after each rep tells how fast the host
 * was during the rep, and the end-to-end host times are scaled to the
 * host speed at which the probe takes kProbeReferenceS. The probe is
 * part of the benchmark, not of src/, so a change to the simulator
 * moves the scaled times exactly as it moves the raw ones.
 */

#ifndef SIMBENCH_HOSTPROBE_HH
#define SIMBENCH_HOSTPROBE_HH

namespace simbench
{

/**
 * Probe time that defines the reference host speed: about what the
 * probe takes on the 4-core 2.1 GHz Xeon VM the benchmark was written
 * on, so scaled and raw times are of the same size there.
 */
constexpr double kProbeReferenceS = 0.012;

/**
 * Time the probe once: the host seconds the fixed work takes at the
 * host's current speed. The work is a few equal bursts of a serial
 * integer and branch chain; the fastest burst, times the number of
 * bursts, is the probe time, so an interruption inside one burst does
 * not count.
 */
double probeHostS();

} // namespace simbench

#endif // SIMBENCH_HOSTPROBE_HH
