/**
 * @file
 * Backend models of the memory tier: where a page image physically
 * lives once it leaves the node's frame arena, and what one page
 * transfer to/from that medium costs. Three media are modeled, chosen
 * per address space:
 *
 *  - LocalRam: a second RAM bank on the memory node itself — fixed
 *    controller latency plus memcpy-rate streaming.
 *  - RemoteNode: another node's RAM behind an interconnect hop —
 *    request latency + hop latency each way + link-bandwidth
 *    streaming, the far-memory configuration.
 *  - Disk: the paper-era paging disk — one flat seek+transfer stamp
 *    (kept equal to the legacy BackingStore latency so the mirror
 *    tier reproduces the old timing exactly).
 */

#ifndef VMP_BACKING_BACKEND_HH
#define VMP_BACKING_BACKEND_HH

#include <cstdint>

#include "sim/types.hh"

namespace vmp::backing
{

/** Storage medium behind the frame arena. */
enum class BackendKind : std::uint8_t
{
    LocalRam = 0,
    RemoteNode,
    Disk,
};

/** Number of backend kinds (array-sizing constant). */
inline constexpr std::size_t kBackendKinds =
    static_cast<std::size_t>(BackendKind::Disk) + 1;

/** Stable lower-case backend name (configs, artifacts). */
inline const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::LocalRam: return "local_ram";
      case BackendKind::RemoteNode: return "remote_node";
      case BackendKind::Disk: return "disk";
    }
    return "unknown";
}

/** Latency + bandwidth model of one backend medium. */
struct BackendModel
{
    /** Fixed per-request latency (controller, seek, protocol). */
    Tick fixedLatencyNs = 0;
    /** Extra interconnect hop (RemoteNode; charged once per request). */
    Tick hopLatencyNs = 0;
    /** Streaming cost per byte (0 = bandwidth folded into the fixed
     *  stamp, as with the flat disk model). */
    double nsPerByte = 0.0;

    /** Full cost of one page transfer of @p bytes. */
    Tick
    transferNs(std::uint32_t bytes) const
    {
        return fixedLatencyNs + hopLatencyNs +
            static_cast<Tick>(nsPerByte * static_cast<double>(bytes));
    }

    /** Streaming-only cost (pipelined follow-up pages in a batch). */
    Tick
    streamNs(std::uint32_t bytes) const
    {
        return static_cast<Tick>(nsPerByte *
                                 static_cast<double>(bytes));
    }

    /**
     * Default model per medium. @p disk_latency_ns preserves the
     * legacy flat disk stamp (TierConfig::diskLatencyNs).
     */
    static BackendModel
    forKind(BackendKind kind, Tick disk_latency_ns)
    {
        BackendModel model;
        switch (kind) {
          case BackendKind::LocalRam:
            model.fixedLatencyNs = usec(1);
            model.nsPerByte = 0.25; // ~4 GB/s bank-to-bank copy
            break;
          case BackendKind::RemoteNode:
            model.fixedLatencyNs = usec(3);
            model.hopLatencyNs = usec(5);
            model.nsPerByte = 1.0; // ~1 GB/s far-memory link
            break;
          case BackendKind::Disk:
            model.fixedLatencyNs = disk_latency_ns;
            break;
        }
        return model;
    }
};

} // namespace vmp::backing

#endif // VMP_BACKING_BACKEND_HH
