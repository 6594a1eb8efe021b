/**
 * @file
 * Snoopy-cache baseline for the Section 6 comparison. The paper argues
 * that write-broadcast/snoopy schemes need small line sizes, per-
 * reference snooping of every cache's tags, and a physically addressed
 * (or reverse-translated) cache; VMP trades a longer miss for drastic
 * hardware simplification. This module implements the comparators:
 *
 *  - a write-invalidate protocol (MSI: Invalid / Shared / Modified),
 *  - a write-update (broadcast) protocol, where every write to a
 *    potentially shared line broadcasts the word on the bus,
 *
 * over physically addressed caches with conventional (16-64 byte)
 * lines, driven by the same traces as the VMP model. The evaluation is
 * functional with bus-cost accounting (occupancy, transaction and
 * snoop-probe counts) — enough to regenerate the bus-traffic and
 * tag-port-pressure comparison.
 */

#ifndef VMP_SNOOPY_SNOOPY_HH
#define VMP_SNOOPY_SNOOPY_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "proto/translator.hh"
#include "sim/stats.hh"
#include "trace/ref.hh"

namespace vmp::snoopy
{

/** Baseline protocol flavour. */
enum class Protocol : std::uint8_t
{
    WriteInvalidate, //!< MSI: invalidate sharers on write
    WriteUpdate,     //!< broadcast each shared write on the bus
    WriteOnce,       //!< Goodman[12]: first write writes through,
                     //!< later writes stay local (Reserved/Dirty)
};

const char *protocolName(Protocol protocol);

/** Configuration of the snoopy baseline machine. */
struct SnoopyConfig
{
    Protocol protocol = Protocol::WriteInvalidate;
    /** Line size in bytes (conventional: 16-64). */
    std::uint32_t lineBytes = 32;
    /** Total cache bytes per processor. */
    std::uint64_t cacheBytes = 256 * 1024;
    /** Associativity. */
    std::uint32_t ways = 4;
    /** Number of processors. */
    std::uint32_t processors = 1;
    /** Physical memory backing the traces. */
    std::uint64_t memBytes = 8ull << 20;

    void check() const;
};

/** Aggregate results of a snoopy run. */
struct SnoopyResult
{
    std::uint64_t refs = 0;
    std::uint64_t misses = 0;
    std::uint64_t invalidations = 0;
    std::uint64_t updatesBroadcast = 0;
    std::uint64_t writeThroughs = 0;
    std::uint64_t writeBacks = 0;
    /** Total bus occupancy in ns. */
    Tick busTicks = 0;
    /**
     * Tag-array probes induced by the bus ("snoops"): every bus
     * transaction interrogates every other cache's tags — the
     * processor/cache-bandwidth cost the paper's bus monitor avoids.
     */
    std::uint64_t snoopProbes = 0;

    double
    missRatio() const
    {
        return refs == 0
            ? 0.0
            : static_cast<double>(misses) / static_cast<double>(refs);
    }

    /** Mean bus nanoseconds consumed per reference. */
    double
    busNsPerRef() const
    {
        return refs == 0
            ? 0.0
            : static_cast<double>(busTicks) /
                static_cast<double>(refs);
    }

    std::string toString() const;
};

/**
 * The snoopy multiprocessor. Physically addressed: references are
 * translated up front through a DemandTranslator (per-reference
 * translation hardware — the MMU/TLB that VMP deliberately omits).
 */
class SnoopySystem
{
  public:
    explicit SnoopySystem(const SnoopyConfig &config);

    /**
     * Run one reference stream per processor, interleaving round-robin
     * (one reference per processor per turn), until all streams are
     * exhausted.
     */
    SnoopyResult run(const std::vector<trace::RefSource *> &sources);

    /** Present a single reference from processor @p cpu. */
    void step(std::uint32_t cpu, const trace::MemRef &ref);

    const SnoopyResult &result() const { return result_; }
    const SnoopyConfig &config() const { return cfg_; }

  private:
    /** Per-line state. */
    enum class LineState : std::uint8_t
    {
        Invalid,
        Shared,
        Reserved, //!< write-once: exclusive and clean (memory current)
        Modified,
    };

    struct Line
    {
        std::uint64_t tag = 0;
        LineState state = LineState::Invalid;
        std::uint64_t lastUse = 0;
    };

    struct CacheArray
    {
        std::vector<Line> lines; // sets * ways
    };

    std::uint64_t lineOf(Addr paddr) const;
    std::uint32_t setOf(std::uint64_t line) const;
    /** Find the way holding @p line in @p cpu's cache, or -1. */
    int findWay(std::uint32_t cpu, std::uint64_t line) const;
    Line &lineAt(std::uint32_t cpu, std::uint32_t set,
                 std::uint32_t way);
    /** Victim way (LRU) in @p set of @p cpu. */
    std::uint32_t victimWay(std::uint32_t cpu, std::uint32_t set) const;
    /** Account a bus transaction of @p ns; all other caches snoop. */
    void busTransaction(std::uint32_t cpu, Tick ns);

    SnoopyConfig cfg_;
    std::uint32_t sets_;
    std::vector<CacheArray> caches_;
    proto::DemandTranslator translator_;
    std::uint64_t useClock_ = 1;
    SnoopyResult result_;
};

} // namespace vmp::snoopy

#endif // VMP_SNOOPY_SNOOPY_HH
