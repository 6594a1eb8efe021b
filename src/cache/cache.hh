/**
 * @file
 * The virtually addressed, set-associative VMP cache.
 *
 * The hardware modelled here is deliberately dumb, as in the paper: it
 * matches <ASID, virtual address> tags, keeps six flag bits per slot,
 * tracks LRU to *suggest* a victim slot on miss, and raises a miss
 * signal (returned, not thrown) that the software miss handler acts on.
 * All policy — translation, replacement, consistency — lives outside, in
 * software models (cpu::MissHandler, proto::OwnershipProtocol).
 */

#ifndef VMP_CACHE_CACHE_HH
#define VMP_CACHE_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "cache/config.hh"
#include "cache/types.hh"
#include "sim/stats.hh"

namespace vmp::cache
{

/** Dense identifier of a slot: set * ways + way. */
using SlotIndex = std::uint32_t;

/** One cache slot: tag, flags, LRU stamp and (optionally) data. */
struct Slot
{
    CacheTag tag{};
    SlotFlags flags = 0;
    /** Monotonic last-use stamp for LRU victim suggestion. */
    std::uint64_t lastUse = 0;
    /** Page contents when CacheConfig::storeData is set. */
    std::vector<std::uint8_t> data;

    bool valid() const { return flags & FlagValid; }
    bool modified() const { return flags & FlagModified; }
    bool exclusive() const { return flags & FlagExclusive; }
};

/** Why an access could not be satisfied by the cache. */
enum class MissKind : std::uint8_t
{
    None = 0,
    /** No valid slot matches <ASID, page>. */
    NoMatch,
    /** Matching slot lacks the needed permission (e.g. user write). */
    Protection,
    /** Write hit on a shared (non-exclusive) copy: ownership needed. */
    WriteShared,
};

/** Result of presenting one reference to the cache. */
struct AccessResult
{
    bool hit = false;
    MissKind miss = MissKind::None;
    /** Matching slot on hit (or protection/ownership miss). */
    std::optional<SlotIndex> slot;
    /** Hardware-suggested victim slot for the referenced set; set
     *  only on a miss (0 on a hit). */
    SlotIndex suggestedVictim = 0;
};

/**
 * The cache proper. The single-master processor connection of the paper
 * translates to: exactly one component (the owning ProcessorBoard) calls
 * access(); everything else inspects or edits slots through the explicit
 * maintenance interface below, modelling the software's cache-control
 * region accesses.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return cfg_; }

    // Page size and set count are powers of two (CacheConfig::check),
    // so indexing shifts and masks instead of dividing.

    /** Tag for a given <asid, vaddr>. */
    CacheTag
    tagFor(Asid asid, Addr vaddr) const
    {
        return CacheTag{asid, vaddr >> pageShift_};
    }

    /** Set index a virtual address maps to. */
    std::uint32_t
    setOf(Addr vaddr) const
    {
        return static_cast<std::uint32_t>((vaddr >> pageShift_) &
                                          setMask_);
    }

    /** Byte offset of @p vaddr within its cache page. */
    std::uint32_t
    offsetOf(Addr vaddr) const
    {
        return static_cast<std::uint32_t>(vaddr & (cfg_.pageBytes - 1));
    }

    /**
     * Present one reference. Updates LRU on hit. @p write requests write
     * access; @p supervisor selects the privilege checked against the
     * protection flags.
     */
    AccessResult access(Asid asid, Addr vaddr, bool write,
                        bool supervisor);

    /** Probe without updating LRU or counting stats. */
    AccessResult probe(Asid asid, Addr vaddr, bool write,
                       bool supervisor) const;

    // --- Maintenance interface (the "cache control" address region) ---

    /** Install @p tag with @p flags into @p slot, clearing old content. */
    void fill(SlotIndex slot, const CacheTag &tag, SlotFlags flags);
    /** Drop a slot (no write-back; that is software's job). */
    void invalidate(SlotIndex slot);
    /** Replace the flag bits of a valid slot. */
    void setFlags(SlotIndex slot, SlotFlags flags);

    Slot &slot(SlotIndex index);
    const Slot &slot(SlotIndex index) const;

    /** All slots currently matching tag (aliases share asid+vpn). */
    std::vector<SlotIndex> findAll(const CacheTag &tag) const;

    /** Hardware LRU suggestion for the set containing @p vaddr. */
    SlotIndex victimFor(Addr vaddr) const;

    /** Data plane: read/write bytes within a slot's page. */
    void writeBytes(SlotIndex slot, std::uint32_t offset,
                    const void *src, std::uint32_t len);
    void readBytes(SlotIndex slot, std::uint32_t offset, void *dst,
                   std::uint32_t len) const;

    /** Number of valid slots (for occupancy tests). */
    std::uint32_t validCount() const;

    // --- Statistics ---
    const Counter &hits() const { return hits_; }
    const Counter &misses() const { return misses_; }
    const Counter &writeSharedMisses() const { return writeShared_; }
    double missRatio() const;
    void resetStats();
    void registerStats(StatGroup &group) const;

  private:
    SlotIndex indexOf(std::uint32_t set, std::uint32_t way) const;
    /** Find the matching way in @p set, if any. */
    std::optional<std::uint32_t> findWay(std::uint32_t set,
                                         const CacheTag &tag) const;
    SlotIndex lruOf(std::uint32_t set) const;

    CacheConfig cfg_;
    /** log2(pageBytes). */
    unsigned pageShift_;
    /** sets - 1. */
    std::uint64_t setMask_;
    std::vector<Slot> slots_;
    std::uint64_t useClock_ = 1;

    Counter hits_;
    Counter misses_;
    Counter writeShared_;
    Counter protection_;
};

} // namespace vmp::cache

#endif // VMP_CACHE_CACHE_HH
