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
#include <span>
#include <vector>

#include "cache/config.hh"
#include "cache/types.hh"
#include "sim/stats.hh"

namespace vmp::cache
{

/** Dense identifier of a slot: set * ways + way. */
using SlotIndex = std::uint32_t;

/** A slot index naming no slot (a NoMatch miss, an alias chain's end). */
inline constexpr SlotIndex noSlot = 0xffffffff;

/**
 * One cache slot: tag, flags and LRU stamp. Page contents live apart,
 * in the cache's data arena (Cache::pageData), so the slot array a hit
 * walks holds metadata only.
 */
struct Slot
{
    CacheTag tag{};
    SlotFlags flags = 0;
    /** Monotonic last-use stamp for LRU victim suggestion. */
    std::uint64_t lastUse = 0;

    bool valid() const { return flags & FlagValid; }
    bool modified() const { return flags & FlagModified; }
    bool exclusive() const { return flags & FlagExclusive; }
};

static_assert(sizeof(Slot) <= 32, "a 4-way set must fit two 64-byte lines");

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

/**
 * Result of presenting one reference to the cache: 12 trivially
 * copyable bytes, returned in registers.
 */
struct AccessResult
{
    bool hit = false;
    MissKind miss = MissKind::None;
    /** Matching slot on hit (or protection/ownership miss); noSlot on
     *  a NoMatch miss. */
    SlotIndex slot = noSlot;
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
     * protection flags. The hit path is the inline accessHit(); a miss
     * calls the out-of-line accessMiss().
     */
    AccessResult
    access(Asid asid, Addr vaddr, bool write, bool supervisor)
    {
        const SlotIndex idx = accessHit(asid, vaddr, write, supervisor);
        return idx != noSlot ? AccessResult{true, MissKind::None, idx, 0}
                             : accessMiss(asid, vaddr, write, supervisor);
    }

    /**
     * The hit half of access(): a hit (tag match, permission check, LRU
     * stamp, Modified bit, hit count) returns its slot; a miss returns
     * noSlot with no effect, so access() may present it again.
     */
    SlotIndex
    accessHit(Asid asid, Addr vaddr, bool write, bool supervisor)
    {
        const SlotIndex idx = matchSlot(setOf(vaddr), tagFor(asid, vaddr));
        if (idx == noSlot)
            return noSlot;
        Slot &s = slots_[idx];
        if (denial(s.flags, write, supervisor) != MissKind::None)
            return noSlot;
        s.lastUse = useClock_++;
        if (write)
            s.flags |= FlagModified;
        ++hits_;
        return idx;
    }

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
    /** A slot's page contents; empty without CacheConfig::storeData. */
    std::span<const std::uint8_t> pageData(SlotIndex slot) const;

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
    SlotIndex indexOf(std::uint32_t set, std::uint32_t way) const
    {
        return set * cfg_.ways + way;
    }

    /** The valid slot in @p set matching @p tag, or noSlot. */
    SlotIndex
    matchSlot(std::uint32_t set, const CacheTag &tag) const
    {
        const SlotIndex first = indexOf(set, 0);
        for (SlotIndex idx = first; idx < first + cfg_.ways; ++idx) {
            const Slot &s = slots_[idx];
            if (s.valid() && s.tag == tag)
                return idx;
        }
        return noSlot;
    }

    /**
     * Why a matching slot with @p flags cannot serve the reference:
     * Protection, WriteShared, or None when it hits.
     */
    static MissKind
    denial(SlotFlags flags, bool write, bool supervisor)
    {
        const bool perm_ok = supervisor
            ? (!write || (flags & FlagSupWritable))
            : (flags & (write ? FlagUserWritable : FlagUserReadable)) != 0;
        if (!perm_ok)
            return MissKind::Protection;
        if (write && !(flags & FlagExclusive))
            return MissKind::WriteShared;
        return MissKind::None;
    }

    std::size_t
    pageBase(SlotIndex slot) const
    {
        return std::size_t{slot} << pageShift_;
    }

    /** access() past a failed hit: probe() plus the miss counters. */
    AccessResult accessMiss(Asid asid, Addr vaddr, bool write,
                            bool supervisor);
    SlotIndex lruOf(std::uint32_t set) const;

    CacheConfig cfg_;
    /** log2(pageBytes). */
    unsigned pageShift_;
    /** sets - 1. */
    std::uint64_t setMask_;
    std::vector<Slot> slots_;
    /** Page contents, slot i at pageBase(i); empty without
     *  CacheConfig::storeData. */
    std::vector<std::uint8_t> data_;
    std::uint64_t useClock_ = 1;

    Counter hits_;
    Counter misses_;
    Counter writeShared_;
    Counter protection_;
};

} // namespace vmp::cache

#endif // VMP_CACHE_CACHE_HH
