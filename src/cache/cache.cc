#include "cache/cache.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "sim/logging.hh"

namespace vmp::cache
{

void
CacheConfig::check() const
{
    if (!isPowerOf2(pageBytes) || pageBytes < 32 || pageBytes > 4096)
        fatal("cache page size must be a power of two in [32, 4096], "
              "got ", pageBytes);
    if (ways == 0 || ways > 16)
        fatal("cache associativity must be in [1, 16], got ", ways);
    if (!isPowerOf2(sets) || sets == 0)
        fatal("cache set count must be a power of two, got ", sets);
}

std::string
CacheConfig::toString() const
{
    std::ostringstream os;
    os << totalBytes() / 1024 << "KiB " << ways << "-way " << pageBytes
       << "B-pages";
    return os.str();
}

CacheConfig
CacheConfig::forSize(std::uint64_t total_bytes, std::uint32_t page_bytes,
                     std::uint32_t ways, bool store_data)
{
    CacheConfig cfg;
    cfg.pageBytes = page_bytes;
    cfg.ways = ways;
    cfg.storeData = store_data;
    const std::uint64_t per_way = total_bytes / ways;
    if (per_way == 0 || per_way % page_bytes != 0)
        fatal("cache size ", total_bytes, " not divisible into ", ways,
              " ways of ", page_bytes, "B pages");
    cfg.sets = static_cast<std::uint32_t>(per_way / page_bytes);
    cfg.check();
    if (cfg.totalBytes() != total_bytes)
        fatal("cache geometry mismatch for total size ", total_bytes);
    return cfg;
}

std::string
flagsToString(SlotFlags flags)
{
    std::string out;
    const auto add = [&out, flags](SlotFlag bit, const char *name) {
        if (flags & bit) {
            if (!out.empty())
                out += '-';
            out += name;
        }
    };
    add(FlagValid, "V");
    add(FlagModified, "M");
    add(FlagExclusive, "E");
    add(FlagSupWritable, "SW");
    add(FlagUserReadable, "UR");
    add(FlagUserWritable, "UW");
    return out.empty() ? "none" : out;
}

Cache::Cache(const CacheConfig &config) : cfg_(config)
{
    cfg_.check();
    pageShift_ = log2i(cfg_.pageBytes);
    setMask_ = cfg_.sets - 1;
    slots_.resize(cfg_.totalSlots());
    if (cfg_.storeData)
        data_.assign(cfg_.totalBytes(), 0);
}

SlotIndex
Cache::lruOf(std::uint32_t set) const
{
    SlotIndex victim = indexOf(set, 0);
    std::uint64_t oldest = slots_[victim].lastUse;
    for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
        const SlotIndex idx = indexOf(set, way);
        const Slot &s = slots_[idx];
        // Invalid slots are always preferred victims.
        if (!s.valid())
            return idx;
        if (s.lastUse < oldest) {
            oldest = s.lastUse;
            victim = idx;
        }
    }
    return victim;
}

AccessResult
Cache::probe(Asid asid, Addr vaddr, bool write, bool supervisor) const
{
    const std::uint32_t set = setOf(vaddr);
    AccessResult res;
    res.slot = matchSlot(set, tagFor(asid, vaddr));
    res.miss = res.slot == noSlot
        ? MissKind::NoMatch
        : denial(slots_[res.slot].flags, write, supervisor);
    res.hit = res.miss == MissKind::None;
    // The LRU way-scan runs only on a miss: a hit needs no victim.
    if (!res.hit)
        res.suggestedVictim = lruOf(set);
    return res;
}

AccessResult
Cache::accessMiss(Asid asid, Addr vaddr, bool write, bool supervisor)
{
    const AccessResult res = probe(asid, vaddr, write, supervisor);
    ++misses_;
    if (res.miss == MissKind::WriteShared)
        ++writeShared_;
    else if (res.miss == MissKind::Protection)
        ++protection_;
    return res;
}

void
Cache::fill(SlotIndex slot_index, const CacheTag &tag, SlotFlags flags)
{
    if (slot_index >= slots_.size())
        panic("cache fill: slot ", slot_index, " out of range");
    // The tag must land in the set the hardware indexes it into.
    if ((tag.vpn & setMask_) != slot_index / cfg_.ways)
        panic("cache fill: tag vpn ", tag.vpn, " does not map to set ",
              slot_index / cfg_.ways);
    Slot &s = slots_[slot_index];
    s.tag = tag;
    s.flags = static_cast<SlotFlags>(flags | FlagValid);
    s.lastUse = useClock_++;
    if (cfg_.storeData)
        std::fill_n(data_.begin() + pageBase(slot_index), cfg_.pageBytes, 0);
}

void
Cache::invalidate(SlotIndex slot_index)
{
    if (slot_index >= slots_.size())
        panic("cache invalidate: slot out of range");
    slots_[slot_index].flags = 0;
}

void
Cache::setFlags(SlotIndex slot_index, SlotFlags flags)
{
    if (slot_index >= slots_.size())
        panic("cache setFlags: slot out of range");
    if (!(flags & FlagValid))
        panic("cache setFlags: use invalidate() to clear a slot");
    slots_[slot_index].flags = flags;
}

Slot &
Cache::slot(SlotIndex index)
{
    if (index >= slots_.size())
        panic("cache slot index out of range");
    return slots_[index];
}

const Slot &
Cache::slot(SlotIndex index) const
{
    if (index >= slots_.size())
        panic("cache slot index out of range");
    return slots_[index];
}

std::vector<SlotIndex>
Cache::findAll(const CacheTag &tag) const
{
    std::vector<SlotIndex> out;
    // A given <asid, vpn> can only live in one set, but aliases (same
    // physical page under different virtual addresses) are found by the
    // software physical-to-slot tables, not here.
    const std::uint32_t set = static_cast<std::uint32_t>(tag.vpn & setMask_);
    for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
        const SlotIndex idx = indexOf(set, way);
        const Slot &s = slots_[idx];
        if (s.valid() && s.tag == tag)
            out.push_back(idx);
    }
    return out;
}

SlotIndex
Cache::victimFor(Addr vaddr) const
{
    return lruOf(setOf(vaddr));
}

void
Cache::writeBytes(SlotIndex slot_index, std::uint32_t offset,
                  const void *src, std::uint32_t len)
{
    if (!cfg_.storeData)
        panic("cache writeBytes without data storage");
    slot(slot_index); // panics on an out-of-range slot
    // Written so it cannot wrap: offset + len may overflow 32 bits.
    if (len > cfg_.pageBytes || offset > cfg_.pageBytes - len)
        panic("cache writeBytes: range beyond page");
    std::memcpy(data_.data() + pageBase(slot_index) + offset, src, len);
}

void
Cache::readBytes(SlotIndex slot_index, std::uint32_t offset, void *dst,
                 std::uint32_t len) const
{
    if (!cfg_.storeData)
        panic("cache readBytes without data storage");
    const auto page = pageData(slot_index);
    if (len > cfg_.pageBytes || offset > cfg_.pageBytes - len)
        panic("cache readBytes: range beyond page");
    std::memcpy(dst, page.data() + offset, len);
}

std::span<const std::uint8_t>
Cache::pageData(SlotIndex slot_index) const
{
    slot(slot_index); // panics on an out-of-range slot
    if (!cfg_.storeData)
        return {};
    return {data_.data() + pageBase(slot_index), cfg_.pageBytes};
}

std::uint32_t
Cache::validCount() const
{
    std::uint32_t n = 0;
    for (const auto &s : slots_)
        if (s.valid())
            ++n;
    return n;
}

double
Cache::missRatio() const
{
    const std::uint64_t total = hits_.value() + misses_.value();
    return total == 0
        ? 0.0
        : static_cast<double>(misses_.value()) /
            static_cast<double>(total);
}

void
Cache::resetStats()
{
    hits_.reset();
    misses_.reset();
    writeShared_.reset();
    protection_.reset();
}

void
Cache::registerStats(StatGroup &group) const
{
    // "cache_" prefix: these land in the same per-CPU group as the
    // controller's counters, whose "misses" views the same events
    // from the protocol side.
    group.addCounter("cache_hits", "references satisfied by the cache",
                     hits_);
    group.addCounter("cache_misses", "references that missed", misses_);
    group.addCounter("cache_write_shared_misses",
                     "write hits needing ownership", writeShared_);
    group.addCounter("cache_protection_misses",
                     "accesses denied by protection flags", protection_);
}

} // namespace vmp::cache
