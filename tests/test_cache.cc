/**
 * @file
 * Unit and property tests for the virtually addressed cache: geometry
 * validation, tag matching on <ASID, vaddr>, protection and ownership
 * miss kinds, LRU victim suggestion, data plane, and parameterized
 * sweeps across the prototype's configuration space (page size 128/256/
 * 512, 1-4 ways).
 */

#include <gtest/gtest.h>

#include <tuple>

#include <algorithm>
#include <array>
#include <deque>

#include "cache/cache.hh"
#include "sim/random.hh"
#include "sim/logging.hh"

namespace vmp::cache
{
namespace
{

CacheConfig
smallConfig()
{
    CacheConfig cfg;
    cfg.pageBytes = 128;
    cfg.ways = 2;
    cfg.sets = 4;
    return cfg;
}

/** Fill helper that mirrors what the miss-handler software does. */
SlotIndex
installPage(Cache &cache, Asid asid, Addr vaddr, SlotFlags extra = 0)
{
    const auto res = cache.probe(asid, vaddr, false, true);
    const SlotIndex victim = res.suggestedVictim;
    cache.fill(victim, cache.tagFor(asid, vaddr),
               static_cast<SlotFlags>(FlagUserReadable | extra));
    return victim;
}

// ------------------------------------------------------------- config

TEST(CacheConfig, TotalsAndToString)
{
    CacheConfig cfg;
    cfg.pageBytes = 256;
    cfg.ways = 4;
    cfg.sets = 256;
    EXPECT_EQ(cfg.totalBytes(), 256u * 1024);
    EXPECT_EQ(cfg.totalSlots(), 1024u);
    EXPECT_EQ(cfg.toString(), "256KiB 4-way 256B-pages");
}

TEST(CacheConfig, ForSizeComputesSets)
{
    const auto cfg = CacheConfig::forSize(128 * 1024, 256, 4);
    EXPECT_EQ(cfg.sets, 128u);
    EXPECT_EQ(cfg.totalBytes(), 128u * 1024);
}

TEST(CacheConfig, ValidationRejectsBadGeometry)
{
    CacheConfig cfg;
    cfg.pageBytes = 100; // not a power of two
    EXPECT_THROW(cfg.check(), FatalError);
    cfg = CacheConfig{};
    cfg.ways = 0;
    EXPECT_THROW(cfg.check(), FatalError);
    cfg = CacheConfig{};
    cfg.sets = 3;
    EXPECT_THROW(cfg.check(), FatalError);
    EXPECT_THROW(CacheConfig::forSize(100'000, 256), FatalError);
}

// ---------------------------------------------------------- behaviour

TEST(Cache, ColdMissThenHit)
{
    Cache cache(smallConfig());
    auto res = cache.access(1, 0x1000, false, false);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.miss, MissKind::NoMatch);

    installPage(cache, 1, 0x1000);
    res = cache.access(1, 0x1000, false, false);
    EXPECT_TRUE(res.hit);
    EXPECT_EQ(cache.hits().value(), 1u);
    EXPECT_EQ(cache.misses().value(), 1u);
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.5);
}

TEST(Cache, MatchesOnAsidToo)
{
    Cache cache(smallConfig());
    installPage(cache, 1, 0x1000);
    // Same virtual address, different address space: must miss.
    const auto res = cache.access(2, 0x1000, false, false);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.miss, MissKind::NoMatch);
}

TEST(Cache, HitAnywhereWithinPage)
{
    Cache cache(smallConfig());
    installPage(cache, 1, 0x1000);
    EXPECT_TRUE(cache.access(1, 0x1000, false, false).hit);
    EXPECT_TRUE(cache.access(1, 0x107c, false, false).hit);
    EXPECT_FALSE(cache.access(1, 0x1080, false, false).hit);
}

TEST(Cache, UserWriteNeedsUserWritableFlag)
{
    Cache cache(smallConfig());
    installPage(cache, 1, 0x1000); // user-readable only
    const auto res = cache.access(1, 0x1000, true, false);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.miss, MissKind::Protection);
    ASSERT_NE(res.slot, noSlot);
}

TEST(Cache, UserReadNeedsUserReadableFlag)
{
    Cache cache(smallConfig());
    const auto res = cache.probe(1, 0x1000, false, true);
    cache.fill(res.suggestedVictim, cache.tagFor(1, 0x1000),
               FlagSupWritable); // supervisor-only page
    EXPECT_EQ(cache.access(1, 0x1000, false, false).miss,
              MissKind::Protection);
    EXPECT_TRUE(cache.access(1, 0x1000, false, true).hit);
}

TEST(Cache, WriteToSharedCopyReportsOwnershipMiss)
{
    Cache cache(smallConfig());
    installPage(cache, 1, 0x1000, FlagUserWritable); // not exclusive
    const auto res = cache.access(1, 0x1000, true, false);
    EXPECT_FALSE(res.hit);
    EXPECT_EQ(res.miss, MissKind::WriteShared);
    EXPECT_EQ(cache.writeSharedMisses().value(), 1u);
}

TEST(Cache, ExclusiveWriteSetsModified)
{
    Cache cache(smallConfig());
    installPage(cache, 1, 0x1000,
                static_cast<SlotFlags>(FlagUserWritable | FlagExclusive));
    const auto res = cache.access(1, 0x1000, true, false);
    ASSERT_TRUE(res.hit);
    EXPECT_TRUE(cache.slot(res.slot).modified());
}

TEST(Cache, SupervisorWriteNeedsSupWritable)
{
    Cache cache(smallConfig());
    installPage(cache, 1, 0x1000,
                static_cast<SlotFlags>(FlagUserWritable | FlagExclusive));
    // No supervisor-writable flag: supervisor write is a protection miss.
    EXPECT_EQ(cache.access(1, 0x1000, true, true).miss,
              MissKind::Protection);
}

TEST(Cache, SupervisorReadIgnoresUserReadable)
{
    Cache cache(smallConfig());
    const auto res = cache.probe(1, 0x1000, false, true);
    cache.fill(res.suggestedVictim, cache.tagFor(1, 0x1000), 0);
    EXPECT_TRUE(cache.access(1, 0x1000, false, true).hit);
}

TEST(Cache, ProbeDoesNotTouchLruOrStats)
{
    Cache cache(smallConfig());
    installPage(cache, 1, 0x1000);
    const auto before = cache.slot(0).lastUse;
    cache.probe(1, 0x1000, false, false);
    EXPECT_EQ(cache.hits().value(), 0u);
    EXPECT_EQ(cache.misses().value(), 0u);
    bool touched = false;
    for (SlotIndex i = 0; i < cache.config().totalSlots(); ++i)
        touched = touched || cache.slot(i).lastUse > before;
    EXPECT_FALSE(touched);
}

TEST(Cache, LruSuggestsLeastRecentlyUsedWay)
{
    CacheConfig cfg = smallConfig(); // 2 ways, 4 sets, 128B pages
    Cache cache(cfg);
    // Two pages mapping to set 0: vpn 0 and vpn 4.
    installPage(cache, 1, 0 * 128);
    installPage(cache, 1, 4 * 128);
    // Touch vpn 0 so vpn 4 becomes LRU.
    cache.access(1, 0, false, false);
    const auto victim = cache.victimFor(8 * 128);
    EXPECT_EQ(cache.slot(victim).tag.vpn, 4u);
}

TEST(Cache, EveryMissKindSuggestsTheLruSlot)
{
    // The victim is computed only on the miss returns; each of the
    // three must still name the set's least recently used slot, even
    // when the matching slot is the most recently used one.
    Cache cache(smallConfig()); // 2 ways, 4 sets, 128B pages
    const SlotIndex old_slot = installPage(cache, 1, 0 * 128);
    const SlotIndex new_slot = installPage(cache, 1, 4 * 128);
    ASSERT_TRUE(cache.access(1, 4 * 128, false, false).hit);

    const auto no_match = cache.access(1, 8 * 128, false, false);
    EXPECT_EQ(no_match.miss, MissKind::NoMatch);
    EXPECT_EQ(no_match.suggestedVictim, old_slot);

    // Read-only for the user: a user write is a protection miss.
    const auto protection = cache.access(1, 4 * 128, true, false);
    EXPECT_EQ(protection.miss, MissKind::Protection);
    EXPECT_EQ(protection.slot, new_slot);
    EXPECT_EQ(protection.suggestedVictim, old_slot);

    // Writable but shared: a write needs ownership.
    cache.setFlags(new_slot, FlagValid | FlagUserReadable |
                                 FlagUserWritable | FlagSupWritable);
    const auto write_shared = cache.access(1, 4 * 128, true, false);
    EXPECT_EQ(write_shared.miss, MissKind::WriteShared);
    EXPECT_EQ(write_shared.slot, new_slot);
    EXPECT_EQ(write_shared.suggestedVictim, old_slot);

    // Misses leave LRU alone, and probe agrees with access.
    EXPECT_EQ(cache.victimFor(8 * 128), old_slot);
    EXPECT_EQ(cache.probe(1, 8 * 128, false, false).suggestedVictim,
              old_slot);
}

TEST(Cache, InvalidSlotPreferredAsVictim)
{
    Cache cache(smallConfig());
    installPage(cache, 1, 0);
    const auto victim = cache.victimFor(0);
    EXPECT_FALSE(cache.slot(victim).valid());
}

TEST(Cache, FillRejectsWrongSet)
{
    Cache cache(smallConfig());
    // vpn 1 maps to set 1; slot 0 is in set 0.
    EXPECT_THROW(cache.fill(0, CacheTag{1, 1}, FlagUserReadable),
                 PanicError);
}

TEST(Cache, InvalidateDropsSlot)
{
    Cache cache(smallConfig());
    const auto slot = installPage(cache, 1, 0x1000);
    cache.invalidate(slot);
    EXPECT_FALSE(cache.access(1, 0x1000, false, false).hit);
    EXPECT_EQ(cache.validCount(), 0u);
}

TEST(Cache, SetFlagsRequiresValid)
{
    Cache cache(smallConfig());
    const auto slot = installPage(cache, 1, 0x1000);
    cache.setFlags(slot, static_cast<SlotFlags>(
        FlagValid | FlagUserReadable | FlagUserWritable | FlagExclusive));
    EXPECT_TRUE(cache.access(1, 0x1000, true, false).hit);
    EXPECT_THROW(cache.setFlags(slot, 0), PanicError);
}

TEST(Cache, DataPlaneRoundTrip)
{
    Cache cache(smallConfig());
    const auto slot = installPage(cache, 1, 0x1000);
    const std::uint32_t value = 0xdeadbeef;
    cache.writeBytes(slot, 8, &value, sizeof(value));
    std::uint32_t got = 0;
    cache.readBytes(slot, 8, &got, sizeof(got));
    EXPECT_EQ(got, value);
    EXPECT_THROW(cache.writeBytes(slot, 126, &value, sizeof(value)),
                 PanicError);
}

TEST(Cache, DataPlaneRejectsWrappingRange)
{
    // offset + len wraps past 2^32 here; the range check must not.
    Cache cache(smallConfig());
    const auto slot = installPage(cache, 1, 0x1000);
    std::uint32_t value = 0;
    EXPECT_THROW(cache.writeBytes(slot, 0xffffffffu, &value, sizeof(value)),
                 PanicError);
    EXPECT_THROW(cache.readBytes(slot, 0xffffffffu, &value, sizeof(value)),
                 PanicError);
}

TEST(Cache, DataPlaneSlotsDoNotOverlap)
{
    // Every slot's page is its own stretch of the data arena: distinct
    // first and last words all read back, and a fill zeroes one page.
    Cache cache(smallConfig());
    const auto &cfg = cache.config();
    const auto slots = static_cast<SlotIndex>(cfg.totalSlots());
    const std::uint32_t last = cfg.pageBytes - 4;
    const auto tagOf = [&cfg](SlotIndex slot) {
        // Way w of set s holds vpn s + w * sets.
        return CacheTag{1, slot / cfg.ways + slot % cfg.ways * cfg.sets};
    };
    for (SlotIndex slot = 0; slot < slots; ++slot) {
        cache.fill(slot, tagOf(slot), FlagUserReadable);
        const std::uint32_t first_word = 2 * slot + 1;
        const std::uint32_t last_word = 2 * slot + 2;
        cache.writeBytes(slot, 0, &first_word, 4);
        cache.writeBytes(slot, last, &last_word, 4);
    }
    const SlotIndex refilled = 3;
    cache.fill(refilled, tagOf(refilled), FlagUserReadable);
    for (SlotIndex slot = 0; slot < slots; ++slot) {
        std::uint32_t first_word = 0;
        std::uint32_t last_word = 0;
        cache.readBytes(slot, 0, &first_word, 4);
        cache.readBytes(slot, last, &last_word, 4);
        EXPECT_EQ(first_word, slot == refilled ? 0 : 2 * slot + 1) << slot;
        EXPECT_EQ(last_word, slot == refilled ? 0 : 2 * slot + 2) << slot;
        EXPECT_EQ(cache.pageData(slot).size(), cfg.pageBytes);
    }
}

TEST(Cache, FillClearsOldData)
{
    Cache cache(smallConfig());
    const auto slot = installPage(cache, 1, 0x1000);
    const std::uint32_t value = 0x12345678;
    cache.writeBytes(slot, 0, &value, sizeof(value));
    cache.fill(slot, cache.tagFor(1, 0x1000), FlagUserReadable);
    std::uint32_t got = 0xff;
    cache.readBytes(slot, 0, &got, sizeof(got));
    EXPECT_EQ(got, 0u);
}

TEST(Cache, NoDataStorageConfig)
{
    CacheConfig cfg = smallConfig();
    cfg.storeData = false;
    Cache cache(cfg);
    const auto slot = installPage(cache, 1, 0x1000);
    std::uint32_t v = 0;
    EXPECT_THROW(cache.writeBytes(slot, 0, &v, 4), PanicError);
    EXPECT_THROW(cache.readBytes(slot, 0, &v, 4), PanicError);
}

TEST(Cache, FindAllLocatesAliasFreeSlot)
{
    Cache cache(smallConfig());
    installPage(cache, 1, 0x1000);
    const auto tag = cache.tagFor(1, 0x1000);
    const auto found = cache.findAll(tag);
    ASSERT_EQ(found.size(), 1u);
    EXPECT_EQ(cache.slot(found[0]).tag, tag);
    EXPECT_TRUE(cache.findAll(cache.tagFor(2, 0x1000)).empty());
}

TEST(Cache, ResetStats)
{
    Cache cache(smallConfig());
    cache.access(1, 0, false, false);
    cache.resetStats();
    EXPECT_EQ(cache.misses().value(), 0u);
    EXPECT_DOUBLE_EQ(cache.missRatio(), 0.0);
}

TEST(Cache, ShiftIndexingMatchesDivision)
{
    // Indexing shifts and masks; both must agree with the / and %
    // definitions for every legal page size and a range of set counts,
    // on addresses of every width (above 2^32 and 2^48 included).
    Rng rng(41);
    for (std::uint32_t page = 32; page <= 4096; page *= 2) {
        for (std::uint32_t sets = 16; sets <= 2048; sets *= 4) {
            const Cache cache(CacheConfig{page, 2, sets, false});
            Cache filled(CacheConfig{page, 2, sets, false});
            for (int i = 0; i < 200; ++i) {
                const unsigned width =
                    std::array<unsigned, 6>{20, 32, 33, 48, 49, 64}[i % 6];
                Addr va = width == 64
                    ? rng.next()
                    : rng.next() & ((Addr{1} << width) - 1);
                if (i == 0)
                    va = ~Addr{0};
                const auto asid = static_cast<Asid>(rng.below(256));
                const CacheTag tag = cache.tagFor(asid, va);
                EXPECT_EQ(tag.asid, asid);
                ASSERT_EQ(tag.vpn, va / page) << page << " " << va;
                ASSERT_EQ(cache.setOf(va), (va / page) % sets)
                    << page << " " << sets << " " << va;
                ASSERT_EQ(cache.offsetOf(va), va % page) << page << va;

                const auto set =
                    static_cast<SlotIndex>((va / page) % sets);
                const SlotIndex slot =
                    set * 2 + static_cast<SlotIndex>(i % 2);
                filled.fill(slot, tag, FlagUserReadable);
                const auto found = filled.findAll(tag);
                EXPECT_NE(std::find(found.begin(), found.end(), slot),
                          found.end())
                    << page << " " << sets << " " << va;
                EXPECT_TRUE(filled.probe(asid, va, false, false).hit);
            }
        }
    }
}

// ------------------------------------------- parameterized properties

using Geometry = std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>;

class CacheGeometryTest : public ::testing::TestWithParam<Geometry>
{
  protected:
    CacheConfig
    config() const
    {
        const auto [page, ways, sets] = GetParam();
        CacheConfig cfg;
        cfg.pageBytes = page;
        cfg.ways = ways;
        cfg.sets = sets;
        cfg.storeData = false;
        return cfg;
    }
};

TEST_P(CacheGeometryTest, FillThenHitEverySlot)
{
    Cache cache(config());
    const auto &cfg = cache.config();
    // Walk enough distinct pages to fill the whole cache.
    for (std::uint64_t vpn = 0; vpn < cfg.totalSlots(); ++vpn) {
        const Addr va = vpn * cfg.pageBytes;
        const auto res = cache.access(1, va, false, false);
        ASSERT_FALSE(res.hit);
        cache.fill(res.suggestedVictim, cache.tagFor(1, va),
                   FlagUserReadable);
    }
    EXPECT_EQ(cache.validCount(), cfg.totalSlots());
    // Every page now hits.
    for (std::uint64_t vpn = 0; vpn < cfg.totalSlots(); ++vpn) {
        const Addr va = vpn * cfg.pageBytes;
        ASSERT_TRUE(cache.access(1, va, false, false).hit) << va;
    }
}

TEST_P(CacheGeometryTest, VictimAlwaysInCorrectSet)
{
    Cache cache(config());
    const auto &cfg = cache.config();
    for (std::uint64_t vpn = 0; vpn < 4 * cfg.totalSlots(); ++vpn) {
        const Addr va = vpn * cfg.pageBytes;
        const auto res = cache.access(1, va, false, false);
        if (!res.hit) {
            ASSERT_EQ(res.suggestedVictim / cfg.ways, cache.setOf(va));
            cache.fill(res.suggestedVictim, cache.tagFor(1, va),
                       FlagUserReadable);
        }
    }
}

TEST_P(CacheGeometryTest, CapacityEvictionIsPerSet)
{
    Cache cache(config());
    const auto &cfg = cache.config();
    // Fill one set with ways+1 pages; exactly one eviction happens.
    const std::uint64_t stride = cfg.sets;
    for (std::uint32_t i = 0; i <= cfg.ways; ++i) {
        const Addr va = i * stride * cfg.pageBytes;
        const auto res = cache.access(1, va, false, false);
        ASSERT_FALSE(res.hit);
        cache.fill(res.suggestedVictim, cache.tagFor(1, va),
                   FlagUserReadable);
    }
    EXPECT_EQ(cache.validCount(), cfg.ways);
    // The first page inserted was evicted (LRU).
    EXPECT_FALSE(cache.access(1, 0, false, false).hit);
}

TEST_P(CacheGeometryTest, RandomizedLruMatchesReferenceModel)
{
    // Drive random accesses and mirror them in a per-set reference LRU
    // list; the cache's hit/miss decisions and victim suggestions must
    // match the model exactly.
    Cache cache(config());
    const auto &cfg = cache.config();
    Rng rng(GetParam() == Geometry{128, 1, 16} ? 7 : 13);
    // Reference: per set, a most-recent-first list of vpns.
    std::vector<std::deque<std::uint64_t>> model(cfg.sets);

    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t vpn = rng.below(4 * cfg.totalSlots());
        const Addr va = vpn * cfg.pageBytes + rng.below(cfg.pageBytes);
        const auto set = cache.setOf(va);
        auto &lru = model[set];
        const auto it = std::find(lru.begin(), lru.end(), vpn);
        const bool model_hit = it != lru.end();

        const auto res = cache.access(1, va, false, false);
        ASSERT_EQ(res.hit, model_hit) << "step " << step;

        if (model_hit) {
            lru.erase(it);
            lru.push_front(vpn);
        } else {
            // Victim must be the least recently used (or invalid).
            if (lru.size() == cfg.ways) {
                const auto &victim = cache.slot(res.suggestedVictim);
                ASSERT_TRUE(victim.valid());
                ASSERT_EQ(victim.tag.vpn, lru.back());
                lru.pop_back();
            }
            cache.fill(res.suggestedVictim, cache.tagFor(1, va),
                       FlagUserReadable);
            lru.push_front(vpn);
        }
        ASSERT_LE(lru.size(), cfg.ways);
    }
}

TEST_P(CacheGeometryTest, RandomizedAccessMatchesProbe)
{
    // access() is the inline hit path plus probe() on a miss: for every
    // outcome it must return exactly what probe() said just before,
    // and its counters must tally those probes.
    Cache cache(config());
    const auto &cfg = cache.config();
    Rng rng(29);
    // Probe outcomes seen, indexed by MissKind (None is a hit).
    std::array<std::uint64_t, 4> seen{};
    const auto randomFlags = [&rng] {
        // Any mix of E, SW, UR and UW (bits 2-5).
        return static_cast<SlotFlags>(rng.below(16) << 2);
    };
    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t vpn = rng.below(2 * cfg.totalSlots());
        const Addr va = vpn * cfg.pageBytes + rng.below(cfg.pageBytes);
        const auto asid = static_cast<Asid>(1 + rng.below(2));
        const bool write = rng.below(2) != 0;
        const bool supervisor = rng.below(2) != 0;

        const AccessResult want = cache.probe(asid, va, write, supervisor);
        const AccessResult got = cache.access(asid, va, write, supervisor);
        ASSERT_EQ(got.hit, want.hit) << "step " << step;
        ASSERT_EQ(got.miss, want.miss) << "step " << step;
        ASSERT_EQ(got.slot, want.slot) << "step " << step;
        ASSERT_EQ(got.suggestedVictim, want.suggestedVictim)
            << "step " << step;
        ++seen[static_cast<std::size_t>(want.miss)];

        // Play the miss handler: fill on a tag miss, re-flag the
        // matching slot on a permission or ownership miss.
        if (want.miss == MissKind::NoMatch)
            cache.fill(want.suggestedVictim, cache.tagFor(asid, va),
                       randomFlags());
        else if (!want.hit)
            cache.setFlags(want.slot,
                           static_cast<SlotFlags>(FlagValid | randomFlags()));
    }
    for (std::size_t kind = 0; kind < seen.size(); ++kind)
        EXPECT_GT(seen[kind], 0u) << "MissKind " << kind << " never seen";
    const auto kindCount = [&seen](MissKind kind) {
        return seen[static_cast<std::size_t>(kind)];
    };
    EXPECT_EQ(cache.hits().value(), kindCount(MissKind::None));
    EXPECT_EQ(cache.misses().value(), kindCount(MissKind::NoMatch) +
                                          kindCount(MissKind::Protection) +
                                          kindCount(MissKind::WriteShared));
    EXPECT_EQ(cache.writeSharedMisses().value(),
              kindCount(MissKind::WriteShared));
}

std::string
geometryName(const ::testing::TestParamInfo<Geometry> &info)
{
    const auto [page, ways, sets] = info.param;
    return "p" + std::to_string(page) + "w" + std::to_string(ways) +
        "s" + std::to_string(sets);
}

INSTANTIATE_TEST_SUITE_P(
    PrototypeGeometries, CacheGeometryTest,
    ::testing::Values(Geometry{128, 1, 16}, Geometry{128, 4, 64},
                      Geometry{256, 2, 32}, Geometry{256, 4, 256},
                      Geometry{512, 4, 128}, Geometry{512, 1, 256}),
    geometryName);

} // namespace
} // namespace vmp::cache
