/**
 * @file
 * Tests for the trace layer: reference records, binary/text round trips,
 * the synthetic ATUM-like generator's structural properties, and the
 * preset workloads' match to the paper's trace characteristics
 * (Section 5.2: 358k-540k four-byte refs, ~25% OS references, small
 * multiprogramming degree).
 */

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "sim/logging.hh"
#include "trace/analyzer.hh"
#include "trace/ref.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace vmp::trace
{
namespace
{

MemRef
makeRef(Addr va, RefType type, Asid asid = 1, bool sup = false)
{
    MemRef r;
    r.vaddr = va;
    r.type = type;
    r.asid = asid;
    r.supervisor = sup;
    return r;
}

// ----------------------------------------------------------------- ref

TEST(MemRef, Predicates)
{
    EXPECT_TRUE(makeRef(0, RefType::DataWrite).isWrite());
    EXPECT_FALSE(makeRef(0, RefType::DataRead).isWrite());
    EXPECT_TRUE(makeRef(0, RefType::InstrFetch).isFetch());
}

TEST(MemRef, ToStringMentionsFields)
{
    const auto s = makeRef(0x1234, RefType::DataWrite, 3, true).toString();
    EXPECT_NE(s.find("write"), std::string::npos);
    EXPECT_NE(s.find("asid=3"), std::string::npos);
    EXPECT_NE(s.find("1234"), std::string::npos);
    EXPECT_NE(s.find("sup"), std::string::npos);
}

// --------------------------------------------------------------- io

TEST(TraceIo, BinaryRoundTrip)
{
    std::vector<MemRef> refs = {
        makeRef(0x1000, RefType::InstrFetch, 1, false),
        makeRef(0x2004, RefType::DataRead, 2, true),
        makeRef(0xdeadbeef, RefType::DataWrite, 255, false),
    };
    std::stringstream ss;
    BinaryTraceWriter writer(ss);
    for (const auto &r : refs)
        writer.write(r);
    EXPECT_EQ(writer.written(), 3u);

    BinaryTraceReader reader(ss);
    MemRef r;
    for (const auto &want : refs) {
        ASSERT_TRUE(reader.next(r));
        EXPECT_EQ(r, want);
    }
    EXPECT_FALSE(reader.next(r));
}

TEST(TraceIo, FieldExtremesRoundTripBothFormats)
{
    std::vector<MemRef> refs;
    for (const RefType type : {RefType::InstrFetch, RefType::DataRead,
                               RefType::DataWrite})
        refs.push_back(MemRef{refAddrLimit - 1, 255, type, 255, true});
    refs.push_back(MemRef{0, 0, RefType::DataRead, 1, false});

    std::stringstream bin;
    BinaryTraceWriter bin_writer(bin);
    std::stringstream text;
    TextTraceWriter text_writer(text);
    for (const auto &r : refs) {
        bin_writer.write(r);
        text_writer.write(r);
    }
    BinaryTraceReader bin_reader(bin);
    TextTraceReader text_reader(text);
    MemRef r;
    for (const auto &want : refs) {
        ASSERT_TRUE(bin_reader.next(r));
        EXPECT_EQ(r, want) << r.toString();
        ASSERT_TRUE(text_reader.next(r));
        EXPECT_EQ(r, want) << r.toString();
    }
    EXPECT_FALSE(bin_reader.next(r));
    EXPECT_FALSE(text_reader.next(r));
    // The packed fields hold the extremes and do not bleed into each
    // other.
    EXPECT_EQ(refs[2].vaddr, 0xFFFF'FFFFu);
    EXPECT_EQ(refs[2].asid, 255u);
    EXPECT_EQ(refs[2].type, RefType::DataWrite);
    EXPECT_EQ(refs[2].size, 255u);
    EXPECT_TRUE(refs[2].supervisor);
    EXPECT_EQ(refs[3].vaddr, 0u);
    EXPECT_EQ(refs[3].asid, 0u);
    EXPECT_EQ(refs[3].size, 1u);
    EXPECT_FALSE(refs[3].supervisor);
}

TEST(TraceIo, BinaryRejectsVaddrPast32Bits)
{
    std::stringstream ss;
    BinaryTraceWriter writer(ss);
    writer.write(MemRef{refAddrLimit - 1, 1, RefType::DataRead, 4, false});
    writer.write(MemRef{});
    // Set bit 32 of the second record's vaddr (header 8, record 16).
    std::string raw = ss.str();
    raw[8 + 16 + 4] = 0x01;
    std::stringstream wide(raw);
    BinaryTraceReader reader(wide);
    MemRef r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.vaddr, 0xFFFF'FFFFu);
    EXPECT_THROW(reader.next(r), FatalError);
}

TEST(TraceIo, TextRejectsVaddrPast32BitsOrNotANumber)
{
    for (const char *addr :
         {"0x100000000", "4294967296", "0x1ffffffffffffffff", "-1",
          "0x10zz", "page"}) {
        std::stringstream ss;
        ss << "read 1 0xffffffff 4 usr\nread 1 " << addr << " 4 usr\n";
        TextTraceReader reader(ss);
        MemRef r;
        ASSERT_TRUE(reader.next(r));
        EXPECT_EQ(r.vaddr, 0xFFFF'FFFFu);
        EXPECT_THROW(reader.next(r), FatalError) << addr;
    }
}

TEST(TraceIo, BinaryRejectsBadMagic)
{
    std::stringstream ss;
    ss << "NOPE....";
    EXPECT_THROW(BinaryTraceReader reader(ss), FatalError);
}

TEST(TraceIo, TextRoundTrip)
{
    std::vector<MemRef> refs = {
        makeRef(0x1000, RefType::InstrFetch, 1, false),
        makeRef(0x18000000, RefType::DataWrite, 7, true),
    };
    std::stringstream ss;
    TextTraceWriter writer(ss);
    for (const auto &r : refs)
        writer.write(r);

    TextTraceReader reader(ss);
    MemRef r;
    for (const auto &want : refs) {
        ASSERT_TRUE(reader.next(r));
        EXPECT_EQ(r, want);
    }
    EXPECT_FALSE(reader.next(r));
}

TEST(TraceIo, TextSkipsCommentsAndBlanks)
{
    std::stringstream ss;
    ss << "# a comment\n\nifetch 1 0x100 4 usr # trailing\n";
    TextTraceReader reader(ss);
    MemRef r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.vaddr, 0x100u);
    EXPECT_FALSE(reader.next(r));
}

TEST(TraceIo, TextRejectsMalformed)
{
    std::stringstream ss;
    ss << "launder 1 0x100 4 usr\n";
    TextTraceReader reader(ss);
    MemRef r;
    EXPECT_THROW(reader.next(r), FatalError);
}

TEST(TraceIo, VectorSourceAndLimit)
{
    VectorRefSource vec({makeRef(1, RefType::DataRead),
                         makeRef(2, RefType::DataRead),
                         makeRef(3, RefType::DataRead)});
    LimitedRefSource limited(vec, 2);
    const auto got = collect(limited);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].vaddr, 1u);
    EXPECT_EQ(got[1].vaddr, 2u);
}

// ----------------------------------------------------------- synthetic

TEST(Synthetic, ProducesExactlyTotalRefs)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 10'000;
    SyntheticGen gen(cfg);
    MemRef r;
    std::uint64_t n = 0;
    while (gen.next(r))
        ++n;
    EXPECT_EQ(n, 10'000u);
    EXPECT_EQ(gen.produced(), 10'000u);
}

TEST(Synthetic, DeterministicForSeed)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 5'000;
    cfg.seed = 99;
    SyntheticGen a(cfg), b(cfg);
    MemRef ra, rb;
    while (a.next(ra)) {
        ASSERT_TRUE(b.next(rb));
        ASSERT_EQ(ra, rb);
    }
    EXPECT_FALSE(b.next(rb));
}

TEST(Synthetic, DifferentSeedsDiffer)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 2'000;
    cfg.seed = 1;
    SyntheticGen a(cfg);
    cfg.seed = 2;
    SyntheticGen b(cfg);
    MemRef ra, rb;
    bool differ = false;
    while (a.next(ra) && b.next(rb))
        differ = differ || !(ra == rb);
    EXPECT_TRUE(differ);
}

TEST(Synthetic, SupervisorFractionTracksTarget)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 200'000;
    cfg.osRefFrac = 0.25;
    SyntheticGen gen(cfg);
    TraceAnalyzer analyzer;
    analyzer.consume(gen);
    const auto prof = analyzer.profile();
    EXPECT_NEAR(prof.supervisorFrac(), 0.25, 0.03);
}

TEST(Synthetic, ZeroOsFractionMeansNoSupervisorRefs)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 20'000;
    cfg.osRefFrac = 0.0;
    SyntheticGen gen(cfg);
    MemRef r;
    while (gen.next(r))
        ASSERT_FALSE(r.supervisor);
}

TEST(Synthetic, MultiprogrammingUsesDistinctAsids)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 100'000;
    cfg.processes = 3;
    cfg.quantumRefs = 10'000;
    SyntheticGen gen(cfg);
    TraceAnalyzer analyzer;
    analyzer.consume(gen);
    EXPECT_EQ(analyzer.profile().asidsSeen, 3u);
}

TEST(Synthetic, SupervisorRefsLandInKernelRegion)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 50'000;
    SyntheticGen gen(cfg);
    MemRef r;
    while (gen.next(r)) {
        if (r.supervisor) {
            EXPECT_GE(r.vaddr, kernelBase);
            EXPECT_LT(r.vaddr, userBase);
        } else {
            EXPECT_GE(r.vaddr, userBase);
        }
    }
}

TEST(Synthetic, RefsAreWordSizedAndAligned)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 20'000;
    SyntheticGen gen(cfg);
    MemRef r;
    while (gen.next(r)) {
        EXPECT_EQ(r.size, 4u);
        EXPECT_EQ(r.vaddr % 4, 0u);
    }
}

TEST(Synthetic, FetchesShowSequentialLocality)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 50'000;
    SyntheticGen gen(cfg);
    MemRef r;
    Addr last_fetch = 0;
    std::uint64_t fetches = 0, sequential = 0;
    while (gen.next(r)) {
        if (!r.isFetch())
            continue;
        if (last_fetch != 0 && r.vaddr == last_fetch + 4)
            ++sequential;
        last_fetch = r.vaddr;
        ++fetches;
    }
    ASSERT_GT(fetches, 10'000u);
    // Most consecutive fetches continue the current run.
    EXPECT_GT(static_cast<double>(sequential) /
                  static_cast<double>(fetches),
              0.5);
}

TEST(Synthetic, ConfigValidationRejectsNonsense)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 0;
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);
    cfg = SyntheticConfig{};
    cfg.osRefFrac = 1.5;
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);
    cfg = SyntheticConfig{};
    cfg.dataRefProb = -0.5;
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);
    cfg = SyntheticConfig{};
    cfg.processes = 0;
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);
    // A zero local range would reach Rng::below(0), a PanicError.
    cfg = SyntheticConfig{};
    cfg.userCode.localRange = 0;
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);
    cfg = SyntheticConfig{};
    cfg.osCode.localRange = cfg.osCode.bytes + 4;
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);

    // NaN fails every < and > test, so each field needs its own check;
    // a NaN mean would reach an undefined double -> uint64_t cast.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<std::function<void(SyntheticConfig &)>> bad = {
        [=](SyntheticConfig &c) { c.dataRefProb = nan; },
        [=](SyntheticConfig &c) { c.stackRefProb = nan; },
        [=](SyntheticConfig &c) { c.writeFrac = nan; },
        [=](SyntheticConfig &c) { c.osRefFrac = nan; },
        [=](SyntheticConfig &c) { c.osBurstInstrs = nan; },
        [=](SyntheticConfig &c) { c.osBurstInstrs = inf; },
        [=](SyntheticConfig &c) { c.userCode.meanRunInstrs = nan; },
        [=](SyntheticConfig &c) { c.osCode.meanRunInstrs = inf; },
        [=](SyntheticConfig &c) { c.userCode.localBranchProb = nan; },
        [=](SyntheticConfig &c) { c.osCode.localBranchProb = 1.5; },
        [=](SyntheticConfig &c) { c.userCode.theta = nan; },
        [=](SyntheticConfig &c) { c.osData.theta = nan; },
        [=](SyntheticConfig &c) { c.userData.meanRunWords = nan; },
        [=](SyntheticConfig &c) { c.osData.meanRunWords = inf; },
    };
    for (std::size_t i = 0; i < bad.size(); ++i) {
        cfg = SyntheticConfig{};
        bad[i](cfg);
        EXPECT_THROW(SyntheticGen{cfg}, FatalError) << "case " << i;
    }
}

TEST(Synthetic, AsidBaseOffsetsAddressSpaces)
{
    SyntheticConfig cfg;
    cfg.totalRefs = 20'000;
    cfg.processes = 2;
    cfg.quantumRefs = 5'000;
    cfg.asidBase = 40;
    SyntheticGen gen(cfg);
    MemRef r;
    while (gen.next(r)) {
        EXPECT_GE(r.asid, 40);
        EXPECT_LE(r.asid, 41);
    }
}

TEST(Synthetic, KernelOffsetSeparatesKernelImages)
{
    // Two generators with distinct kernel offsets must touch disjoint
    // supervisor addresses (private pseudo-kernels).
    auto make = [](Addr offset) {
        SyntheticConfig cfg;
        cfg.totalRefs = 20'000;
        cfg.seed = 5;
        cfg.kernelOffset = offset;
        return cfg;
    };
    std::set<Addr> first, second;
    {
        SyntheticGen gen(make(0));
        MemRef r;
        while (gen.next(r))
            if (r.supervisor)
                first.insert(r.vaddr);
    }
    {
        SyntheticGen gen(make(0x20'0000));
        MemRef r;
        while (gen.next(r))
            if (r.supervisor)
                second.insert(r.vaddr);
    }
    ASSERT_FALSE(first.empty());
    ASSERT_FALSE(second.empty());
    for (const Addr va : second)
        EXPECT_EQ(first.count(va), 0u);
}

TEST(Synthetic, KernelOffsetValidated)
{
    SyntheticConfig cfg;
    cfg.kernelOffset = userBase; // way outside the kernel region
    EXPECT_THROW(SyntheticGen{cfg}, FatalError);
}

TEST(Synthetic, SegmentsMustFitThirtyTwoBitAddresses)
{
    // A 4 KiB-object kernel data segment that ends just below 2^32
    // with one kernel image; moving that image up by one page pushes
    // the segment's end past 2^32.
    SyntheticConfig cfg = workloadConfig("atum1");
    cfg.osData.objectBytes = 4096;
    cfg.osData.objects = 0xE7BC8;
    EXPECT_NO_THROW(cfg.check());
    cfg.kernelOffset = 0x1000;
    EXPECT_THROW(cfg.check(), FatalError);

    // The user side: a stack that alone reaches past 2^32.
    cfg = workloadConfig("atum1");
    cfg.stackBytes = 0xE000'0000;
    EXPECT_THROW(cfg.check(), FatalError);
}

TEST(TraceIo, BinaryRejectsCorruptType)
{
    std::stringstream ss;
    BinaryTraceWriter writer(ss);
    writer.write(MemRef{});
    // Corrupt the type byte of the first record (offset 8 + 8 + 1).
    std::string raw = ss.str();
    raw[8 + 9] = 0x7f;
    std::stringstream corrupted(raw);
    BinaryTraceReader reader(corrupted);
    MemRef r;
    EXPECT_THROW(reader.next(r), FatalError);
}

// ----------------------------------------------------------- workloads

TEST(Workloads, FourPresetsExist)
{
    const auto names = workloadNames();
    ASSERT_EQ(names.size(), 4u);
    for (const auto &name : names) {
        const auto cfg = workloadConfig(name);
        EXPECT_NO_THROW(cfg.check());
    }
    EXPECT_THROW(workloadConfig("atum9"), FatalError);
}

TEST(Workloads, LengthsMatchPaperBand)
{
    // "The trace lengths vary from 358,000 to 540,000 four-byte
    // references."
    for (const auto &cfg : allWorkloads()) {
        EXPECT_GE(cfg.totalRefs, 358'000u);
        EXPECT_LE(cfg.totalRefs, 540'000u);
    }
}

TEST(Workloads, OsFractionNearQuarter)
{
    // "operating system references account for approximately 25% of the
    // references" — checked on the generated streams, subsampled for
    // speed.
    for (const auto &name : workloadNames()) {
        auto cfg = workloadConfig(name);
        cfg.totalRefs = 120'000;
        SyntheticGen gen(cfg);
        TraceAnalyzer analyzer;
        analyzer.consume(gen);
        EXPECT_NEAR(analyzer.profile().supervisorFrac(), 0.25, 0.05)
            << name;
    }
}

TEST(Workloads, FootprintExceedsSmallCachesButHasHotCore)
{
    // The Figure 4 sweep only makes sense if the traces touch more
    // memory than the smallest cache (64K) at the finest page size.
    auto cfg = workloadConfig("atum1");
    SyntheticGen gen(cfg);
    TraceAnalyzer analyzer;
    analyzer.consume(gen);
    const auto prof = analyzer.profile();
    EXPECT_GT(prof.footprintBytes(128), 64u * 1024);
}

/** FNV-1a over every field of the first @p refs references of @p cfg. */
std::uint64_t
streamHash(SyntheticConfig cfg, std::uint64_t refs)
{
    cfg.totalRefs = refs;
    SyntheticGen gen(cfg);
    std::uint64_t h = 0xCBF29CE484222325ULL;
    MemRef r;
    while (gen.next(r)) {
        const std::uint64_t words[] = {
            r.vaddr, r.asid, static_cast<std::uint64_t>(r.type), r.size,
            static_cast<std::uint64_t>(r.supervisor)};
        for (const auto w : words) {
            h ^= w;
            h *= 0x100000001B3ULL;
        }
    }
    return h;
}

TEST(Workloads, StreamIsPinned)
{
    // The generator's output is part of every result in the repository:
    // a faster generator must make the same draws in the same order and
    // compute the same doubles. These hashes were captured from the
    // straightforward implementation (out-of-line RNG, lower_bound Zipf,
    // vector queue).
    constexpr std::uint64_t kRefs = 1'000'000;
    struct Pin
    {
        const char *what;
        SyntheticConfig cfg;
        std::uint64_t hash;
    };
    std::vector<Pin> pins;
    for (const auto &name : workloadNames()) {
        for (const std::uint64_t seed : {1, 3}) {
            auto cfg = workloadConfig(name);
            cfg.seed = seed;
            pins.push_back({name.c_str(), cfg, 0});
        }
    }
    // Three processes with a private kernel image.
    SyntheticConfig multi;
    multi.processes = 3;
    multi.kernelOffset = 0x20'0000;
    multi.quantumRefs = 7'777;
    pins.push_back({"processes=3", multi, 0});
    // Every run has length one: p == 1 geometrics consume no draw.
    SyntheticConfig unit;
    unit.userCode.meanRunInstrs = unit.osCode.meanRunInstrs = 1;
    unit.userData.meanRunWords = unit.osData.meanRunWords = 1;
    unit.osBurstInstrs = 1;
    pins.push_back({"unit runs", unit, 0});

    const std::uint64_t expected[] = {
        0x476a3929d01f03ccULL, 0x4a0b3d397c4548d0ULL, // atum1 seeds 1, 3
        0x976c59e06a161264ULL, 0x33d2cfec3909490bULL, // atum2
        0x3b4f22c22380723aULL, 0x0b0b07a935672524ULL, // atum3
        0xbbef67174853d624ULL, 0x621cbbd4fcc9ab6bULL, // atum4
        0x1724c86220754979ULL, // processes = 3
        0x7ae444f38c15c3deULL, // unit runs
    };
    ASSERT_EQ(pins.size(), std::size(expected));
    for (std::size_t i = 0; i < pins.size(); ++i)
        EXPECT_EQ(streamHash(pins[i].cfg, kRefs), expected[i])
            << pins[i].what << " seed " << pins[i].cfg.seed << std::hex
            << " hash 0x" << streamHash(pins[i].cfg, kRefs);
}

// ------------------------------------------------------------ analyzer

TEST(Analyzer, CountsMixAndFootprint)
{
    TraceAnalyzer analyzer({128, 256});
    analyzer.observe(makeRef(0, RefType::InstrFetch, 1));
    analyzer.observe(makeRef(4, RefType::DataRead, 1));
    analyzer.observe(makeRef(130, RefType::DataWrite, 1, true));
    analyzer.observe(makeRef(0, RefType::DataRead, 2));
    const auto prof = analyzer.profile();
    EXPECT_EQ(prof.totalRefs, 4u);
    EXPECT_EQ(prof.fetches, 1u);
    EXPECT_EQ(prof.reads, 2u);
    EXPECT_EQ(prof.writes, 1u);
    EXPECT_EQ(prof.supervisorRefs, 1u);
    EXPECT_EQ(prof.asidsSeen, 2u);
    // asid 1 touches pages {0,1} at 128B; asid 2 touches page 0.
    EXPECT_EQ(prof.uniquePages.at(128), 3u);
    EXPECT_EQ(prof.uniquePages.at(256), 2u);
    EXPECT_DOUBLE_EQ(prof.writeFrac(), 1.0 / 3.0);
}

TEST(Analyzer, RejectsNonPowerOfTwoPageSize)
{
    EXPECT_THROW(TraceAnalyzer({100}), FatalError);
}

} // namespace
} // namespace vmp::trace
