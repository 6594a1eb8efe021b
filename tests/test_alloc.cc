/**
 * @file
 * Allocation gate for the miss path: heap allocations per miss on a
 * flat4_shared-shaped machine and on a small hierarchy, counted by a
 * replaced global operator new. Each figure is the difference between
 * two run lengths, so the machine build cancels out, and the traces
 * are generated before counting starts.
 *
 * This binary replaces operator new for the whole process, so it stays
 * out of the sanitized build (ASan owns operator new there).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/hier_system.hh"
#include "core/system.hh"
#include "trace/synthetic.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace
{

/** Allocations counted while counting is on (single-threaded). */
std::uint64_t g_allocs = 0;
bool g_counting = false;

} // namespace

void *
operator new(std::size_t bytes)
{
    if (g_counting)
        ++g_allocs;
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    return operator new(bytes);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace vmp
{
namespace
{

constexpr std::uint32_t kPageBytes = 256;

/** atum2 traces, one per CPU, as simbench's event-driven workloads
 *  build them: a shared kernel image, or a private one per CPU. */
std::vector<trace::VectorRefSource>
traces(std::uint32_t cpus, std::uint64_t refs, bool shared_kernel)
{
    std::vector<trace::VectorRefSource> out;
    for (std::uint32_t i = 0; i < cpus; ++i) {
        auto cfg = trace::workloadConfig("atum2");
        cfg.totalRefs = refs;
        cfg.seed = 1 + i;
        cfg.asidBase = static_cast<Asid>(1 + i * 8);
        if (!shared_kernel)
            cfg.kernelOffset = static_cast<Addr>(i) * 0x20'0000;
        trace::SyntheticGen gen(cfg);
        std::vector<trace::MemRef> stream;
        trace::MemRef ref;
        while (gen.next(ref))
            stream.push_back(ref);
        out.emplace_back(std::move(stream));
    }
    return out;
}

struct Count
{
    std::uint64_t allocs = 0;
    std::uint64_t misses = 0;
};

/** Build the machine and run the traces with allocations counted. */
template <typename Machine, typename Config>
Count
countRun(const Config &cfg, std::vector<trace::VectorRefSource> sources)
{
    std::vector<trace::RefSource *> ptrs;
    for (auto &source : sources)
        ptrs.push_back(&source);
    g_allocs = 0;
    g_counting = true;
    Count out;
    {
        Machine system(cfg);
        out.misses = system.runTraces(ptrs).totalMisses;
    }
    g_counting = false;
    out.allocs = g_allocs;
    return out;
}

template <typename Machine, typename Config>
double
allocsPerMiss(const Config &cfg, std::uint32_t cpus, bool shared_kernel)
{
    const Count shortRun = countRun<Machine>(
        cfg, traces(cpus, 20'000, shared_kernel));
    const Count longRun = countRun<Machine>(
        cfg, traces(cpus, 60'000, shared_kernel));
    EXPECT_GT(longRun.misses, shortRun.misses + 1000);
    const double per_miss =
        static_cast<double>(longRun.allocs - shortRun.allocs) /
        static_cast<double>(longRun.misses - shortRun.misses);
    std::printf("allocations per miss: %.3f (%llu allocations over %llu "
                "misses)\n",
                per_miss,
                static_cast<unsigned long long>(longRun.allocs -
                                                shortRun.allocs),
                static_cast<unsigned long long>(longRun.misses -
                                                shortRun.misses));
    return per_miss;
}

TEST(AllocGate, FlatSharedKernelMissesAllocateAtMostTwice)
{
    core::VmpConfig cfg;
    cfg.processors = 4;
    cfg.cache = cache::CacheConfig::forSize(KiB(16), kPageBytes, 4);
    cfg.memBytes = MiB(8);
    EXPECT_LE((allocsPerMiss<core::VmpSystem>(cfg, 4, true)), 2.0);
}

/** A 2x2 hierarchy: the IBCs' global-side service still boxes its
 *  continuation closures; the pin is the value measured when the miss
 *  path moved to records (6,802 allocations over 3,376 misses). */
TEST(AllocGate, HierMissesAllocateAsPinned)
{
    core::HierConfig cfg;
    cfg.clusters = 2;
    cfg.cpusPerCluster = 2;
    cfg.cache = cache::CacheConfig::forSize(KiB(16), kPageBytes, 4);
    cfg.memBytes = MiB(8);
    EXPECT_NEAR((allocsPerMiss<core::HierVmpSystem>(cfg, 4, false)), 2.015,
                0.01);
}

} // namespace
} // namespace vmp
