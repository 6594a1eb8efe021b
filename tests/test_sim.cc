/**
 * @file
 * Unit tests for the simulation base library: event queue, RNG and
 * distributions, statistics and table rendering, logging behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include "sim/debug.hh"
#include "sim/event.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace vmp
{
namespace
{

// --------------------------------------------------------------- types

TEST(Types, UnitHelpers)
{
    EXPECT_EQ(nsec(300), 300u);
    EXPECT_EQ(usec(17), 17'000u);
    EXPECT_EQ(msec(2), 2'000'000u);
    EXPECT_DOUBLE_EQ(toUsec(usec(21)), 21.0);
    EXPECT_EQ(KiB(256), 256u * 1024);
    EXPECT_EQ(MiB(8), 8u * 1024 * 1024);
}

TEST(Types, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(256));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(384));
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(512), 9u);
    EXPECT_EQ(alignDown(0x1234, 256), 0x1200u);
    EXPECT_EQ(alignUp(0x1201, 256), 0x1300u);
    EXPECT_EQ(alignUp(0x1200, 256), 0x1200u);
}

// -------------------------------------------------------------- events

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
    EXPECT_EQ(eq.dispatched(), 3u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(100, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleFromCallback)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] {
        eq.scheduleIn(10, [&] { fired = 1; });
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(EventQueue, Deschedule)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(id.valid());
    EXPECT_FALSE(eq.deschedule(id));
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, RunWithLimitStopsAndAdvancesClock)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(100, [&] { ++count; });
    eq.run(50);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), PanicError);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.reset();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.now(), 0u);
}

// ----------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42), c(43);
    bool all_equal = true, any_diff_c = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        all_equal = all_equal && (va == b.next());
        any_diff_c = any_diff_c || (va != c.next());
    }
    EXPECT_TRUE(all_equal);
    EXPECT_TRUE(any_diff_c);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10'000; ++i)
        EXPECT_LT(rng.below(37), 37u);
}

TEST(Rng, BetweenInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10'000; ++i) {
        const auto v = rng.between(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    double sum = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(13);
    const double p = 0.125;
    double sum = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(p));
    EXPECT_NEAR(sum / n, 1.0 / p, 0.15);
    EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng rng(17);
    double sum = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(250.0);
    EXPECT_NEAR(sum / n, 250.0, 5.0);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(19);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
}

TEST(Zipf, RankZeroIsHottest)
{
    Rng rng(23);
    ZipfDist dist(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50'000; ++i)
        ++counts[dist.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[90]);
}

TEST(Zipf, CoversDomainAndStaysInRange)
{
    Rng rng(29);
    ZipfDist dist(16, 0.5);
    std::vector<bool> seen(16, false);
    for (int i = 0; i < 20'000; ++i) {
        const auto v = dist.sample(rng);
        ASSERT_LT(v, 16u);
        seen[v] = true;
    }
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Zipf, ThetaZeroIsUniform)
{
    Rng rng(31);
    ZipfDist dist(10, 0.0);
    std::vector<int> counts(10, 0);
    const int n = 100'000;
    for (int i = 0; i < n; ++i)
        ++counts[dist.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
}

TEST(Zipf, GuideTableMatchesBinarySearch)
{
    // The guide table is an exact inverse CDF: rankOf(u) must be the
    // rank lower_bound finds for every u, above all at the bucket edges
    // k/n and the CDF steps, where an off-by-one start would show.
    for (const std::uint64_t n : {1, 2, 48, 72, 4096}) {
        for (const double theta : {0.0, 1.0, 1.8}) {
            const ZipfDist dist(n, theta);
            const auto &cdf = dist.cdf();
            std::vector<double> us = {0.0, 1.0 - 0x1.0p-53};
            auto probe = [&us](double u) {
                for (const double v : {std::nextafter(u, 0.0), u,
                                       std::nextafter(u, 1.0)})
                    if (v >= 0.0 && v < 1.0)
                        us.push_back(v);
            };
            for (std::uint64_t k = 0; k <= n; ++k)
                probe(static_cast<double>(k) / static_cast<double>(n));
            for (const double c : cdf)
                probe(c);
            Rng rng(n * 10 + static_cast<std::uint64_t>(theta * 10));
            for (int i = 0; i < 20'000; ++i)
                us.push_back(rng.uniform());
            for (const double u : us) {
                const auto want = static_cast<std::uint64_t>(
                    std::lower_bound(cdf.begin(), cdf.end(), u) -
                    cdf.begin());
                ASSERT_EQ(dist.rankOf(u), want)
                    << "n " << n << " theta " << theta << " u "
                    << std::hexfloat << u;
            }
        }
    }
}

TEST(Rng, GeometricDistMatchesInversionFormula)
{
    // GeometricDist caches log1p(-p) but must draw exactly what the
    // uncached formula draws, and p == 1 must consume no draw.
    for (const double p : {1.0, 0.5, 1.0 / 14.0, 1e-12}) {
        const GeometricDist dist(p);
        Rng a(77), b(77), c(77);
        for (int i = 0; i < 10'000; ++i) {
            std::uint64_t want = 1;
            if (p < 1.0) {
                double u = c.uniform();
                if (u <= 0.0)
                    u = 0x1.0p-53;
                const double trials =
                    std::floor(std::log(u) / std::log1p(-p)) + 1.0;
                want = trials >= 0x1.0p64
                    ? std::numeric_limits<std::uint64_t>::max()
                    : static_cast<std::uint64_t>(trials);
            }
            ASSERT_EQ(dist.sample(a), want) << "p " << p;
            ASSERT_EQ(b.geometric(p), want) << "p " << p;
        }
        // All three streams are still in step.
        const auto next = c.next();
        EXPECT_EQ(a.next(), next);
        EXPECT_EQ(b.next(), next);
        if (p == 1.0)
            continue;
        // The step boundaries u = (1-p)^k and their neighbours, where a
        // reciprocal multiply instead of the division would round to
        // the other side of an integer.
        for (int k = 1; k < 200; ++k) {
            const double edge = std::pow(1.0 - p, k);
            for (const double u : {std::nextafter(edge, 0.0), edge,
                                   std::nextafter(edge, 1.0)}) {
                if (u <= 0.0 || u >= 1.0)
                    continue;
                const double trials =
                    std::floor(std::log(u) / std::log1p(-p)) + 1.0;
                ASSERT_EQ(dist.trialsOf(u),
                          static_cast<std::uint64_t>(trials))
                    << "p " << p << " u " << std::hexfloat << u;
            }
        }
    }
}

TEST(Rng, BelowZeroPanics)
{
    Rng rng(5);
    EXPECT_THROW(rng.below(0), PanicError);
    EXPECT_THROW(GeometricDist{0.0}, PanicError);
    EXPECT_THROW(GeometricDist{std::nan("")}, PanicError);
}

// --------------------------------------------------------------- stats

TEST(Stats, CounterBasics)
{
    Counter c;
    ++c;
    c += 4;
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, HistogramBucketsAndMoments)
{
    Histogram h(10, 1.0);
    h.sample(0.5);
    h.sample(1.5);
    h.sample(1.7);
    h.sample(99.0); // overflow bucket
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 2u);
    EXPECT_EQ(h.buckets()[9], 1u);
    EXPECT_DOUBLE_EQ(h.min(), 0.5);
    EXPECT_DOUBLE_EQ(h.max(), 99.0);
    EXPECT_NEAR(h.mean(), (0.5 + 1.5 + 1.7 + 99.0) / 4, 1e-9);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
}

TEST(Stats, StatGroupDump)
{
    Counter c;
    c += 7;
    Scalar s;
    s.set(2.5);
    StatGroup g("cpu0");
    g.addCounter("misses", "cache misses", c);
    g.addScalar("busy", "busy fraction", s);
    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("cpu0.misses"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("cpu0.busy"), std::string::npos);
    EXPECT_NE(out.find("cache misses"), std::string::npos);
}

TEST(Stats, StatGroupRejectsDuplicateNames)
{
    Counter c;
    Scalar s;
    Histogram h(4, 1.0);
    StatGroup g("cpu0");
    g.addCounter("misses", "cache misses", c);
    // Duplicates are rejected across all three stat kinds: a second
    // "misses" would silently shadow the first in dumps and JSON.
    EXPECT_THROW(g.addCounter("misses", "again", c), PanicError);
    EXPECT_THROW(g.addScalar("misses", "as a scalar", s), PanicError);
    EXPECT_THROW(g.addHistogram("misses", "as a histogram", h),
                 PanicError);
    g.addScalar("busy", "busy fraction", s);
    EXPECT_THROW(g.addCounter("busy", "as a counter", c), PanicError);
    g.addHistogram("delay", "queue delay", h);
    EXPECT_THROW(g.addHistogram("delay", "again", h), PanicError);
}

TEST(Stats, TableWriterRendersAlignedRows)
{
    TableWriter t("Table 1");
    t.columns({"Page", "Elapsed", "Bus"});
    t.row().cell(std::uint64_t{128}).cell(17.0, 1).cell(3.5, 1);
    t.row().cell(std::uint64_t{256}).cell(20.0, 1).cell(6.6, 1);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== Table 1 =="), std::string::npos);
    EXPECT_NE(out.find("Page"), std::string::npos);
    EXPECT_NE(out.find("17.0"), std::string::npos);
    EXPECT_NE(out.find("6.6"), std::string::npos);
}

// ------------------------------------------------------------- logging

TEST(Logging, PanicAndFatalThrowTypedErrors)
{
    EXPECT_THROW(panic("broken ", 42), PanicError);
    EXPECT_THROW(fatal("bad config ", 1.5), FatalError);
    try {
        panic("value=", 3, " end");
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: value=3 end");
    }
}

// --------------------------------------------------------------- debug

namespace debugtest
{
std::vector<std::string> captured;
void
capture(const std::string &line)
{
    captured.push_back(line);
}
} // namespace debugtest

TEST(Debug, FlagParsing)
{
    using namespace vmp::debug;
    EXPECT_EQ(parseFlags(""), 0u);
    EXPECT_EQ(parseFlags("Bus"), Bus);
    EXPECT_EQ(parseFlags("Bus,Proto"), Bus | Proto);
    EXPECT_EQ(parseFlags("all"), All);
    EXPECT_THROW(parseFlags("Bogus"), FatalError);
}

TEST(Debug, EnableDisableAndNames)
{
    using namespace vmp::debug;
    setFlags(0);
    EXPECT_FALSE(enabled(Vm));
    enable(Vm);
    EXPECT_TRUE(enabled(Vm));
    disable(Vm);
    EXPECT_FALSE(enabled(Vm));
    EXPECT_STREQ(flagName(Cache), "Cache");
    EXPECT_STREQ(flagName(Monitor), "Monitor");
    setFlags(0);
}

TEST(Debug, EmitFormatsTickFlagMessage)
{
    using namespace vmp::debug;
    debugtest::captured.clear();
    setSink(debugtest::capture);
    setFlags(Bus);
    VMP_DTRACE(Bus, Tick{1234}, "hello ", 42);
    VMP_DTRACE(Proto, Tick{99}, "suppressed");
    setFlags(0);
    setSink(nullptr);
    ASSERT_EQ(debugtest::captured.size(), 1u);
    EXPECT_EQ(debugtest::captured[0], "1234: Bus: hello 42");
}

// ------------------------------------------------ event queue stress

/**
 * Drive the queue with random schedules, heavy cancellation, many
 * same-tick ties, and events scheduled or cancelled from inside
 * dispatched callbacks (which reuse the slot the dispatch just freed).
 * @p initial_lanes lanes run beside the closures: closures schedule
 * them, their steps schedule and cancel closures and reschedule
 * themselves, and lanes are removed (pending or not) and
 * re-registered. Below @p max_lanes, closures and lane steps also
 * register new lanes, growing the winner tree while steps are
 * pending. Every dispatch is checked against a reference model: the
 * live set ordered by (tick, insertion order), lane steps included.
 * Ids grow with insertion, so (when, id) orders like (when, seq).
 */
void
laneStress(std::size_t initial_lanes, std::size_t max_lanes)
{
    SCOPED_TRACE(testing::Message() << initial_lanes << " to "
                                    << max_lanes << " lanes");
    Rng rng(2024);
    EventQueue eq;
    std::set<std::pair<Tick, int>> model;
    struct Planned
    {
        Tick when;
        EventId handle;
        bool live;
        /** A lane step (cancelled only by removeLane). */
        bool lane;
    };
    std::vector<Planned> planned;
    std::size_t fired = 0;
    std::size_t cancelled = 0;
    std::size_t laneFired = 0;
    std::size_t laneRemovedPending = 0;
    std::size_t grownWhilePending = 0;
    /** Limit of the run() in progress, maxTick outside one. */
    Tick limit = maxTick;

    struct Lane
    {
        std::uint32_t index;
        /** Planned id of the pending step, -1 when idle. */
        int pending;
        std::function<void(Lane &)> *body;
    };
    std::function<void(Lane &)> lane_body;
    std::vector<std::unique_ptr<Lane>> lanes;
    const auto check_queue = [&] {
        EXPECT_EQ(eq.pending(), model.size());
        const Tick first = model.empty() ? maxTick : model.begin()->first;
        EXPECT_EQ(eq.nextTick(), limit < first ? limit + 1 : first);
        EXPECT_EQ(eq.runLimit(), limit);
        // The queries the lookahead reads: the earliest closure, the
        // earliest lane step by (tick, seq) and each lane's own step.
        Tick heap_top = maxTick;
        int first_lane = -1;
        for (const auto &[when, id] : model) {
            if (!planned[static_cast<std::size_t>(id)].lane)
                heap_top = std::min(heap_top, when);
            else if (first_lane < 0)
                first_lane = id;
        }
        EXPECT_EQ(eq.heapTop(), heap_top);
        EXPECT_EQ(eq.firstLane().valid(), first_lane >= 0);
        if (first_lane >= 0) {
            EXPECT_EQ(eq.firstLane().when,
                      planned[static_cast<std::size_t>(first_lane)].when);
        }
        for (const auto &lane : lanes) {
            const EventId &step = eq.laneStep(lane->index);
            EXPECT_EQ(step.valid(), lane->pending >= 0);
            if (lane->pending >= 0) {
                EXPECT_EQ(step.when,
                          planned[static_cast<std::size_t>(lane->pending)]
                              .when);
            }
            if (first_lane >= 0 && lane->pending == first_lane) {
                EXPECT_EQ(eq.firstLane(), step);
            }
        }
    };
    // Expect the model's first entry to be dispatching now.
    const auto dispatch = [&](int id) {
        ASSERT_FALSE(model.empty());
        EXPECT_EQ(model.begin()->second, id);
        EXPECT_EQ(model.begin()->first, eq.now());
        model.erase(model.begin());
        planned[static_cast<std::size_t>(id)].live = false;
        ++fired;
    };

    const EventQueue::LaneFn lane_fn = [](void *ctx) {
        auto &lane = *static_cast<Lane *>(ctx);
        (*lane.body)(lane);
    };
    const auto add_lane = [&] {
        lanes.push_back(std::make_unique<Lane>(Lane{0, -1, &lane_body}));
        lanes.back()->index = eq.addLane(lane_fn, lanes.back().get());
        EXPECT_EQ(lanes.back()->index, lanes.size() - 1);
    };
    while (lanes.size() < initial_lanes)
        add_lane();
    const auto schedule_lane = [&](Lane &lane, Tick when) {
        const auto id = static_cast<int>(planned.size());
        planned.push_back({when, {}, true, true});
        eq.scheduleLane(lane.index, when);
        lane.pending = id;
        model.insert({when, id});
    };
    // Schedule a random idle lane, if any, within a few ticks of now.
    const auto kick_lane = [&] {
        Lane &lane = *lanes[rng.below(lanes.size())];
        if (lane.pending < 0)
            schedule_lane(lane, eq.now() + rng.below(3));
    };
    // Unregister a random lane, cancelling its step if one is
    // pending, and register it again: the freed index comes back.
    const auto replace_lane = [&] {
        Lane &lane = *lanes[rng.below(lanes.size())];
        if (lane.pending >= 0) {
            auto &p = planned[static_cast<std::size_t>(lane.pending)];
            model.erase({p.when, lane.pending});
            p.live = false;
            lane.pending = -1;
            ++cancelled;
            ++laneRemovedPending;
        }
        const std::uint32_t old = lane.index;
        eq.removeLane(old);
        lane.index = eq.addLane(lane_fn, &lane);
        EXPECT_EQ(lane.index, old);
        EXPECT_EQ(eq.laneCapacity(), lanes.size());
    };
    // With probability p, while below max_lanes, register one more
    // lane and schedule it. At max_lanes it draws no random number, so
    // a fixed-size run does not depend on the growth rates.
    const auto maybe_grow = [&](double p) {
        if (lanes.size() >= max_lanes || !rng.chance(p))
            return;
        for (const auto &lane : lanes)
            grownWhilePending += lane->pending >= 0 ? 1 : 0;
        add_lane();
        schedule_lane(*lanes.back(), eq.now() + rng.below(3));
    };

    // Cancel a live event, or (half the time) any event ever planned.
    // Lane steps are not EventIds, so picking one cancels nothing.
    const auto cancel_random = [&] {
        if (planned.empty())
            return;
        int id;
        if (!model.empty() && rng.chance(0.5)) {
            id = std::next(model.begin(),
                           static_cast<long>(rng.below(model.size())))
                     ->second;
        } else {
            id = static_cast<int>(rng.below(planned.size()));
        }
        auto &p = planned[static_cast<std::size_t>(id)];
        if (p.lane)
            return;
        // A copy, so the stored handle survives for repeat attempts:
        // already-dispatched and already-cancelled ids answer false.
        EventId handle = p.handle;
        EXPECT_EQ(eq.deschedule(handle), p.live) << id;
        EXPECT_FALSE(handle.valid());
        if (p.live) {
            p.live = false;
            model.erase({p.when, id});
            ++cancelled;
        }
    };
    std::function<void(Tick)> schedule_at = [&](Tick when) {
        const auto id = static_cast<int>(planned.size());
        planned.push_back({when, {}, true, false});
        planned.back().handle = eq.schedule(when, [&, id] {
            dispatch(id);
            if (rng.chance(0.3))
                schedule_at(eq.now() + rng.below(3));
            if (rng.chance(0.3))
                cancel_random();
            if (rng.chance(0.3))
                kick_lane();
            if (rng.chance(0.05))
                replace_lane();
            maybe_grow(0.01);
            check_queue();
        });
        model.insert({when, id});
    };
    lane_body = [&](Lane &lane) {
        dispatch(lane.pending);
        lane.pending = -1;
        ++laneFired;
        if (rng.chance(0.4))
            schedule_at(eq.now() + rng.below(3));
        if (rng.chance(0.3))
            cancel_random();
        // Ties with the closures just scheduled, and with other lanes.
        if (rng.chance(0.5))
            schedule_lane(lane, eq.now() + rng.below(3));
        maybe_grow(0.01);
        check_queue();
    };

    for (int round = 0; round < 3000; ++round) {
        // Half the events land within a few ticks of now: many ties.
        schedule_at(eq.now() +
                    (rng.chance(0.5) ? rng.below(4) : rng.below(1000)));
        while (rng.chance(0.6))
            cancel_random();
        if (rng.chance(0.3))
            kick_lane();
        if (rng.chance(0.05))
            replace_lane();
        maybe_grow(0.02);
        check_queue();
        if (rng.chance(0.2)) {
            limit = eq.now() + rng.below(300);
            eq.run(limit);
            EXPECT_EQ(eq.now(), limit);
            limit = maxTick;
        } else if (rng.chance(0.3)) {
            eq.step();
        }
        check_queue();
    }
    eq.run();
    check_queue();

    EXPECT_TRUE(model.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.dispatched(), fired);
    EXPECT_EQ(fired + cancelled, planned.size());
    EXPECT_GT(cancelled, planned.size() / 5);
    EXPECT_GT(laneFired, planned.size() / 10);
    EXPECT_GT(laneRemovedPending, 0u);
    EXPECT_EQ(eq.laneCapacity(), lanes.size());
    EXPECT_EQ(lanes.size(), max_lanes);
    if (max_lanes > initial_lanes) {
        EXPECT_GT(grownWhilePending, 0u);
    }
}

TEST(EventQueue, RandomizedStressAgainstReferenceModel)
{
    // Powers of two and their neighbours: the winner tree's leaves
    // are padded to a power of two, so 3, 5 and 17 lanes carry idle
    // padding leaves and 1 lane has no inner node at all.
    for (const std::size_t lanes : {1, 3, 4, 5, 16, 17})
        laneStress(lanes, lanes);
}

TEST(EventQueue, LanesRegisteredMidRunGrowTheTree)
{
    // From 3 lanes to 33 while steps are pending: the tree is rebuilt
    // at 5, 9, 17 and 33 lanes.
    laneStress(3, 33);
}

TEST(EventQueue, SchedulingPaddingLanePanics)
{
    // Three lanes occupy four leaves; the fourth is padding, not a
    // lane, and scheduling it panics like any unregistered index.
    EventQueue eq;
    const EventQueue::LaneFn nop = [](void *) {};
    for (int i = 0; i < 3; ++i)
        eq.addLane(nop, nullptr);
    EXPECT_EQ(eq.laneCapacity(), 3u);
    EXPECT_THROW(eq.scheduleLane(3, 0), PanicError);
    EXPECT_EQ(eq.pending(), 0u);
    eq.scheduleLane(2, 0);
    EXPECT_EQ(eq.nextTick(), 0u);
}

TEST(EventQueue, LaneContract)
{
    EventQueue eq;
    struct Ctx
    {
        EventQueue &eq;
        std::vector<Tick> steps;
    } ctx{eq, {}};
    const EventQueue::LaneFn record = [](void *p) {
        auto &c = *static_cast<Ctx *>(p);
        c.steps.push_back(c.eq.now());
    };
    const std::uint32_t lane = eq.addLane(record, &ctx);
    EXPECT_EQ(eq.laneCapacity(), 1u);

    // A pending lane counts in pending() and nextTick(), and may not
    // be scheduled again until its step has run.
    eq.scheduleLane(lane, 10);
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_EQ(eq.nextTick(), 10u);
    EXPECT_THROW(eq.scheduleLane(lane, 20), PanicError);
    eq.run();
    EXPECT_EQ(ctx.steps, (std::vector<Tick>{10}));
    EXPECT_EQ(eq.dispatched(), 1u);
    EXPECT_EQ(eq.pending(), 0u);

    // Scheduling in the past (or at maxTick) panics.
    EXPECT_THROW(eq.scheduleLane(lane, 9), PanicError);
    EXPECT_THROW(eq.scheduleLane(lane, maxTick), PanicError);

    // Same-tick ties dispatch in scheduling order, across the heap
    // and the lanes: each closure records how many lane steps ran
    // before it.
    std::vector<std::size_t> order;
    eq.schedule(20, [&] { order.push_back(ctx.steps.size()); });
    eq.scheduleLane(lane, 20);
    eq.schedule(20, [&] { order.push_back(ctx.steps.size()); });
    eq.run();
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(ctx.steps, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(eq.dispatched(), 4u);

    // removeLane cancels a pending step silently; removing an
    // unregistered index does nothing, scheduling one panics.
    eq.scheduleLane(lane, 30);
    EXPECT_NO_THROW(eq.removeLane(lane));
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.nextTick(), maxTick);
    eq.run();
    EXPECT_EQ(ctx.steps.size(), 2u);
    EXPECT_NO_THROW(eq.removeLane(lane));
    EXPECT_NO_THROW(eq.removeLane(lane + 7));
    EXPECT_THROW(eq.scheduleLane(lane, 40), PanicError);

    // A freed index is reused, so the registry does not grow.
    const std::uint32_t again = eq.addLane(record, &ctx);
    EXPECT_EQ(again, lane);
    EXPECT_EQ(eq.laneCapacity(), 1u);
    const std::uint32_t other = eq.addLane(record, &ctx);
    EXPECT_NE(other, again);
    EXPECT_EQ(eq.laneCapacity(), 2u);

    // reset() drops pending lane steps; registrations survive.
    eq.scheduleLane(again, 50);
    eq.scheduleLane(other, 60);
    eq.reset();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.nextTick(), maxTick);
    EXPECT_EQ(eq.dispatched(), 0u);
    eq.run();
    EXPECT_EQ(ctx.steps.size(), 2u);
    eq.scheduleLane(other, 5);
    eq.scheduleLane(again, 5);
    eq.run();
    EXPECT_EQ(ctx.steps, (std::vector<Tick>{10, 20, 5, 5}));
    EXPECT_EQ(eq.dispatched(), 2u);
}

TEST(EventQueue, SameTickTiesSurviveCancellation)
{
    // Cancelling entries between same-tick events (including the
    // one at the top) must not disturb the FIFO order of the rest.
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 8; ++i)
        ids.push_back(eq.schedule(50, [&order, i] { order.push_back(i); }));
    EXPECT_TRUE(eq.deschedule(ids[0]));
    EXPECT_TRUE(eq.deschedule(ids[3]));
    EXPECT_TRUE(eq.deschedule(ids[7]));
    EXPECT_EQ(eq.pending(), 5u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 6}));
    EXPECT_EQ(eq.dispatched(), 5u);
}

TEST(EventQueue, CallbackMayReuseItsOwnSlot)
{
    // The dispatched event's slot is free while its callback runs;
    // scheduling from inside reuses it without clobbering the
    // callback being executed.
    EventQueue eq;
    std::vector<Tick> seen;
    int calls = 0;
    std::function<void()> tick = [&] {
        ++calls;
        seen.push_back(eq.now());
        if (calls < 5)
            eq.scheduleIn(static_cast<Tick>(calls % 2), tick);
        seen.push_back(eq.now());
    };
    eq.schedule(10, tick);
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{10, 10, 11, 11, 11, 11, 12, 12,
                                        12, 12}));
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, NextTickAndQueriesContract)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextTick(), maxTick);
    EXPECT_EQ(eq.heapTop(), maxTick);
    EXPECT_EQ(eq.runLimit(), maxTick);
    EXPECT_FALSE(eq.firstLane().valid());

    EventId first = eq.schedule(100, [] {});
    eq.schedule(200, [] {});
    EXPECT_EQ(eq.nextTick(), 100u);
    EXPECT_EQ(eq.heapTop(), 100u);

    // Lane steps count in nextTick() and firstLane(), never in
    // heapTop(); laneStep() names each lane's own pending key.
    const EventQueue::LaneFn nop = [](void *) {};
    const std::uint32_t a = eq.addLane(nop, nullptr);
    const std::uint32_t b = eq.addLane(nop, nullptr);
    EXPECT_FALSE(eq.laneStep(a).valid());
    eq.scheduleLane(a, 150);
    eq.scheduleLane(b, 50);
    EXPECT_EQ(eq.laneStep(a).when, 150u);
    EXPECT_EQ(eq.laneStep(b).when, 50u);
    EXPECT_LT(eq.laneStep(a).seq, eq.laneStep(b).seq);
    EXPECT_EQ(eq.firstLane(), eq.laneStep(b));
    EXPECT_EQ(eq.nextTick(), 50u);
    EXPECT_EQ(eq.heapTop(), 100u);
    eq.removeLane(b);
    EXPECT_EQ(eq.firstLane(), eq.laneStep(a));
    eq.removeLane(a);
    EXPECT_FALSE(eq.firstLane().valid());

    // A cancelled event no longer bounds the window.
    EXPECT_TRUE(eq.deschedule(first));
    EXPECT_EQ(eq.nextTick(), 200u);
    EXPECT_EQ(eq.heapTop(), 200u);

    // Inside run(limit), the limit bounds it as well, and runLimit()
    // names it; outside, it is maxTick again.
    Tick inside = 0;
    Tick limit = 0;
    eq.schedule(120, [&] {
        inside = eq.nextTick();
        limit = eq.runLimit();
    });
    EXPECT_EQ(eq.run(150), 150u);
    EXPECT_EQ(inside, 151u);
    EXPECT_EQ(limit, 150u);
    EXPECT_EQ(eq.runLimit(), maxTick);
    EXPECT_EQ(eq.nextTick(), 200u);
    eq.run();
    EXPECT_EQ(eq.now(), 200u);
    EXPECT_EQ(eq.nextTick(), maxTick);
    EXPECT_EQ(eq.heapTop(), maxTick);
}

TEST(Logging, InformToggle)
{
    setInformEnabled(false);
    EXPECT_FALSE(informEnabled());
    setInformEnabled(true);
    EXPECT_TRUE(informEnabled());
}

// ------------------------------------------------------ rng boundaries

TEST(Rng, GeometricTinyProbabilityStaysBounded)
{
    // With p = 1e-12 the inverse-CDF value can be astronomically
    // large; the result must be clamped before the double -> uint64_t
    // cast (which is UB when the value exceeds 2^64 - 1) and every
    // draw must still be at least one trial.
    Rng rng(101);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.geometric(1e-12);
        EXPECT_GE(v, 1u);
    }
}

TEST(Rng, GeometricExtremeProbabilityClampsToMax)
{
    // p small enough that essentially every draw exceeds the uint64_t
    // range: the clamp must return max() rather than invoking UB.
    Rng rng(103);
    bool saw_clamp = false;
    for (int i = 0; i < 100; ++i) {
        const auto v = rng.geometric(1e-21);
        EXPECT_GE(v, 1u);
        if (v == std::numeric_limits<std::uint64_t>::max())
            saw_clamp = true;
    }
    EXPECT_TRUE(saw_clamp);
}

// ------------------------------------------------- histogram underflow

TEST(Stats, HistogramUnderflowCounterKeepsBucketsClean)
{
    Histogram h(4, 1.0);
    h.sample(-0.5);
    h.sample(-3.0, 2);
    h.sample(0.25);
    EXPECT_EQ(h.samples(), 4u);
    EXPECT_EQ(h.underflow(), 3u);
    // Negative samples must not be folded into bucket 0.
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[1], 0u);
    // Moments remain negative-aware.
    EXPECT_DOUBLE_EQ(h.min(), -3.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.25);
    EXPECT_NEAR(h.mean(), (-0.5 - 3.0 - 3.0 + 0.25) / 4.0, 1e-12);
    h.reset();
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.samples(), 0u);
}

TEST(Stats, HistogramPositivePathUnaffectedByUnderflowCounter)
{
    Histogram h(4, 2.0);
    h.sample(0.0);
    h.sample(1.99);
    h.sample(2.0);
    h.sample(100.0); // overflow -> top bucket
    EXPECT_EQ(h.underflow(), 0u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
}

// ------------------------------------------------------ json documents

TEST(Json, ScalarsAndAccessors)
{
    EXPECT_TRUE(Json().isNull());
    EXPECT_TRUE(Json(true).asBool());
    EXPECT_DOUBLE_EQ(Json(2.5).asNumber(), 2.5);
    EXPECT_EQ(Json(std::uint64_t{42}).asUint(), 42u);
    EXPECT_EQ(Json("hello").asString(), "hello");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    Json obj = Json::object();
    obj["zebra"] = Json(1);
    obj["alpha"] = Json(2);
    obj["mid"] = Json(3);
    const auto &members = obj.members();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0].first, "zebra");
    EXPECT_EQ(members[1].first, "alpha");
    EXPECT_EQ(members[2].first, "mid");
    EXPECT_EQ(obj.dump(0), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
}

TEST(Json, NumberRenderingIsDeterministic)
{
    // Exact integers print without fraction; non-integers round-trip.
    EXPECT_EQ(Json::numberToString(0.0), "0");
    EXPECT_EQ(Json::numberToString(42.0), "42");
    EXPECT_EQ(Json::numberToString(-7.0), "-7");
    EXPECT_EQ(Json(std::uint64_t{1} << 40).dump(0), "1099511627776");
    const std::string third = Json::numberToString(1.0 / 3.0);
    EXPECT_DOUBLE_EQ(std::stod(third), 1.0 / 3.0);
    const std::string tenth = Json::numberToString(0.1);
    EXPECT_DOUBLE_EQ(std::stod(tenth), 0.1);
}

TEST(Json, DumpParseRoundTrip)
{
    Json doc = Json::object();
    doc["name"] = Json("fig4 \"sweep\"\n");
    doc["count"] = Json(std::uint64_t{123456789});
    doc["ratio"] = Json(0.0024);
    doc["ok"] = Json(true);
    doc["none"] = Json();
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json("two"));
    arr.push(Json(false));
    doc["mixed"] = std::move(arr);

    for (const int indent : {0, 2, 4}) {
        const Json parsed = Json::parse(doc.dump(indent));
        EXPECT_EQ(parsed, doc) << "indent=" << indent;
    }
    // Round-tripping the dump again is byte-identical (stable writer).
    EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
}

TEST(Json, ParseHandlesEscapesAndNesting)
{
    const Json v = Json::parse(
        "{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\", \"a\": [[1, 2], "
        "{\"x\": -3.5e2}]}");
    EXPECT_EQ(v.get("s").asString(), "a\"b\\c\n\tA");
    EXPECT_DOUBLE_EQ(
        v.get("a").at(1).get("x").asNumber(), -350.0);
}

TEST(Json, ParseRejectsMalformedInput)
{
    EXPECT_THROW(Json::parse(""), FatalError);
    EXPECT_THROW(Json::parse("{\"a\": 1,}"), FatalError);
    EXPECT_THROW(Json::parse("[1, 2] trailing"), FatalError);
    EXPECT_THROW(Json::parse("{\"a\" 1}"), FatalError);
    EXPECT_THROW(Json::parse("\"unterminated"), FatalError);
    EXPECT_THROW(Json::parse("nul"), FatalError);
}

TEST(Json, TypeMismatchPanics)
{
    EXPECT_THROW(Json("str").asNumber(), PanicError);
    EXPECT_THROW(Json(1.0).asString(), PanicError);
    EXPECT_THROW(Json::object().get("missing"), PanicError);
    EXPECT_THROW(Json::array().at(0), PanicError);
}

// --------------------------------------------------- stats -> registry

TEST(Stats, StatGroupSerializesHistograms)
{
    Counter c;
    c += 11;
    Histogram h(4, 1.0);
    h.sample(0.5);
    h.sample(2.5);
    h.sample(-1.0);
    StatGroup g("bus");
    g.addCounter("transactions", "bus transactions", c);
    g.addHistogram("queue_delay_us", "queueing delay", h);

    const Json j = g.toJson();
    EXPECT_EQ(j.get("transactions").asUint(), 11u);
    const Json &hist = j.get("queue_delay_us");
    EXPECT_EQ(hist.get("samples").asUint(), 3u);
    EXPECT_EQ(hist.get("underflow").asUint(), 1u);
    EXPECT_DOUBLE_EQ(hist.get("bucket_width").asNumber(), 1.0);
    ASSERT_EQ(hist.get("buckets").size(), 4u);
    EXPECT_EQ(hist.get("buckets").at(0).asUint(), 1u);
    EXPECT_EQ(hist.get("buckets").at(2).asUint(), 1u);

    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("bus.queue_delay_us"), std::string::npos);
}

TEST(Stats, StatRegistryAggregatesGroups)
{
    Counter c0, c1;
    c0 += 1;
    c1 += 2;
    StatGroup g0("cpu0"), g1("cpu1");
    g0.addCounter("misses", "m", c0);
    g1.addCounter("misses", "m", c1);
    StatRegistry registry;
    registry.add(g0);
    registry.add(g1);
    EXPECT_EQ(registry.size(), 2u);
    const Json j = registry.toJson();
    EXPECT_EQ(j.get("cpu0").get("misses").asUint(), 1u);
    EXPECT_EQ(j.get("cpu1").get("misses").asUint(), 2u);

    StatGroup dup("cpu0");
    EXPECT_THROW(registry.add(dup), PanicError);
}

} // namespace
} // namespace vmp
