/**
 * @file
 * Tests pinning the analytic models to the numbers printed in the
 * paper: Table 1 (elapsed/bus time per miss), Table 2 (75%-clean
 * averages), the Figure 3 example point (256 B pages, 0.24% miss ratio
 * -> ~87% performance), the Figure 5 example point (<0.6% miss ratio ->
 * <10% bus), and the Section 5.3 "about 5 processors" estimate.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "analytic/models.hh"
#include "proto/timing.hh"
#include "sim/logging.hh"

namespace vmp::analytic
{
namespace
{

// --------------------------------------------------------- Table 1

struct Table1Case
{
    std::uint32_t page;
    bool dirty;
    double elapsedUs; // paper value
    double busUs;     // paper value
};

class Table1Test : public ::testing::TestWithParam<Table1Case>
{
};

TEST_P(Table1Test, MatchesPaperWithinRounding)
{
    const auto &[page, dirty, elapsed_want, bus_want] = GetParam();
    MissCostModel model;
    const MissCost cost = model.perMiss(page, dirty);
    // The paper rounds to whole (elapsed) and tenth (bus)
    // microseconds; allow 0.6 us / 0.15 us of slack.
    EXPECT_NEAR(cost.elapsedUs, elapsed_want, 0.6) << page << dirty;
    EXPECT_NEAR(cost.busUs, bus_want, 0.25) << page << dirty;
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, Table1Test,
    ::testing::Values(Table1Case{128, false, 17.0, 3.5},
                      Table1Case{256, false, 20.0, 6.6},
                      Table1Case{512, false, 26.0, 13.0},
                      Table1Case{128, true, 17.0, 7.0},
                      Table1Case{256, true, 23.0, 13.2},
                      Table1Case{512, true, 36.0, 26.0}),
    [](const ::testing::TestParamInfo<Table1Case> &info) {
        return "p" + std::to_string(info.param.page) +
            (info.param.dirty ? "_dirty" : "_clean");
    });

TEST(MissCostModel, Table2Averages)
{
    MissCostModel model;
    const MissCost avg128 = model.average(128);
    EXPECT_NEAR(avg128.elapsedUs, 17.0, 0.5);
    EXPECT_NEAR(avg128.busUs, 4.4, 0.3);

    const MissCost avg256 = model.average(256);
    EXPECT_NEAR(avg256.elapsedUs, 21.29, 0.9);
    EXPECT_NEAR(avg256.busUs, 8.316, 0.4);
}

TEST(MissCostModel, DirtyCostsMoreAndGrowsWithPageSize)
{
    MissCostModel model;
    for (std::uint32_t page : {128u, 256u, 512u}) {
        EXPECT_GE(model.perMiss(page, true).elapsedUs,
                  model.perMiss(page, false).elapsedUs);
        EXPECT_DOUBLE_EQ(model.perMiss(page, true).busUs,
                         2 * model.perMiss(page, false).busUs);
    }
    EXPECT_LT(model.perMiss(128, false).busUs,
              model.perMiss(256, false).busUs);
    EXPECT_LT(model.perMiss(256, false).busUs,
              model.perMiss(512, false).busUs);
}

TEST(MissCostModel, CleanFractionValidation)
{
    MissCostModel model;
    EXPECT_THROW(model.average(256, -0.1), FatalError);
    EXPECT_THROW(model.average(256, 1.1), FatalError);
    // Extremes equal the pure cases.
    EXPECT_DOUBLE_EQ(model.average(256, 1.0).busUs,
                     model.perMiss(256, false).busUs);
    EXPECT_DOUBLE_EQ(model.average(256, 0.0).busUs,
                     model.perMiss(256, true).busUs);
}

// --------------------------------------------------------- Figure 3

TEST(PerfModel, PaperExamplePoint)
{
    // "using a 256 byte cache page size and 128 kilobyte total cache
    // size, one would expect a miss ratio of 0.24 [percent] giving
    // processor performance of 87%".
    PerfModel model;
    EXPECT_NEAR(model.performance(256, 0.0024), 0.87, 0.01);
}

TEST(PerfModel, BoundaryValues)
{
    PerfModel model;
    EXPECT_DOUBLE_EQ(model.performance(256, 0.0), 1.0);
    EXPECT_LT(model.performance(256, 1.0), 0.02);
    EXPECT_THROW(model.performance(256, -0.1), FatalError);
    EXPECT_THROW(model.performance(256, 1.5), FatalError);
}

TEST(PerfModel, MonotonicallyDecreasingInMissRatio)
{
    PerfModel model;
    double last = 1.1;
    for (double m = 0.0; m <= 0.02; m += 0.002) {
        const double perf = model.performance(256, m);
        EXPECT_LT(perf, last);
        last = perf;
    }
}

TEST(PerfModel, LargerPagesCostMorePerMiss)
{
    PerfModel model;
    // At the *same* miss ratio, larger pages perform worse (the paper
    // notes the curves cannot be used to compare page sizes directly
    // because the miss ratio itself depends on page size).
    const double m = 0.005;
    EXPECT_GT(model.performance(128, m), model.performance(256, m));
    EXPECT_GT(model.performance(256, m), model.performance(512, m));
}

TEST(PerfModel, MissRatioForInvertsPerformance)
{
    PerfModel model;
    const double m = model.missRatioFor(256, 0.87);
    EXPECT_NEAR(model.performance(256, m), 0.87, 1e-9);
    EXPECT_NEAR(m, 0.0024, 0.0004);
    EXPECT_THROW(model.missRatioFor(256, 0.0), FatalError);
}

// --------------------------------------------------------- Figure 5

TEST(BusModel, PaperExamplePoint)
{
    // "for a 256 byte cache page size, with a miss ratio under 0.6%,
    // the bus utilization by a single processor is under 10%".
    BusModel model;
    EXPECT_LT(model.utilization(256, 0.006), 0.11);
    EXPECT_GT(model.utilization(256, 0.006), 0.08);
}

TEST(BusModel, ZeroMissesZeroUtilization)
{
    BusModel model;
    EXPECT_DOUBLE_EQ(model.utilization(256, 0.0), 0.0);
    EXPECT_THROW(model.utilization(256, -0.1), FatalError);
}

TEST(BusModel, IncreasingInMissRatio)
{
    BusModel model;
    double last = -1.0;
    for (double m = 0.0; m <= 0.02; m += 0.002) {
        const double util = model.utilization(512, m);
        EXPECT_GT(util, last);
        last = util;
    }
    // Utilization saturates below 1.
    EXPECT_LT(model.utilization(512, 1.0), 1.0);
}

// ------------------------------------------------------- Section 5.3

TEST(QueuingModel, AboutFiveProcessorsFitOnTheBus)
{
    // With 256-byte pages and the paper's ~10%-bus operating point,
    // roughly five processors fit before contention bites.
    QueuingModel model;
    const unsigned n = model.maxProcessors(256, 0.006, 0.9);
    EXPECT_GE(n, 4u);
    EXPECT_LE(n, 6u);
}

TEST(QueuingModel, PerformanceDegradesWithProcessors)
{
    QueuingModel model;
    double last = 2.0;
    for (unsigned n = 1; n <= 12; ++n) {
        const double perf = model.perProcessorPerformance(256, 0.006, n);
        EXPECT_LT(perf, last);
        EXPECT_GT(perf, 0.0);
        last = perf;
    }
    EXPECT_THROW(model.perProcessorPerformance(256, 0.006, 0),
                 FatalError);
}

TEST(QueuingModel, ThroughputSaturates)
{
    QueuingModel model;
    // Adding processors beyond saturation yields diminishing
    // aggregate throughput gains.
    const double t4 = model.systemThroughput(256, 0.01, 4);
    const double t8 = model.systemThroughput(256, 0.01, 8);
    const double t16 = model.systemThroughput(256, 0.01, 16);
    EXPECT_GT(t8, t4 * 0.9);
    EXPECT_LT(t16 - t8, t8 - t4 + 1.0);
}

TEST(QueuingModel, OfferedLoadIsLinear)
{
    QueuingModel model;
    const double one = model.offeredLoad(256, 0.004, 1);
    EXPECT_NEAR(model.offeredLoad(256, 0.004, 5), 5 * one, 1e-12);
}

TEST(QueuingModel, LowerMissRatioAllowsMoreProcessors)
{
    QueuingModel model;
    EXPECT_GE(model.maxProcessors(256, 0.002, 0.9),
              model.maxProcessors(256, 0.01, 0.9));
}

// ------------------------------------------------- Hierarchy (2-level)

TEST(HierQueuingModel, OneClusterNoGlobalTrafficMatchesFlatModel)
{
    // With one cluster and g = 0 the global-bus terms vanish and the
    // fixed-point equations reduce to the flat Section 5.3 model.
    QueuingModel flat;
    HierQueuingModel hier;
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        EXPECT_NEAR(hier.perProcessorPerformance(256, 0.006, 0.0, 1, n),
                    flat.perProcessorPerformance(256, 0.006, n), 1e-6)
            << "n=" << n;
    }
}

TEST(HierQueuingModel, HierarchyBeatsFlatBusAtSixteenCpus)
{
    // The whole point of the cluster hierarchy: 16 CPUs on one bus
    // saturate; 4 clusters of 4 with mostly-local misses do not. At
    // m = 1% the single VMEbus is deep into its M/M/1 knee.
    QueuingModel flat;
    HierQueuingModel hier;
    const double m = 0.01;
    const double flat16 = flat.systemThroughput(256, m, 16);
    const double hier16 = hier.systemThroughput(256, m, 0.05, 4, 4);
    EXPECT_GT(hier16, 2.0 * flat16);
}

TEST(HierQueuingModel, MoreGlobalTrafficHurts)
{
    HierQueuingModel hier;
    double last = 2.0;
    for (double g : {0.0, 0.1, 0.3, 0.6, 1.0}) {
        const double perf =
            hier.perProcessorPerformance(256, 0.006, g, 4, 4);
        EXPECT_LT(perf, last) << "g=" << g;
        EXPECT_GT(perf, 0.0);
        last = perf;
    }
}

TEST(HierQueuingModel, UtilizationsAreSaneAndGrowWithLoad)
{
    HierQueuingModel hier;
    const double rho_g_lo = hier.globalUtilization(256, 0.004, 0.05, 4, 4);
    const double rho_g_hi = hier.globalUtilization(256, 0.004, 0.5, 4, 4);
    EXPECT_GE(rho_g_lo, 0.0);
    EXPECT_LT(rho_g_hi, 1.0);
    EXPECT_GT(rho_g_hi, rho_g_lo);

    const double rho_l = hier.localUtilization(256, 0.006, 0.05, 4, 4);
    EXPECT_GT(rho_l, 0.0);
    EXPECT_LT(rho_l, 1.0);
    // g = 0 keeps the global bus idle.
    EXPECT_NEAR(hier.globalUtilization(256, 0.006, 0.0, 4, 4), 0.0,
                1e-12);
}

TEST(HierQueuingModel, RejectsBadShapes)
{
    HierQueuingModel hier;
    EXPECT_THROW(hier.perProcessorPerformance(256, 0.006, 0.1, 0, 4),
                 FatalError);
    EXPECT_THROW(hier.perProcessorPerformance(256, 0.006, 0.1, 4, 0),
                 FatalError);
    EXPECT_THROW(hier.perProcessorPerformance(256, 0.006, 1.5, 4, 4),
                 FatalError);
}

TEST(HierQueuingModel, RefsPerSecondScalesWithThroughput)
{
    HierQueuingModel hier;
    const double tput = hier.systemThroughput(256, 0.006, 0.05, 4, 4);
    const double full_refs_per_s = cpu::mips() * cpu::kRefsPerInstr * 1e6;
    EXPECT_NEAR(hier.refsPerSecond(256, 0.006, 0.05, 4, 4),
                tput * full_refs_per_s, 1.0);
}

TEST(IbcCostModel, MatchesTheSimulatorsInterBusBoardCosts)
{
    // The model's inter-bus board budget is the simulator's: the
    // service quantum, the board's install charge, and the mean of the
    // jittered retry back-off (base + uniform[0, jitter]).
    EXPECT_DOUBLE_EQ(IbcCostModel::serviceUs,
                     static_cast<double>(proto::kServiceNs) / 1e3);
    EXPECT_DOUBLE_EQ(IbcCostModel::installUs,
                     static_cast<double>(proto::kInstallNs) / 1e3);
    EXPECT_DOUBLE_EQ(IbcCostModel::retryMeanUs,
                     static_cast<double>(proto::kRetryNs +
                                         proto::kRetryJitterNs / 2) /
                         1e3);
    EXPECT_DOUBLE_EQ(IbcCostModel::serviceUs, 3.0);
    EXPECT_DOUBLE_EQ(IbcCostModel::installUs, 2.0);
    EXPECT_DOUBLE_EQ(IbcCostModel::retryMeanUs, 7.0);
}

// ------------------------------------------------ Open-model domain

TEST(QueuingModel, PredictMatchesScalarApiAndFlagsSaturation)
{
    QueuingModel model;
    // In-domain point: the prediction is the scalar API's number.
    const auto light = model.predict(256, 0.002, 2);
    EXPECT_FALSE(light.domain.saturated);
    EXPECT_TRUE(light.domain.inDomain());
    EXPECT_DOUBLE_EQ(light.perProcessorPerformance,
                     model.perProcessorPerformance(256, 0.002, 2));
    // Sixteen 1%-miss processors offer more work than one VMEbus
    // serves: the open-arrival assumption is broken and the clamped
    // answer must say so instead of being silently returned.
    const auto heavy = model.predict(256, 0.01, 16);
    EXPECT_TRUE(heavy.domain.saturated);
    EXPECT_FALSE(heavy.domain.inDomain());
    EXPECT_GE(model.offeredLoad(256, 0.01, 16), 1.0);
    // Saturated or not, the clamped number stays finite and positive.
    EXPECT_GT(heavy.perProcessorPerformance, 0.0);
    EXPECT_LT(heavy.perProcessorPerformance,
              light.perProcessorPerformance);
}

// --------------------------------------------------- MVA (flat bus)

TEST(MvaModel, SingleCustomerNeverQueues)
{
    MvaModel mva;
    BusLoadProfile load;
    load.missRatio = 0.01;
    const auto p = mva.predict(256, load, 1);
    EXPECT_NEAR(p.waitUs, 0.0, 1e-12);
    EXPECT_LT(p.busUtilization, 1.0);
    EXPECT_TRUE(p.domain.inDomain());
}

TEST(MvaModel, LightLoadReducesToOpenEstimate)
{
    // With the bus nearly idle both models see (almost) no queueing,
    // so the closed MVA network and the open M/M/1 estimate agree.
    MvaModel mva;
    QueuingModel open;
    BusLoadProfile load;
    load.missRatio = 0.0004;
    for (unsigned n : {1u, 2u, 4u}) {
        const auto closed_p = mva.predict(256, load, n);
        const auto open_p = open.predict(256, load.missRatio, n);
        EXPECT_TRUE(open_p.domain.inDomain());
        EXPECT_NEAR(closed_p.perProcessorPerformance,
                    open_p.perProcessorPerformance, 0.002)
            << "n=" << n;
        // The open estimate counts a customer's own load in rho, so it
        // overestimates the wait by that self-term (visible at n = 1,
        // where the closed network correctly predicts zero wait).
        EXPECT_LE(closed_p.waitUs, open_p.waitUs + 1e-12) << "n=" << n;
        EXPECT_LT(open_p.waitUs, 0.5) << "n=" << n;
    }
}

TEST(MvaModel, StaysInDomainWhereOpenModelSaturates)
{
    // The closed network has no saturation limit: a full bus throttles
    // the miss rate, exactly like the simulated system. Utilization
    // approaches (but never exceeds) 1 and throughput levels off.
    MvaModel mva;
    QueuingModel open;
    BusLoadProfile load;
    load.missRatio = 0.01;
    EXPECT_TRUE(open.predict(256, load.missRatio, 16).domain.saturated);
    const auto p16 = mva.predict(256, load, 16);
    const auto p32 = mva.predict(256, load, 32);
    EXPECT_TRUE(p16.domain.inDomain());
    EXPECT_TRUE(p32.domain.inDomain());
    EXPECT_LE(p16.busUtilization, 1.0);
    EXPECT_LE(p32.busUtilization, 1.0);
    EXPECT_GT(p16.busUtilization, 0.9);
    // Doubling the processors on a full bus cannot double throughput.
    EXPECT_LT(p32.systemThroughput, 1.1 * p16.systemThroughput);
    EXPECT_GE(p32.systemThroughput, 0.99 * p16.systemThroughput);
}

TEST(MvaModel, UpgradesAreCheaperThanFetches)
{
    // An ownership upgrade occupies the bus for one short transaction
    // instead of a block transfer, so a heavier upgrade mix lowers the
    // per-miss bus demand and raises performance.
    MvaModel mva;
    BusLoadProfile fetch_heavy;
    fetch_heavy.missRatio = 0.01;
    fetch_heavy.upgradeFraction = 0.0;
    BusLoadProfile upgrade_heavy = fetch_heavy;
    upgrade_heavy.upgradeFraction = 0.5;
    EXPECT_LT(mva.serviceDemandUs(256, upgrade_heavy),
              mva.serviceDemandUs(256, fetch_heavy));
    EXPECT_GT(mva.perProcessorPerformance(256, upgrade_heavy, 8),
              mva.perProcessorPerformance(256, fetch_heavy, 8));
}

TEST(MvaModel, PriorityWaitSplitConservesAggregateMean)
{
    // Arbitration cannot create or destroy bus work: the per-level
    // HOL waits, weighted by level population, must average back to
    // the discipline-independent mean.
    const unsigned n = 8, levels = 4;
    MvaModel mva(mem::Arbitration::Priority, levels);
    BusLoadProfile load;
    load.missRatio = 0.008;
    const auto p = mva.predict(256, load, n);
    ASSERT_EQ(p.levelWaitUs.size(), levels);
    ASSERT_EQ(p.levelPerformance.size(), levels);
    double weighted = 0.0;
    for (unsigned l = 0; l < levels; ++l) {
        const double pop = static_cast<double>(n / levels);
        weighted += pop / n * p.levelWaitUs[l];
        EXPECT_GT(p.levelWaitUs[l], 0.0);
        EXPECT_GT(p.levelPerformance[l], 0.0);
    }
    EXPECT_NEAR(weighted, p.waitUs, 1e-9);
    // Higher bus-request level = higher priority = shorter wait.
    for (unsigned l = 1; l < levels; ++l)
        EXPECT_LT(p.levelWaitUs[l], p.levelWaitUs[l - 1]) << l;
    // FIFO and round-robin report the uniform mean only.
    MvaModel rr(mem::Arbitration::RoundRobin);
    EXPECT_TRUE(rr.predict(256, load, n).levelWaitUs.empty());
}

// ---------------------------------------------- MVA (two-level)

TEST(HierQueuingModel, PredictMvaReducesToFlatMva)
{
    // One cluster, no global traffic: the board and global-bus centers
    // idle and the three-center fixed point must reproduce the flat
    // closed model exactly, not merely approximately.
    HierQueuingModel hier;
    MvaModel flat;
    BusLoadProfile load;
    load.missRatio = 0.01;
    load.upgradeFraction = 0.2;
    load.writeBackRatio = 0.2;
    for (unsigned n : {1u, 4u, 8u}) {
        const auto h = hier.predictMva(256, load, 0.0, 1, n);
        const auto f = flat.predict(256, load, n);
        EXPECT_NEAR(h.perProcessorPerformance,
                    f.perProcessorPerformance, 1e-9)
            << "n=" << n;
        EXPECT_NEAR(h.localWaitUs, f.waitUs, 1e-9) << "n=" << n;
        EXPECT_NEAR(h.globalWaitUs, 0.0, 1e-12);
        EXPECT_NEAR(h.ibcWaitUs, 0.0, 1e-12);
        EXPECT_FALSE(h.retryCascade);
        EXPECT_TRUE(h.domain.converged);
    }
}

TEST(HierQueuingModel, PredictMvaGlobalTrafficHurts)
{
    HierQueuingModel hier;
    BusLoadProfile load;
    load.missRatio = 0.02;
    load.upgradeFraction = 0.18;
    load.writeBackRatio = 0.15;
    double last = 2.0;
    for (double g : {0.0, 0.05, 0.1, 0.2}) {
        const auto p = hier.predictMva(256, load, g, 4, 2);
        EXPECT_LT(p.perProcessorPerformance, last) << "g=" << g;
        EXPECT_GT(p.perProcessorPerformance, 0.0) << "g=" << g;
        EXPECT_TRUE(p.domain.converged) << "g=" << g;
        last = p.perProcessorPerformance;
    }
}

TEST(HierQueuingModel, PredictMvaFlagsRetryCascade)
{
    // The bench_hier operating points: light hierarchies stay in the
    // single-retry regime; the 32-CPU 8x4 cell drives the single-
    // server inter-bus boards into the retry cascade the mean-value
    // loop estimate cannot follow, and must be flagged out-of-domain.
    HierQueuingModel hier;
    BusLoadProfile load;
    load.missRatio = 0.0196;
    load.upgradeFraction = 0.1794;
    load.writeBackRatio = 0.15;
    const auto light = hier.predictMva(256, load, 0.1768, 2, 2);
    EXPECT_FALSE(light.retryCascade);
    EXPECT_TRUE(light.domain.converged);
    EXPECT_GE(light.loopsPerGlobalMiss, 1.0);

    load.missRatio = 0.0207;
    load.upgradeFraction = 0.1812;
    const auto heavy = hier.predictMva(256, load, 0.1664, 8, 4);
    EXPECT_TRUE(heavy.retryCascade);
    EXPECT_TRUE(heavy.domain.converged);
    EXPECT_GT(heavy.loopsPerGlobalMiss, light.loopsPerGlobalMiss);
}

} // namespace
} // namespace vmp::analytic
