#include "analytic/models.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace vmp::analytic
{
namespace
{

/** Result of the exact MVA recursion for one closed single-queue
 *  network: response time R per visit and throughput X (visits/us). */
struct MvaPoint
{
    double r = 0.0;
    double x = 0.0;
};

/**
 * Exact MVA for n customers cycling between think time @p z and a
 * single queueing server with mean demand @p s (both in us).
 */
MvaPoint
mvaSolve(double s, double z, unsigned n)
{
    MvaPoint point;
    double queue = 0.0;
    point.r = s;
    for (unsigned i = 1; i <= n; ++i) {
        point.r = s * (1.0 + queue);
        point.x = static_cast<double>(i) / (z + point.r);
        queue = point.x * point.r;
    }
    return point;
}

/** References per microsecond at full speed. */
constexpr double kRefsPerUs = cpu::mips() * cpu::kRefsPerInstr;
/** Time per reference at full speed, in microseconds. */
constexpr double kRefUs = 1.0 / kRefsPerUs;

using Ibc = IbcCostModel;

} // namespace

void
BusLoadProfile::check() const
{
    if (missRatio < 0.0 || missRatio > 1.0)
        fatal("bus load profile: miss ratio must be in [0, 1]");
    if (upgradeFraction < 0.0 || upgradeFraction > 1.0)
        fatal("bus load profile: upgrade fraction must be in [0, 1]");
    if (writeBackRatio < 0.0 || writeBackRatio > 1.0)
        fatal("bus load profile: write-back ratio must be in [0, 1]");
}

MissCost
MissCostModel::perMiss(std::uint32_t page_bytes, bool victim_dirty)
{
    const double read_us = toUsec(mem::blockNs(page_bytes));
    const double wb_us =
        victim_dirty ? toUsec(mem::blockNs(page_bytes)) : 0.0;
    const double overlap_us = toUsec(proto::kOverlapNs);

    MissCost cost;
    // Software runs trapEntry, then kOverlapNs of bookkeeping
    // overlapped with the victim write-back, then the serial remainder,
    // then waits out the fill transfer (Section 5.1 / Table 1).
    cost.elapsedUs = toUsec(proto::kTrapEntryNs) +
        std::max(overlap_us, wb_us) + toUsec(proto::kPostNs) +
        read_us;
    cost.busUs = read_us + wb_us;
    return cost;
}

MissCost
MissCostModel::average(std::uint32_t page_bytes, double clean_fraction)
{
    if (clean_fraction < 0.0 || clean_fraction > 1.0)
        fatal("clean fraction must be in [0, 1]");
    const MissCost clean = perMiss(page_bytes, false);
    const MissCost dirty = perMiss(page_bytes, true);
    MissCost avg;
    avg.elapsedUs = clean_fraction * clean.elapsedUs +
        (1.0 - clean_fraction) * dirty.elapsedUs;
    avg.busUs = clean_fraction * clean.busUs +
        (1.0 - clean_fraction) * dirty.busUs;
    return avg;
}

double
PerfModel::performance(std::uint32_t page_bytes, double m,
                       double clean_fraction) const
{
    if (m < 0.0 || m > 1.0)
        fatal("miss ratio must be in [0, 1]");
    const double cost_us =
        MissCostModel::average(page_bytes, clean_fraction).elapsedUs;
    // mips() is instructions per microsecond.
    const double x = m * cpu::kRefsPerInstr * cpu::mips() * cost_us;
    return 1.0 / (1.0 + x);
}

double
PerfModel::missRatioFor(std::uint32_t page_bytes, double target,
                        double clean_fraction) const
{
    if (target <= 0.0 || target > 1.0)
        fatal("performance target must be in (0, 1]");
    const double cost_us =
        MissCostModel::average(page_bytes, clean_fraction).elapsedUs;
    return (1.0 / target - 1.0) /
        (cpu::kRefsPerInstr * cpu::mips() * cost_us);
}

double
BusModel::utilization(std::uint32_t page_bytes, double m,
                      double clean_fraction) const
{
    if (m < 0.0 || m > 1.0)
        fatal("miss ratio must be in [0, 1]");
    const MissCost avg = MissCostModel::average(page_bytes, clean_fraction);
    return (m * avg.busUs) / (kRefUs + m * avg.elapsedUs);
}

double
QueuingModel::offeredLoad(std::uint32_t page_bytes, double m,
                          unsigned n) const
{
    return static_cast<double>(n) *
        BusModel().utilization(page_bytes, m);
}

double
QueuingModel::perProcessorPerformance(std::uint32_t page_bytes,
                                      double m, unsigned n) const
{
    return predict(page_bytes, m, n).perProcessorPerformance;
}

QueuingModel::Prediction
QueuingModel::predict(std::uint32_t page_bytes, double m,
                      unsigned n) const
{
    if (n == 0)
        fatal("queuing model needs at least one processor");
    const MissCost avg = MissCostModel::average(page_bytes);
    const double s = avg.busUs; // bus service time per miss

    // Fixed point: queueing delay inflates per-miss time, which lowers
    // the offered rate, which lowers the delay. Iterate to
    // convergence; cap utilization below saturation. The cap keeps the
    // iterate finite when an intermediate rho reaches 1, but a capped
    // operating point is outside the open-arrival domain — that is
    // what the saturated flag reports.
    Prediction out;
    double wait_us = 0.0;
    double rho = 0.0;
    bool converged = false;
    for (int iter = 0; iter < 200; ++iter) {
        const double per_ref =
            kRefUs + m * (avg.elapsedUs + wait_us);
        const double lambda = m / per_ref; // misses per us, per CPU
        rho = std::min(static_cast<double>(n) * lambda * s, 0.999);
        // M/M/1 mean wait in queue.
        const double new_wait = rho * s / (1.0 - rho);
        if (std::abs(new_wait - wait_us) < 1e-9) {
            wait_us = new_wait;
            converged = true;
            break;
        }
        wait_us = 0.5 * (wait_us + new_wait);
    }

    const double per_ref = kRefUs + m * (avg.elapsedUs + wait_us);
    out.waitUs = wait_us;
    out.perProcessorPerformance = kRefUs / per_ref;
    out.systemThroughput =
        static_cast<double>(n) * out.perProcessorPerformance;
    out.domain.rho = rho;
    out.domain.converged = converged;
    out.domain.saturated = offeredLoad(page_bytes, m, n) >= 1.0;
    return out;
}

double
QueuingModel::systemThroughput(std::uint32_t page_bytes, double m,
                               unsigned n) const
{
    return static_cast<double>(n) *
        perProcessorPerformance(page_bytes, m, n);
}

unsigned
QueuingModel::maxProcessors(std::uint32_t page_bytes, double m,
                            double degradation_limit,
                            unsigned hard_cap) const
{
    const double solo = perProcessorPerformance(page_bytes, m, 1);
    unsigned best = 1;
    for (unsigned n = 1; n <= hard_cap; ++n) {
        const double perf =
            perProcessorPerformance(page_bytes, m, n);
        if (perf / solo < degradation_limit)
            break;
        best = n;
    }
    return best;
}

MvaModel::MvaModel(mem::Arbitration discipline,
                   unsigned priority_levels)
    : discipline_(discipline), priorityLevels_(priority_levels)
{
    mem::ArbitrationConfig cfg;
    cfg.discipline = discipline;
    cfg.priorityLevels = priority_levels;
    cfg.check();
}

double
MvaModel::serviceDemandUs(std::uint32_t page_bytes,
                          const BusLoadProfile &load) const
{
    load.check();
    const double read_us = toUsec(mem::blockNs(page_bytes));
    const double short_us = toUsec(mem::kShortTxNs);
    // A fill moves one page, an upgrade is one short AssertOwnership
    // transaction, and every victim write-back moves one page.
    return (1.0 - load.upgradeFraction) * read_us +
        load.writeBackRatio * read_us +
        load.upgradeFraction * short_us;
}

double
MvaModel::missElapsedUs(std::uint32_t page_bytes,
                        const BusLoadProfile &load) const
{
    load.check();
    const double fill = 1.0 - load.upgradeFraction;
    double fill_elapsed = 0.0;
    if (fill > 0.0) {
        // Table 1 splits fills by victim state; express the measured
        // write-back ratio as write-backs per fill.
        const double wb_per_fill =
            std::min(load.writeBackRatio / fill, 1.0);
        fill_elapsed = (1.0 - wb_per_fill) *
                MissCostModel::perMiss(page_bytes, false).elapsedUs +
            wb_per_fill * MissCostModel::perMiss(page_bytes, true).elapsedUs;
    }
    // An upgrade stays in the ownership-assertion fast path: no trap
    // handler, one short bus transaction.
    const double upgrade_elapsed =
        toUsec(proto::kOwnershipNs) +
        toUsec(mem::kShortTxNs);
    return fill * fill_elapsed +
        load.upgradeFraction * upgrade_elapsed;
}

MvaModel::Prediction
MvaModel::predict(std::uint32_t page_bytes,
                  const BusLoadProfile &load, unsigned n) const
{
    if (n == 0)
        fatal("MVA model needs at least one processor");
    load.check();
    const double m = load.missRatio;
    Prediction out;
    if (m <= 0.0) {
        out.systemThroughput = static_cast<double>(n);
        return out;
    }

    const double s = serviceDemandUs(page_bytes, load);
    const double elapsed = missElapsedUs(page_bytes, load);
    // Think time between bus visits: execution until the next miss
    // plus the non-bus part of servicing it.
    const double z = kRefUs / m + elapsed - s;
    const MvaPoint point = mvaSolve(s, z, n);

    out.waitUs = point.r - s;
    out.busUtilization = point.x * s;
    out.perProcessorPerformance = kRefUs / (m * (z + point.r));
    out.systemThroughput =
        static_cast<double>(n) * out.perProcessorPerformance;
    out.domain.rho = out.busUtilization;

    if (discipline_ == mem::Arbitration::Priority) {
        // Work conservation fixes the aggregate mean wait; split it
        // across bus-request levels with non-preemptive head-of-line
        // M/G/1 ratios: W_l ~ 1 / ((1 - H_l)(1 - H_l - rho_l)), H_l
        // the utilization of strictly higher levels. Both factors stay
        // positive because the closed network keeps rho < 1.
        const unsigned levels = priorityLevels_;
        std::vector<double> population(levels, 0.0);
        for (unsigned id = 0; id < n; ++id)
            population[id % levels] += 1.0;
        const double rho = out.busUtilization;
        std::vector<double> shape(levels, 0.0);
        double weighted = 0.0;
        double higher = 0.0;
        for (unsigned l = levels; l-- > 0;) {
            const double rho_l =
                rho * population[l] / static_cast<double>(n);
            shape[l] =
                1.0 / ((1.0 - higher) * (1.0 - higher - rho_l));
            weighted +=
                population[l] / static_cast<double>(n) * shape[l];
            higher += rho_l;
        }
        const double scale =
            weighted > 0.0 ? out.waitUs / weighted : 0.0;
        out.levelWaitUs.assign(levels, 0.0);
        out.levelPerformance.assign(levels, 0.0);
        for (unsigned l = 0; l < levels; ++l) {
            if (population[l] == 0.0)
                continue; // empty levels report zero
            out.levelWaitUs[l] = scale * shape[l];
            out.levelPerformance[l] =
                kRefUs / (m * (z + s + out.levelWaitUs[l]));
        }
    }
    return out;
}

double
MvaModel::perProcessorPerformance(std::uint32_t page_bytes,
                                  const BusLoadProfile &load,
                                  unsigned n) const
{
    return predict(page_bytes, load, n).perProcessorPerformance;
}

double
MvaModel::systemThroughput(std::uint32_t page_bytes,
                           const BusLoadProfile &load,
                           unsigned n) const
{
    return predict(page_bytes, load, n).systemThroughput;
}

double
MvaModel::busUtilization(std::uint32_t page_bytes,
                         const BusLoadProfile &load, unsigned n) const
{
    return predict(page_bytes, load, n).busUtilization;
}

HierQueuingModel::Equilibrium
HierQueuingModel::solve(std::uint32_t page_bytes, double m, double g,
                        unsigned clusters,
                        unsigned cpus_per_cluster) const
{
    if (clusters == 0 || cpus_per_cluster == 0)
        fatal("hier queuing model needs at least one cluster and CPU");
    if (g < 0.0 || g > 1.0)
        fatal("hier queuing model: g must be in [0, 1]");

    const MissCost avg = MissCostModel::average(page_bytes);
    const double n = static_cast<double>(cpus_per_cluster);
    const double kn = static_cast<double>(clusters) * n;
    /** Local/global bus occupancy per (thinned) miss. */
    const double s_l = avg.busUs;
    const double s_g = avg.busUs;
    /** Extra elapsed time of a cluster-level miss: the board's
     *  dispatch + global transfer + install, plus half a mean back-off
     *  for the local retry the aborted first attempt costs. */
    const double x_g = Ibc::serviceUs + s_g + Ibc::installUs +
        0.5 * Ibc::retryMeanUs;

    double wait_l = 0.0;
    double wait_g = 0.0;
    double rho_l = 0.0;
    double rho_g = 0.0;
    double per_ref = kRefUs;
    bool converged = false;
    for (int iter = 0; iter < 300; ++iter) {
        per_ref = kRefUs + m * (avg.elapsedUs + wait_l) +
            m * g * (x_g + wait_g);
        const double lambda = m / per_ref; // local misses/us, per CPU
        rho_l = std::min(n * lambda * s_l, 0.999);
        rho_g = std::min(kn * lambda * g * s_g, 0.999);
        const double new_wait_l = rho_l * s_l / (1.0 - rho_l);
        const double new_wait_g = rho_g * s_g / (1.0 - rho_g);
        if (std::abs(new_wait_l - wait_l) < 1e-9 &&
            std::abs(new_wait_g - wait_g) < 1e-9) {
            wait_l = new_wait_l;
            wait_g = new_wait_g;
            converged = true;
            break;
        }
        wait_l = 0.5 * (wait_l + new_wait_l);
        wait_g = 0.5 * (wait_g + new_wait_g);
    }

    Equilibrium eq;
    eq.perRefUs = kRefUs + m * (avg.elapsedUs + wait_l) +
        m * g * (x_g + wait_g);
    eq.rhoLocal = rho_l;
    eq.rhoGlobal = rho_g;
    eq.converged = converged;
    return eq;
}

double
HierQueuingModel::perProcessorPerformance(
    std::uint32_t page_bytes, double m, double g, unsigned clusters,
    unsigned cpus_per_cluster) const
{
    return kRefUs /
        solve(page_bytes, m, g, clusters, cpus_per_cluster).perRefUs;
}

double
HierQueuingModel::systemThroughput(std::uint32_t page_bytes, double m,
                                   double g, unsigned clusters,
                                   unsigned cpus_per_cluster) const
{
    return static_cast<double>(clusters) *
        static_cast<double>(cpus_per_cluster) *
        perProcessorPerformance(page_bytes, m, g, clusters,
                                cpus_per_cluster);
}

double
HierQueuingModel::refsPerSecond(std::uint32_t page_bytes, double m,
                                double g, unsigned clusters,
                                unsigned cpus_per_cluster) const
{
    return systemThroughput(page_bytes, m, g, clusters,
                            cpus_per_cluster) *
        kRefsPerUs * 1e6;
}

double
HierQueuingModel::localUtilization(std::uint32_t page_bytes, double m,
                                   double g, unsigned clusters,
                                   unsigned cpus_per_cluster) const
{
    return solve(page_bytes, m, g, clusters, cpus_per_cluster).rhoLocal;
}

double
HierQueuingModel::globalUtilization(std::uint32_t page_bytes, double m,
                                    double g, unsigned clusters,
                                    unsigned cpus_per_cluster) const
{
    return solve(page_bytes, m, g, clusters, cpus_per_cluster)
        .rhoGlobal;
}

HierQueuingModel::Prediction
HierQueuingModel::predict(std::uint32_t page_bytes, double m, double g,
                          unsigned clusters,
                          unsigned cpus_per_cluster) const
{
    const Equilibrium eq =
        solve(page_bytes, m, g, clusters, cpus_per_cluster);
    const double n = static_cast<double>(cpus_per_cluster);
    const double kn = static_cast<double>(clusters) * n;

    Prediction out;
    out.perProcessorPerformance = kRefUs / eq.perRefUs;
    out.systemThroughput = kn * out.perProcessorPerformance;
    out.rhoLocal = eq.rhoLocal;
    out.rhoGlobal = eq.rhoGlobal;

    // Offered loads at zero wait decide whether the open-arrival
    // assumption holds at all (mirrors QueuingModel::predict).
    const MissCost avg = MissCostModel::average(page_bytes);
    const double s_l = avg.busUs;
    const double s_g = avg.busUs;
    const double x_g = Ibc::serviceUs + s_g + Ibc::installUs +
        0.5 * Ibc::retryMeanUs;
    const double per_ref0 =
        kRefUs + m * avg.elapsedUs + m * g * x_g;
    const double lambda0 = m / per_ref0;
    out.saturatedLocal = n * lambda0 * s_l >= 1.0;
    out.saturatedGlobal = kn * lambda0 * g * s_g >= 1.0;
    out.domain.saturated = out.saturatedLocal || out.saturatedGlobal;
    out.domain.converged = eq.converged;
    out.domain.rho = std::max(eq.rhoLocal, eq.rhoGlobal);
    return out;
}

HierQueuingModel::MvaPrediction
HierQueuingModel::predictMva(std::uint32_t page_bytes,
                             const BusLoadProfile &load, double g,
                             unsigned clusters,
                             unsigned cpus_per_cluster) const
{
    if (clusters == 0 || cpus_per_cluster == 0)
        fatal("hier queuing model needs at least one cluster and CPU");
    if (g < 0.0 || g > 1.0)
        fatal("hier queuing model: g must be in [0, 1]");
    load.check();

    const double m = load.missRatio;
    const unsigned n = cpus_per_cluster;
    const unsigned kn = clusters * cpus_per_cluster;

    MvaPrediction out;
    if (m <= 0.0) {
        out.systemThroughput = static_cast<double>(kn);
        out.refsPerSecond = out.systemThroughput * kRefsPerUs *
            1e6;
        return out;
    }

    // Per-discipline service curves come from the flat MvaModel; the
    // coupling below uses the mean waits, which all disciplines share
    // for symmetric customers.
    const MvaModel local;
    const double s_l = local.serviceDemandUs(page_bytes, load);
    const double elapsed = local.missElapsedUs(page_bytes, load);
    /** Global transfers move whole pages regardless of the local
     *  upgrade mix — an upgrade resolves within its cluster. */
    const double s_g = toUsec(mem::blockNs(page_bytes));
    const double short_us = toUsec(mem::kShortTxNs);
    /** One full miss-handler pass: trap entry, bookkeeping (the
     *  victim is gone after the first pass, so only the overlapped
     *  part remains), serial remainder. Every retry of an aborted
     *  fill re-traps and re-runs all of it. */
    const double serial_sw = toUsec(proto::kTrapEntryNs) +
        toUsec(proto::kOverlapNs) +
        toUsec(proto::kPostNs);
    /** Board time from picking up a fetch word to the frame being
     *  usable, excluding queueing: dispatch, global round trip,
     *  install. The global wait term joins inside the iteration. */
    const double x_board0 = Ibc::serviceUs + s_g + Ibc::installUs;

    // Joint fixed point over three centers: the local bus (n CPU
    // customers), the inter-bus board (single server, n customers),
    // and the global bus (k board customers — each board serializes
    // its own global requests). A CPU rides out the board's work in
    // full miss-handler retry loops, so its per-global-miss delay is
    // the loop period times the expected loop count.
    double r_l = s_l;
    double w_g = 0.0;     // global bus queueing wait per transfer
    double w_ibc = 0.0;   // board queueing wait per request
    double rho_ibc = 0.0;
    double x_local = 0.0;
    double x_global = 0.0;
    double loops = g > 0.0 ? 1.0 : 0.0;
    bool converged = false;
    double z_l = 0.0;
    double d_l = s_l;
    for (int iter = 0; iter < 400; ++iter) {
        // CPU retry loop period: back-off, servicing the own aborted
        // word, the full handler pass, winning the local bus, the
        // aborted transaction itself.
        const double loop_us = Ibc::retryMeanUs + Ibc::serviceUs +
            serial_sw + (r_l - d_l) + short_us;
        // Time until the board has the frame ready, measured from the
        // aborted first attempt.
        const double t_ready =
            w_ibc + Ibc::serviceUs + w_g + s_g + Ibc::installUs;
        // Expected loops: attempt i lands near i * loop_us; waits
        // beyond the deterministic part decay like the board's
        // residual busy period (PASTA: a fraction rho_ibc of misses
        // arrive to a busy board).
        double new_loops = 0.0;
        if (g > 0.0) {
            const double t_det = t_ready - w_ibc;
            const double busy_mean =
                rho_ibc > 1e-9 ? w_ibc / rho_ibc : 0.0;
            new_loops = 1.0;
            for (int k = 1; k <= 8; ++k) {
                const double t_k = static_cast<double>(k) * loop_us;
                if (t_k <= t_det)
                    new_loops += 1.0;
                else if (busy_mean > 1e-9)
                    new_loops += rho_ibc *
                        std::exp(-(t_k - t_det) / busy_mean);
            }
        }
        loops = 0.5 * (loops + new_loops);

        // Local bus: the fill/upgrade demand plus the aborted retry
        // attempts of the global misses.
        d_l = s_l + g * loops * short_us;
        z_l = kRefUs / m + elapsed - s_l + g * loops * loop_us;
        const MvaPoint pl = mvaSolve(d_l, z_l, n);
        const double cycle = z_l + pl.r; // per-miss round trip

        double w_g_new = 0.0;
        double w_ibc_new = 0.0;
        double rho_ibc_new = 0.0;
        MvaPoint pg;
        if (g > 0.0) {
            // Inter-bus board: busy for the whole round trip of each
            // fetch plus the echo word of its own global transaction
            // and the spurious words the extra retry attempts queue.
            const double x_board = x_board0 + w_g +
                (1.0 + std::max(loops - 1.0, 0.0)) * Ibc::serviceUs;
            const double z_ibc =
                std::max(cycle / g - x_board, x_board);
            const MvaPoint pb = mvaSolve(x_board, z_ibc, n);
            w_ibc_new = pb.r - x_board;
            rho_ibc_new = pb.x * x_board;

            // Global bus: one customer per board.
            const double z_g = std::max(
                cycle / (static_cast<double>(n) * g) - (s_g + w_g),
                s_g);
            pg = mvaSolve(s_g, z_g, clusters);
            w_g_new = pg.r - s_g;
        }
        x_local = pl.x;
        x_global = pg.x;
        if (std::abs(pl.r - r_l) < 1e-9 &&
            std::abs(w_g_new - w_g) < 1e-9 &&
            std::abs(w_ibc_new - w_ibc) < 1e-9) {
            r_l = pl.r;
            w_g = w_g_new;
            w_ibc = w_ibc_new;
            rho_ibc = rho_ibc_new;
            converged = true;
            break;
        }
        r_l = 0.5 * (r_l + pl.r);
        w_g = 0.5 * (w_g + w_g_new);
        w_ibc = 0.5 * (w_ibc + w_ibc_new);
        rho_ibc = rho_ibc_new;
    }

    const double cycle = z_l + r_l;
    out.perProcessorPerformance = kRefUs / (m * cycle);
    out.systemThroughput =
        static_cast<double>(kn) * out.perProcessorPerformance;
    out.refsPerSecond =
        out.systemThroughput * kRefsPerUs * 1e6;
    out.localWaitUs = r_l - d_l;
    out.globalWaitUs = w_g;
    out.ibcWaitUs = w_ibc;
    out.rhoLocal = x_local * d_l;
    out.rhoGlobal = g > 0.0 ? x_global * s_g : 0.0;
    out.rhoIbc = rho_ibc;
    out.loopsPerGlobalMiss = loops;
    // The loop estimate is a mean-value approximation: attempt times
    // are compared against the *mean* board readiness time. Once the
    // queueing waits in the global path exceed its deterministic
    // service, the true loop count is governed by wait variance
    // (bursty sibling misses pile onto the single-server board), which
    // this analysis underestimates — flag the prediction out of
    // domain rather than report an optimistic number.
    const double t_det = Ibc::serviceUs + s_g + Ibc::installUs;
    out.retryCascade =
        g > 0.0 && (loops > 2.0 || w_ibc + w_g > t_det);
    out.domain.converged = converged;
    out.domain.rho = std::max(out.rhoLocal, out.rhoGlobal);
    return out;
}

} // namespace vmp::analytic
