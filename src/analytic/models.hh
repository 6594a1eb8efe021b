/**
 * @file
 * Closed-form performance models from Section 5 of the paper:
 *
 *  - MissCostModel: elapsed and bus time per cache miss (Table 1) and
 *    the 75%-clean-victim averages (Table 2);
 *  - PerfModel: processor performance as a function of miss ratio
 *    (Figure 3), normalized to 1 at zero misses;
 *  - BusModel: per-processor bus utilization as a function of miss
 *    ratio (Figure 5);
 *  - QueuingModel: the single-server (bus) multiple-client (CPUs)
 *    queueing estimate behind the "up to 5 processors" claim
 *    (Section 5.3);
 *  - MvaModel: exact Mean Value Analysis of the closed machine-
 *    repairman network (n CPUs cycling between think time and one
 *    shared bus), which stays accurate where the open M/M/1 estimate
 *    saturates, with per-arbitration-discipline wait curves;
 *  - HierQueuingModel: the two-level (local + global bus) extension of
 *    both the open estimate and the MVA model.
 */

#ifndef VMP_ANALYTIC_MODELS_HH
#define VMP_ANALYTIC_MODELS_HH

#include <cstdint>
#include <vector>

#include "cpu/timing.hh"
#include "mem/vme_bus.hh"
#include "proto/timing.hh"
#include "sim/types.hh"

namespace vmp::analytic
{

/**
 * Where a model prediction stands relative to its own assumptions.
 * The open M/M/1 estimate sets saturated once the *offered* load
 * (zero-wait arrival rate times service time) reaches the bus
 * capacity: beyond that point the open-arrival assumption is broken
 * and the clamped fixed point, while finite, systematically
 * underpredicts a closed system. The MVA model has no such limit and
 * only reports convergence of its (hierarchical) fixed point.
 */
struct ModelDomain
{
    /** Model assumptions violated at this operating point. */
    bool saturated = false;
    /** Fixed-point iteration reached its tolerance. */
    bool converged = true;
    /** Equilibrium bus utilization (the binding bus, if two). */
    double rho = 0.0;

    bool inDomain() const { return !saturated && converged; }
};

/**
 * Measured bus-load shape of a workload, the inputs the queueing
 * models need beyond the raw miss ratio. The paper's closed-form
 * curves assume every miss moves a page and 75% of victims are clean;
 * real runs also take AssertOwnership (upgrade) misses that occupy
 * the bus for one short transaction instead of a block transfer, and
 * their victim mix differs. Feed the measured shape in to keep the
 * model honest; default-constructed values reproduce the paper's
 * assumptions.
 */
struct BusLoadProfile
{
    /** Cache misses per CPU memory reference. */
    double missRatio = 0.0;
    /**
     * Fraction of misses that are ownership upgrades (hit-but-not-
     * owned): one AssertOwnership short transaction, no block
     * transfer, no trap-handler fill path.
     */
    double upgradeFraction = 0.0;
    /** Victim write-backs per miss (= (1 - clean_fraction) when every
     *  miss replaces a page). */
    double writeBackRatio = 0.25;

    void check() const;
};

/** Per-miss elapsed and bus time, in microseconds. */
struct MissCost
{
    double elapsedUs = 0.0;
    double busUs = 0.0;
};

/**
 * Table 1/2 calculator: combines the software instruction budget with
 * the block-transfer timing.
 */
class MissCostModel
{
  public:
    MissCostModel(const proto::SoftwareTiming &software = {},
                  const mem::BusTiming &bus = {});

    /** Table 1 entry for one page size and victim state. */
    MissCost perMiss(std::uint32_t page_bytes, bool victim_dirty) const;

    /**
     * Table 2 entry: average cost with @p clean_fraction of replaced
     * pages unmodified (the paper assumes 0.75).
     */
    MissCost average(std::uint32_t page_bytes,
                     double clean_fraction = 0.75) const;

    const proto::SoftwareTiming &software() const { return software_; }
    const mem::BusTiming &bus() const { return bus_; }

  private:
    proto::SoftwareTiming software_;
    mem::BusTiming bus_;
};

/**
 * Figure 3: processor performance vs miss ratio.
 *
 *   perf(m) = 1 / (1 + m * refsPerInstr * instrRate * missCost)
 *
 * with missCost the Table 2 average elapsed time. At the paper's
 * example point (256-byte pages, m = 0.24%) this gives ~87%.
 */
class PerfModel
{
  public:
    PerfModel(const MissCostModel &costs = MissCostModel{},
              const cpu::M68020Timing &timing = {});

    /** Normalized performance at miss ratio @p m for @p page_bytes. */
    double performance(std::uint32_t page_bytes, double m,
                       double clean_fraction = 0.75) const;

    /** Miss ratio that degrades performance to @p target. */
    double missRatioFor(std::uint32_t page_bytes, double target,
                        double clean_fraction = 0.75) const;

  private:
    MissCostModel costs_;
    cpu::M68020Timing timing_;
};

/**
 * Figure 5: single-processor bus utilization vs miss ratio.
 *
 *   util(m) = m * busTime / (1/(instrRate*refsPerInstr)
 *                            + m * elapsedTime)
 */
class BusModel
{
  public:
    BusModel(const MissCostModel &costs = MissCostModel{},
             const cpu::M68020Timing &timing = {});

    double utilization(std::uint32_t page_bytes, double m,
                       double clean_fraction = 0.75) const;

  private:
    MissCostModel costs_;
    cpu::M68020Timing timing_;
};

/**
 * Section 5.3: M/M/1-style shared-bus congestion estimate. Each of n
 * processors offers bus work at rate lambda (misses/sec) with mean
 * service time s (bus time per miss); waiting inflates the effective
 * miss cost and thus degrades per-processor performance.
 */
class QueuingModel
{
  public:
    QueuingModel(const MissCostModel &costs = MissCostModel{},
                 const cpu::M68020Timing &timing = {});

    /** Aggregate offered bus utilization of n processors. */
    double offeredLoad(std::uint32_t page_bytes, double m,
                       unsigned n) const;

    /**
     * Expected per-processor performance with n processors sharing
     * the bus (M/M/1 waiting time added to each miss).
     */
    double perProcessorPerformance(std::uint32_t page_bytes, double m,
                                   unsigned n) const;

    /** Aggregate throughput in units of single-processor full speed. */
    double systemThroughput(std::uint32_t page_bytes, double m,
                            unsigned n) const;

    /**
     * Largest n whose per-processor performance stays above
     * @p degradation_limit of the 1-processor value. The paper's
     * parameters give about 5.
     */
    unsigned maxProcessors(std::uint32_t page_bytes, double m,
                           double degradation_limit = 0.9,
                           unsigned hard_cap = 64) const;

    /** perProcessorPerformance plus the domain flags. */
    struct Prediction
    {
        double perProcessorPerformance = 1.0;
        double systemThroughput = 0.0;
        /** Equilibrium mean queueing wait per bus visit (us). */
        double waitUs = 0.0;
        ModelDomain domain;
    };

    /**
     * The same clamped fixed point as perProcessorPerformance — the
     * numbers are identical — but with the in-domain/saturated status
     * surfaced instead of silently returning a clamped answer.
     */
    Prediction predict(std::uint32_t page_bytes, double m,
                       unsigned n) const;

  private:
    MissCostModel costs_;
    cpu::M68020Timing timing_;
};

/**
 * Closed-network Mean Value Analysis of the shared bus: n customers
 * (CPUs) alternate between a think period Z (execution plus the
 * non-bus part of miss handling) and a visit to the single bus server
 * with mean demand s per miss. The exact MVA recursion
 *
 *   Q = 0; for i = 1..n { R = s * (1 + Q); X = i / (Z + R); Q = X R; }
 *
 * yields the response time R and throughput X; per-processor
 * performance is ref_us / (m * (Z + R)). Unlike the open M/M/1
 * estimate, the closed model remains exact (for exponential service)
 * at any load: a saturated bus simply throttles the miss rate, which
 * is what the simulated system does too.
 *
 * Arbitration disciplines: FIFO, round-robin and non-preemptive
 * priority all leave the *mean* wait unchanged for symmetric
 * customers (work conservation); the discipline redistributes waiting
 * between masters. For Priority the model splits the conserved
 * aggregate wait across bus-request levels with head-of-line M/G/1
 * ratios, so per-level performance curves come out; FIFO and
 * round-robin report the uniform mean.
 */
class MvaModel
{
  public:
    explicit MvaModel(
        mem::Arbitration discipline = mem::Arbitration::Fifo,
        unsigned priority_levels = 4,
        const MissCostModel &costs = MissCostModel{},
        const cpu::M68020Timing &timing = {});

    struct Prediction
    {
        double perProcessorPerformance = 1.0;
        double systemThroughput = 0.0;
        double busUtilization = 0.0;
        /** Mean queueing wait per bus visit (us). */
        double waitUs = 0.0;
        /**
         * Per-bus-request-level predictions (Priority discipline
         * only; index = level, higher level = higher priority).
         * Levels with no master assigned hold zero customers.
         */
        std::vector<double> levelWaitUs;
        std::vector<double> levelPerformance;
        ModelDomain domain;
    };

    Prediction predict(std::uint32_t page_bytes,
                       const BusLoadProfile &load, unsigned n) const;

    double perProcessorPerformance(std::uint32_t page_bytes,
                                   const BusLoadProfile &load,
                                   unsigned n) const;
    double systemThroughput(std::uint32_t page_bytes,
                            const BusLoadProfile &load,
                            unsigned n) const;
    double busUtilization(std::uint32_t page_bytes,
                          const BusLoadProfile &load, unsigned n) const;

    /** Mean bus occupancy per miss under @p load (us). */
    double serviceDemandUs(std::uint32_t page_bytes,
                           const BusLoadProfile &load) const;
    /** Mean zero-contention elapsed time per miss under @p load (us). */
    double missElapsedUs(std::uint32_t page_bytes,
                         const BusLoadProfile &load) const;

    mem::Arbitration discipline() const { return discipline_; }

  private:
    mem::Arbitration discipline_;
    unsigned priorityLevels_;
    MissCostModel costs_;
    cpu::M68020Timing timing_;
};

/** Instruction-time budget of the inter-bus board software, in
 *  microseconds: the default proto::SoftwareTiming service quantum and
 *  mean retry back-off, and hier::InterBusBoard::installNs. */
struct IbcCostModel
{
    /** Dispatch + bookkeeping per serviced request word. */
    double serviceUs = 3.0;
    /** Image install + table update after a global fetch. */
    double installUs = 2.0;
    /** Mean back-off before retrying an aborted global transfer. */
    double retryMeanUs = 7.0;
};

/**
 * Two-level extension of the Section 5.3 queueing estimate for the
 * cluster hierarchy (HierVmpSystem): k clusters of n processors each.
 * Every local cache miss queues on the *local* bus (M/M/1 with n
 * clients); a fraction g of those misses also miss cluster-wide and
 * additionally queue on the *global* bus (M/M/1 with k*n clients
 * offering the g-thinned rate) plus the inter-bus board's software
 * budget. The two waiting times are coupled through the per-reference
 * time, so the model iterates both to a joint fixed point.
 *
 * The model is load-based, like its flat parent: it captures fetch
 * traffic but not data contention (ownership ping-pong), so it tracks
 * simulation best for partitioned or mostly-read-shared workloads —
 * the paper's own "providing data contention is not excessive" caveat.
 */
class HierQueuingModel
{
  public:
    HierQueuingModel(const MissCostModel &costs = MissCostModel{},
                     const cpu::M68020Timing &timing = {},
                     const IbcCostModel &ibc = {});

    /**
     * Expected per-processor performance, normalized to 1 at zero
     * misses. @p m is the per-CPU cache miss ratio and @p g the
     * fraction of those misses that miss cluster-wide (global fetches
     * per local miss).
     */
    double perProcessorPerformance(std::uint32_t page_bytes, double m,
                                   double g, unsigned clusters,
                                   unsigned cpus_per_cluster) const;

    /** Aggregate throughput in units of single-processor full speed. */
    double systemThroughput(std::uint32_t page_bytes, double m,
                            double g, unsigned clusters,
                            unsigned cpus_per_cluster) const;

    /** Aggregate simulated references per second. */
    double refsPerSecond(std::uint32_t page_bytes, double m, double g,
                         unsigned clusters,
                         unsigned cpus_per_cluster) const;

    /** Equilibrium local-bus utilization (one cluster). */
    double localUtilization(std::uint32_t page_bytes, double m,
                            double g, unsigned clusters,
                            unsigned cpus_per_cluster) const;

    /** Equilibrium global-bus utilization. */
    double globalUtilization(std::uint32_t page_bytes, double m,
                             double g, unsigned clusters,
                             unsigned cpus_per_cluster) const;

    /** Open-model prediction plus per-bus domain flags. */
    struct Prediction
    {
        double perProcessorPerformance = 1.0;
        double systemThroughput = 0.0;
        double rhoLocal = 0.0;
        double rhoGlobal = 0.0;
        bool saturatedLocal = false;
        bool saturatedGlobal = false;
        ModelDomain domain;
    };

    /**
     * Same numbers as perProcessorPerformance, with each bus's
     * offered-load saturation status surfaced.
     */
    Prediction predict(std::uint32_t page_bytes, double m, double g,
                       unsigned clusters,
                       unsigned cpus_per_cluster) const;

    /** Two-level closed (MVA) prediction. */
    struct MvaPrediction
    {
        double perProcessorPerformance = 1.0;
        double systemThroughput = 0.0;
        double refsPerSecond = 0.0;
        /** Mean queueing wait per local / global bus visit (us). */
        double localWaitUs = 0.0;
        double globalWaitUs = 0.0;
        /** Mean queueing wait at the cluster's inter-bus board (us). */
        double ibcWaitUs = 0.0;
        double rhoLocal = 0.0;
        double rhoGlobal = 0.0;
        /** Utilization of the (single-server) inter-bus board. */
        double rhoIbc = 0.0;
        /**
         * Predicted miss-handler retry loops per global miss. The
         * aborted first attempt plus every re-trap until the board has
         * installed the frame; 1.0 is the single-retry regime.
         */
        double loopsPerGlobalMiss = 0.0;
        /**
         * The global path left the single-retry regime: either more
         * than two loops are predicted, or the queueing waits at the
         * board and global bus rival the path's deterministic service
         * time. Past that point the true loop count is governed by
         * wait *variance* (bursty sibling misses piling onto the
         * single-server board), which a mean-value analysis
         * underestimates — the prediction is flagged out-of-domain.
         */
        bool retryCascade = false;
        ModelDomain domain;
    };

    /**
     * Closed-network model of one cluster level coupled to the global
     * level, iterated to a joint fixed point over three centers:
     *
     *  - the local bus (n CPU customers; demand includes the aborted
     *    retry attempts of global misses),
     *  - the cluster's inter-bus board, a single server that stays
     *    busy for the whole global round trip of a fetch (dispatch,
     *    global bus wait + transfer, install) plus the echo and
     *    spurious interrupt words the retry traffic feeds it,
     *  - the global bus (k board customers — each board serializes
     *    its global requests, so at most k are ever outstanding).
     *
     * A CPU waits out the board's work in miss-handler *retry loops*
     * (re-trap, re-translate, aborted re-fill), so the per-global-miss
     * delay is quantized in loop periods; the model estimates the
     * expected loop count from the board's readiness time and flags a
     * retry cascade (loops > 2) as out-of-domain. All three centers
     * use mean waits, which the arbitration disciplines share for
     * symmetric customers (work conservation), so the coupling is
     * discipline-independent; the per-level Priority split of the
     * flat MvaModel applies within one bus.
     */
    MvaPrediction predictMva(std::uint32_t page_bytes,
                             const BusLoadProfile &load, double g,
                             unsigned clusters,
                             unsigned cpus_per_cluster) const;

  private:
    struct Equilibrium
    {
        double perRefUs = 0.0;
        double rhoLocal = 0.0;
        double rhoGlobal = 0.0;
        bool converged = false;
    };
    Equilibrium solve(std::uint32_t page_bytes, double m, double g,
                      unsigned clusters,
                      unsigned cpus_per_cluster) const;

    MissCostModel costs_;
    cpu::M68020Timing timing_;
    IbcCostModel ibc_;
};

} // namespace vmp::analytic

#endif // VMP_ANALYTIC_MODELS_HH
