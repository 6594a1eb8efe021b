#include "core/hier_system.hh"

#include <algorithm>
#include <sstream>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vmp::core
{

VmpConfig
HierConfig::clusterConfig() const
{
    VmpConfig cfg;
    cfg.processors = cpusPerCluster;
    cfg.cache = cache;
    cfg.memBytes = memBytes;
    cfg.busTiming = localBusTiming;
    cfg.arbitration = localArbitration;
    cfg.swTiming = swTiming;
    cfg.cpuTiming = cpuTiming;
    cfg.fifoCapacity = fifoCapacity;
    return cfg;
}

void
HierConfig::check() const
{
    cache.check();
    if (clusters == 0 || clusters > 16)
        fatal("hier: clusters must be in [1, 16]");
    if (cpusPerCluster == 0 || cpusPerCluster > 8)
        fatal("hier: cpusPerCluster must be in [1, 8]");
    if (memBytes == 0 || memBytes % cache.pageBytes != 0)
        fatal("hier: memory must be a positive multiple of the cache "
              "page size");
    if (fifoCapacity == 0 || ibcFifoCapacity == 0)
        fatal("hier: FIFO capacities must be positive");
    localArbitration.check();
    globalArbitration.check();
}

std::string
HierRunResult::toString() const
{
    std::ostringstream os;
    os << RunResult::toString()
       << " localUtil(mean/peak)=" << meanLocalBusUtilization * 100
       << "/" << peakLocalBusUtilization * 100 << "%"
       << " globalFetches=" << globalFetches
       << " globalWriteBacks=" << globalWriteBacks
       << " refs/s=" << refsPerSec;
    return os.str();
}

HierVmpSystem::HierVmpSystem(const HierConfig &config,
                             proto::Translator *translator)
    : Machine("hier", config.cpuTiming), cfg_(config)
{
    cfg_.check();
    useTranslator(translator, cfg_.memBytes, cfg_.cache.pageBytes);
    BusDomain &global = addDomain(cfg_.memBytes, cfg_.cache.pageBytes,
                                  cfg_.globalBusTiming,
                                  cfg_.globalArbitration);
    global.busName = "global_bus";
    global.groupSuffix = ".global";
    const VmpConfig cluster_cfg = cfg_.clusterConfig();
    for (std::uint32_t k = 0; k < cfg_.clusters; ++k) {
        BusDomain &domain = addDomain(cfg_.memBytes, cfg_.cache.pageBytes,
                                      cfg_.localBusTiming,
                                      cfg_.localArbitration);
        domain.groupPrefix = "c" + std::to_string(k) + ".";
        domain.busName = domain.groupPrefix + "bus";
        // The bridge's local monitor watches the bus before the CPUs'.
        domain.bridge = std::make_unique<hier::InterBusBoard>(
            k, cfg_.totalCpus() + k, events_, domain.bus, global.bus,
            domain.memory, cfg_.ibcTiming, cfg_.ibcFifoCapacity);
        global.globalClients.push_back(domain.bridge.get());
        addBoards(domain, cfg_.cpusPerCluster, cluster_cfg);
    }
}

BusDomain &
HierVmpSystem::cluster(std::size_t k)
{
    if (k >= cfg_.clusters)
        panic("cluster index ", k, " out of range");
    return *domains_[k + 1];
}

const BusDomain &
HierVmpSystem::cluster(std::size_t k) const
{
    if (k >= cfg_.clusters)
        panic("cluster index ", k, " out of range");
    return *domains_[k + 1];
}

mem::VmeBus &
HierVmpSystem::localBus(std::size_t k)
{
    return cluster(k).bus;
}

const mem::VmeBus &
HierVmpSystem::localBus(std::size_t k) const
{
    return cluster(k).bus;
}

mem::PhysMem &
HierVmpSystem::image(std::size_t k)
{
    return cluster(k).memory;
}

hier::InterBusBoard &
HierVmpSystem::interBusBoard(std::size_t k)
{
    return *cluster(k).bridge;
}

const hier::InterBusBoard &
HierVmpSystem::interBusBoard(std::size_t k) const
{
    return *cluster(k).bridge;
}

HierRunResult
HierVmpSystem::runTraces(const std::vector<trace::RefSource *> &sources)
{
    return collect(rawCpus(runTraceCpus(sources)));
}

void
HierVmpSystem::armInterBusCrash(const fault::BoardCrashSpec &crash)
{
    if (crash.rejoinAt != 0)
        fatal("hier: inter-bus boards do not hot-rejoin");
    killInterBusBoard(crash.board, crash.at);
}

void
HierVmpSystem::enableCoherenceCheckers(check::CheckerOptions options)
{
    enableCheckers(options);
}

void
HierVmpSystem::enableRecovery(recover::RecoveryConfig options)
{
    enableRecoveryAll(options);
}

void
HierVmpSystem::enableFrameCheckpoint(Asid asid)
{
    enableCheckpoints(asid);
}

backing::BudgetController &
HierVmpSystem::enableClusterBudget(backing::BudgetConfig config)
{
    if (budget_)
        fatal("hier: cluster budget enabled twice");
    if (config.totalFrames == 0) {
        config.totalFrames = static_cast<std::uint32_t>(
            cfg_.memBytes / cfg_.cache.pageBytes);
    }
    budget_ = std::make_unique<backing::BudgetController>(events_,
                                                          config);
    for (std::uint32_t k = 0; k < cfg_.clusters; ++k) {
        const std::uint32_t client =
            budget_->addClient("cluster" + std::to_string(k));
        auto *controller = budget_.get();
        interBusBoard(k).setBudgetClient(
            [controller, client] { controller->noteFault(client); },
            [controller, client](std::int32_t delta) {
                controller->noteUse(client, delta);
            });
    }
    // Deliberately not start()ed: unarmed epochs would add recurring
    // events (and the run would never drain). Callers opt in.
    return *budget_;
}

recover::RecoveryManager &
HierVmpSystem::clusterRecovery(std::size_t k)
{
    if (k >= cfg_.clusters || !recoveryEnabled())
        panic("cluster recovery ", k,
              " out of range (recovery enabled?)");
    return *cluster(k).recovery;
}

const recover::RecoveryManager &
HierVmpSystem::clusterRecovery(std::size_t k) const
{
    if (k >= cfg_.clusters || !recoveryEnabled())
        panic("cluster recovery ", k,
              " out of range (recovery enabled?)");
    return *cluster(k).recovery;
}

void
HierVmpSystem::killInterBusBoard(std::uint32_t k, Tick at)
{
    if (k >= cfg_.clusters)
        fatal("hier: killInterBusBoard(", k, ") out of range");
    hier::InterBusBoard *ibc = cluster(k).bridge.get();
    events_.schedule(at, [this, ibc, k] {
        if (ibc->dead())
            return;
        VMP_DTRACE(debug::Recover, events_.now(),
                   "killing inter-bus board of cluster ", k);
        ibc->client().failstop();
        if (injector_)
            injector_->noteBoardCrash();
    }, "kill-ibc");
}

check::CoherenceChecker &
HierVmpSystem::clusterChecker(std::size_t k)
{
    if (k >= cfg_.clusters || !checkersEnabled())
        panic("cluster checker ", k,
              " out of range (checkers enabled?)");
    return *cluster(k).checker;
}

check::CoherenceChecker &
HierVmpSystem::globalChecker()
{
    if (!checkersEnabled())
        panic("global checker requested before "
              "enableCoherenceCheckers()");
    return *root().checker;
}

std::uint64_t
HierVmpSystem::checkFullAll()
{
    std::uint64_t found = 0;
    for (BusDomain *domain : installOrder()) {
        if (domain->checker)
            found += domain->checker->checkFull();
    }
    return found;
}

std::uint64_t
HierVmpSystem::totalViolations() const
{
    std::uint64_t total = 0;
    for (const auto &domain : domains_) {
        if (domain->checker)
            total += domain->checker->violations().value();
    }
    return total;
}

HierRunResult
HierVmpSystem::collect(const std::vector<cpu::TraceCpu *> &cpus) const
{
    HierRunResult result;
    collectInto(result, cpus);
    double local_util_sum = 0.0;
    for (std::uint32_t k = 0; k < cfg_.clusters; ++k) {
        const BusDomain &domain = cluster(k);
        const double util = domain.bus.utilization();
        local_util_sum += util;
        result.peakLocalBusUtilization =
            std::max(result.peakLocalBusUtilization, util);
        result.globalFetches += domain.bridge->globalFetches();
        result.globalWriteBacks +=
            domain.bridge->globalWriteBacks().value();
    }
    result.meanLocalBusUtilization =
        local_util_sum / static_cast<double>(cfg_.clusters);
    result.refsPerSec = result.elapsed == 0
        ? 0.0
        : static_cast<double>(result.totalRefs) /
            (static_cast<double>(result.elapsed) * 1e-9);
    return result;
}

} // namespace vmp::core
