#include "core/hier_system.hh"

#include <algorithm>
#include <sstream>

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
    cfg.arbitration = arbitration;
    cfg.deadOwnerTimeoutNs = deadOwnerTimeoutNs;
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
    arbitration.check();
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
    : Machine("hier"), cfg_(config)
{
    cfg_.check();
    useTranslator(translator, cfg_.memBytes, cfg_.cache.pageBytes);
    BusDomain &global = addDomain(cfg_.memBytes, cfg_.cache.pageBytes,
                                  cfg_.arbitration);
    global.busName = "global_bus";
    global.groupSuffix = ".global";
    const VmpConfig cluster_cfg = cfg_.clusterConfig();
    for (std::uint32_t k = 0; k < cfg_.clusters; ++k) {
        BusDomain &domain = addDomain(cfg_.memBytes, cfg_.cache.pageBytes,
                                      cfg_.arbitration);
        domain.groupPrefix = "c" + std::to_string(k) + ".";
        domain.busName = domain.groupPrefix + "bus";
        // The bridge's local monitor watches the bus before the CPUs'.
        domain.bridge = std::make_unique<hier::InterBusBoard>(
            k, cfg_.totalCpus() + k, events(), domain.bus, global.bus,
            domain.memory, cfg_.ibcFifoCapacity);
        global.globalClients.push_back(domain.bridge.get());
        addBoards(domain, cfg_.cpusPerCluster, cluster_cfg);
    }
}

HierRunResult
HierVmpSystem::runTraces(const std::vector<trace::RefSource *> &sources)
{
    HierRunResult result;
    runTraceCpus(sources, result);
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
