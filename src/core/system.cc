#include "core/system.hh"

#include <sstream>

#include "sim/logging.hh"

namespace vmp::core
{

void
VmpConfig::check() const
{
    cache.check();
    if (processors == 0 || processors > 64)
        fatal("system: processors must be in [1, 64]");
    if (memBytes == 0 || memBytes % cache.pageBytes != 0)
        fatal("system: memory must be a positive multiple of the cache "
              "page size");
    if (fifoCapacity == 0)
        fatal("system: FIFO capacity must be positive");
    arbitration.check();
}

ProcessorBoard::ProcessorBoard(CpuId id, EventQueue &events,
                               mem::VmeBus &bus,
                               proto::Translator &translator,
                               const VmpConfig &config)
    : cache(config.cache),
      monitor(id, config.memBytes, config.cache.pageBytes,
              config.fifoCapacity),
      controller(id, events, cache, monitor, bus, translator,
                 config.deadOwnerTimeoutNs)
{
    bus.attachWatcher(id, monitor);
}

std::string
RunResult::toString() const
{
    std::ostringstream os;
    os << "refs=" << totalRefs << " misses=" << totalMisses
       << " missRatio=" << missRatio * 100 << "%"
       << " perf=" << performance
       << " busUtil=" << busUtilization * 100 << "%"
       << " aborts=" << busAborts << " writeBacks=" << writeBacks
       << " elapsed=" << toUsec(elapsed) << "us";
    return os.str();
}

VmpSystem::VmpSystem(const VmpConfig &config,
                     proto::Translator *translator)
    : Machine("system"), cfg_(config)
{
    cfg_.check();
    useTranslator(translator, cfg_.memBytes, cfg_.cache.pageBytes);
    BusDomain &domain =
        addDomain(cfg_.memBytes, cfg_.cache.pageBytes, cfg_.arbitration);
    addBoards(domain, cfg_.processors, cfg_);
}

RunResult
VmpSystem::runTraces(const std::vector<trace::RefSource *> &sources)
{
    RunResult result;
    runTraceCpus(sources, result);
    return result;
}

} // namespace vmp::core
