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
                 config.swTiming)
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
    : Machine("system", config.cpuTiming), cfg_(config)
{
    cfg_.check();
    useTranslator(translator, cfg_.memBytes, cfg_.cache.pageBytes);
    BusDomain &domain = addDomain(cfg_.memBytes, cfg_.cache.pageBytes,
                                  cfg_.busTiming, cfg_.arbitration);
    addBoards(domain, cfg_.processors, cfg_);
}

std::uint32_t
VmpSystem::processors() const
{
    return cfg_.processors;
}

RunResult
VmpSystem::runTraces(const std::vector<trace::RefSource *> &sources)
{
    return collect(rawCpus(runTraceCpus(sources)));
}

RunResult
VmpSystem::collect(const std::vector<cpu::TraceCpu *> &cpus) const
{
    RunResult result;
    collectInto(result, cpus);
    return result;
}

check::CoherenceChecker &
VmpSystem::enableCoherenceChecker(check::CheckerOptions options)
{
    enableCheckers(options);
    return *root().checker;
}

recover::RecoveryManager &
VmpSystem::enableRecovery(recover::RecoveryConfig options)
{
    enableRecoveryAll(options);
    return *root().recovery;
}

backing::PageStore &
VmpSystem::enableFrameCheckpoint(Asid asid)
{
    enableCheckpoints(asid);
    return *root().checkpointStore;
}

void
VmpSystem::setUserPrivateHint(bool enabled)
{
    if (!ownedTranslator_)
        fatal("setUserPrivateHint requires the internal demand "
              "translator");
    ownedTranslator_->setUserPrivateHint(enabled);
}

} // namespace vmp::core
