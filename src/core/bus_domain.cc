#include "core/bus_domain.hh"

#include <algorithm>
#include <ostream>

#include "core/system.hh"
#include "sim/debug.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"

namespace vmp::core
{

namespace
{

/** Cold FIFO: drop every queued word and the overflow flag. */
void
clearFifo(monitor::BusMonitor &monitor)
{
    while (monitor.fifo().pop().has_value()) {
    }
    monitor.fifo().clearOverflow();
}

/**
 * The one health probe of a protocol client, processor board or
 * global-bus inter-bus board alike. A wedged service loop still
 * answers alive (the hazard) but stops being responsive and freezes
 * its progress epoch while its backlog persists. An inter-bus board
 * accrues no serviceCpuTicks (its pump never runs serviceInterrupts),
 * so the fail-slow witness has nothing to read on it.
 */
recover::HealthReport
healthOf(const proto::ProtocolClient &client)
{
    recover::HealthReport report;
    report.alive = !client.dead();
    report.responsive = !client.dead() && !client.wedged();
    report.progressEpoch = client.serviceEpoch();
    report.pendingWords = client.pendingWords();
    report.wordsServiced = client.wordsServiced().value() +
        client.requestsServiced().value();
    report.spuriousWords = client.spuriousWords().value();
    report.serviceBusyNs = client.serviceCpuTicks();
    report.fifoPushed = client.monitor().fifo().pushed().value();
    return report;
}

} // namespace

// ------------------------------------------------------------ BusDomain

BusDomain::BusDomain(EventQueue &events, std::uint64_t mem_bytes,
                     std::uint32_t page_bytes,
                     const mem::ArbitrationConfig &arbitration)
    : events(events), memory(mem_bytes, page_bytes),
      bus(events, memory, arbitration)
{}

BusDomain::~BusDomain() = default;

void
BusDomain::setFaultHooks(fault::FaultInjector &injector)
{
    bus.setFaultHooks(&injector);
    if (bridge)
        bridge->setFaultHooks(&injector);
    for (auto &board : boards) {
        board->monitor.setFaultHooks(&injector, &events);
        board->controller.setFaultHooks(&injector);
    }
}

void
BusDomain::setTracer(obs::EventTracer &tracer)
{
    bus.setTracer(&tracer, tracer.registerTrack(busName));
    if (bridge)
        bridge->setTracer(&tracer, tracer.registerTrack(groupName("ibc")));
    for (std::size_t i = 0; i < boards.size(); ++i) {
        const std::uint16_t track =
            tracer.registerTrack("cpu" + std::to_string(firstCpu + i));
        boards[i]->monitor.setTracer(&tracer, track, &events);
        boards[i]->controller.setTracer(&tracer, track);
    }
}

void
BusDomain::enableChecker()
{
    checker = std::make_unique<check::CoherenceChecker>(bus, memory);
    for (auto &board : boards)
        checker->addController(board->controller);
    // Inter-bus boards are protocol clients only through their global
    // monitors, so only the hardware single-owner invariant applies.
    for (hier::InterBusBoard *ibc : globalClients)
        checker->addMonitor(ibc->globalMonitor());
    checker->install();
}

void
BusDomain::enableRecovery(const recover::RecoveryConfig &options,
                          obs::EventTracer *tracer,
                          std::uint16_t recover_track)
{
    recovery = std::make_unique<recover::RecoveryManager>(events, bus,
                                                          memory, options);
    // Every client of this bus answers the one probe channel the
    // detector's sweeps, probes and partial-failure witnesses read,
    // and asks the manager which frames a dead owner strands.
    const auto add_client = [this](proto::ProtocolClient &client) {
        recovery->addBoard(client.id(), &client.monitor(),
                           [&client] { return healthOf(client); });
        client.setDeadOwnerOracle(recovery.get());
    };
    for (auto &board : boards)
        add_client(board->controller);
    // A bridge is liveness-only on its cluster bus (a dead bridge
    // strands every remote frame): its report carries `alive` alone,
    // which no witness can fire on. Its global-side frames are
    // reclaimed by the global bus's manager, where it is a client.
    if (bridge) {
        auto *ibc = bridge.get();
        recovery->addBoard(ibc->localMasterId(), nullptr, [ibc] {
            recover::HealthReport report;
            report.alive = !ibc->dead();
            return report;
        });
    }
    for (hier::InterBusBoard *ibc : globalClients)
        add_client(*ibc);
    // The checker may be installed before or after: resolve at sweep
    // time.
    recovery->setPostReclaimHook([this] {
        if (checker)
            checker->checkOwnersSweep();
    });
    if (tracer != nullptr)
        recovery->setTracer(tracer, recover_track);
    if (checkpointStore) {
        recovery->setBackingStore(checkpointStore.get(),
                                  checkpointer->asid());
    }
    recovery->install();
}

void
BusDomain::enableCheckpoint(Asid asid)
{
    // Latency 0: the shadow is written as part of the memory board's
    // own store path; recovery still pays its restore DMA.
    checkpointStore =
        std::make_unique<backing::PageStore>(0, memory.pageBytes());
    checkpointer = std::make_unique<backing::FrameCheckpointer>(
        memory, *checkpointStore, asid);
    checkpointer->install(bus);
    if (recovery)
        recovery->setBackingStore(checkpointStore.get(), asid);
}

// -------------------------------------------------------------- Machine

void
Machine::useTranslator(proto::Translator *translator,
                       std::uint64_t mem_bytes, std::uint32_t page_bytes)
{
    if (translator == nullptr) {
        ownedTranslator_ = std::make_unique<proto::DemandTranslator>(
            mem_bytes, page_bytes, trace::kernelBase, trace::userBase);
        translator = ownedTranslator_.get();
    }
    translator_ = translator;
}

BusDomain &
Machine::addDomain(std::uint64_t mem_bytes, std::uint32_t page_bytes,
                   const mem::ArbitrationConfig &arbitration)
{
    domains_.push_back(std::make_unique<BusDomain>(
        events_, mem_bytes, page_bytes, arbitration));
    return *domains_.back();
}

void
Machine::addBoards(BusDomain &domain, std::uint32_t count,
                   const VmpConfig &config)
{
    domain.firstCpu = static_cast<CpuId>(boards_.size());
    for (std::uint32_t i = 0; i < count; ++i) {
        domain.boards.push_back(std::make_unique<ProcessorBoard>(
            domain.firstCpu + i, events_, domain.bus, *translator_,
            config));
        boards_.push_back({domain.boards.back().get(), &domain});
    }
}

std::vector<BusDomain *>
Machine::installOrder() const
{
    std::vector<BusDomain *> order;
    for (std::size_t i = 1; i < domains_.size(); ++i)
        order.push_back(domains_[i].get());
    order.push_back(domains_.front().get());
    return order;
}

BusDomain &
Machine::cluster(std::size_t k)
{
    if (k + 1 >= domains_.size())
        panic(tag_, ": cluster index ", k, " out of range");
    return *domains_[k + 1];
}

const BusDomain &
Machine::cluster(std::size_t k) const
{
    if (k + 1 >= domains_.size())
        panic(tag_, ": cluster index ", k, " out of range");
    return *domains_[k + 1];
}

ProcessorBoard &
Machine::board(std::size_t cpu)
{
    if (cpu >= boards_.size())
        panic(tag_, ": board index ", cpu, " out of range");
    return *boards_[cpu].board;
}

const ProcessorBoard &
Machine::board(std::size_t cpu) const
{
    if (cpu >= boards_.size())
        panic(tag_, ": board index ", cpu, " out of range");
    return *boards_[cpu].board;
}

proto::CacheController &
Machine::controller(std::size_t cpu)
{
    return board(cpu).controller;
}

const proto::CacheController &
Machine::controller(std::size_t cpu) const
{
    return board(cpu).controller;
}

cpu::TraceCpu *
Machine::activeCpu(std::uint32_t cpu) const
{
    return cpu < activeCpus_.size() ? activeCpus_[cpu] : nullptr;
}

void
Machine::runTraceCpus(const std::vector<trace::RefSource *> &sources,
                      RunResult &result)
{
    if (sources.size() > boards_.size())
        fatal(tag_, ": ", sources.size(), " traces for ", boards_.size(),
              " processors");

    std::vector<std::unique_ptr<cpu::TraceCpu>> cpus;
    std::size_t remaining = sources.size();
    activeCpus_.clear();
    for (std::size_t i = 0; i < sources.size(); ++i) {
        cpus.push_back(std::make_unique<cpu::TraceCpu>(
            static_cast<CpuId>(i), events_, controller(i), *sources[i]));
        activeCpus_.push_back(cpus.back().get());
    }
    for (auto &c : cpus)
        c->setPeers(activeCpus_);
    for (auto &c : cpus)
        c->run([&remaining] { --remaining; });
    events_.run();
    for (auto &c : cpus)
        c->setPeers({});
    // A CPU failstopped mid-trace never fires its completion callback;
    // any other shortfall is a genuine hang.
    std::size_t halted_midrun = 0;
    for (const auto *c : activeCpus_) {
        if (c->halted() && !c->finished())
            ++halted_midrun;
    }
    if (remaining != halted_midrun) {
        panic(tag_, ": ", remaining - halted_midrun,
              " trace CPUs did not finish");
    }
    activeCpus_.clear();

    result.elapsed = events_.now();
    double perf_sum = 0.0;
    for (const auto &c : cpus) {
        result.totalRefs += c->refsRetired().value();
        perf_sum += c->performance();
    }
    for (const auto &slot : boards_) {
        result.totalMisses += slot.board->controller.misses().value();
        result.writeBacks += slot.board->controller.writeBacks().value();
    }
    result.missRatio = result.totalRefs == 0
        ? 0.0
        : static_cast<double>(result.totalMisses) /
            static_cast<double>(result.totalRefs);
    result.performance =
        cpus.empty() ? 0.0 : perf_sum / static_cast<double>(cpus.size());
    result.busUtilization = root().bus.utilization();
    result.busAborts = root().bus.aborts().value();
    // Upgrade misses are AssertOwnership transactions on the buses
    // the processor boards sit on.
    for (const auto &domain : domains_) {
        if (!domain->boards.empty()) {
            result.busUpgrades +=
                domain->bus.countOf(mem::TxType::AssertOwnership).value();
        }
    }
}

std::vector<std::unique_ptr<cpu::ProgramCpu>>
Machine::runPrograms(const std::vector<cpu::Program> &programs)
{
    if (programs.size() > boards_.size())
        fatal(tag_, ": ", programs.size(), " programs for ",
              boards_.size(), " processors");

    std::vector<std::unique_ptr<cpu::ProgramCpu>> cpus;
    std::size_t remaining = programs.size();
    for (std::size_t i = 0; i < programs.size(); ++i) {
        cpus.push_back(std::make_unique<cpu::ProgramCpu>(
            static_cast<CpuId>(i), events_, controller(i),
            static_cast<Asid>(i + 1), programs[i]));
    }
    for (auto &c : cpus)
        c->run([&remaining] { --remaining; });
    events_.run();
    if (remaining != 0)
        panic(tag_, ": ", remaining, " program CPUs did not halt");
    return cpus;
}

void
Machine::attachIdleServicers()
{
    for (auto &slot : boards_)
        slot.board->controller.setIrqService(proto::IrqService::Idle);
}

std::vector<proto::ProtocolClient *>
Machine::clients()
{
    std::vector<proto::ProtocolClient *> all;
    for (auto &domain : domains_) {
        if (domain->bridge)
            all.push_back(domain->bridge.get());
        for (auto &board : domain->boards)
            all.push_back(&board->controller);
    }
    return all;
}

bool
Machine::quiesce()
{
    attachIdleServicers();
    events_.run();
    // A dead client has nothing to drain: its words wait for recovery.
    const auto all = clients();
    return std::all_of(all.begin(), all.end(), [](const auto *client) {
        return client->dead() || client->idle();
    });
}

fault::FaultInjector &
Machine::enableFaultInjection(const fault::FaultSchedule &schedule)
{
    if (injector_)
        fatal(tag_, ": fault injection enabled twice");
    // Check every crash and partial-failure target first, so a rejected
    // schedule leaves the machine unarmed.
    for (const auto &crash : schedule.crashes) {
        if (!crash.interBus) {
            if (crash.board >= boards_.size())
                fatal(tag_, ": killBoard(", crash.board, ") out of range");
            continue;
        }
        interBusTarget(crash.board, "crashInterBus");
        if (crash.rejoinAt != 0)
            fatal(tag_, ": inter-bus boards do not hot-rejoin");
    }
    for (const auto &part : schedule.partials)
        partialTarget(part);
    injector_ = std::make_unique<fault::FaultInjector>(events_, schedule);
    for (auto &domain : domains_)
        domain->setFaultHooks(*injector_);
    if (schedule.arms(fault::FaultKind::DmaBurst)) {
        // Scratch frames 8..15 sit inside the demand translator's
        // reserved low region: DMA traffic there perturbs bus timing
        // and monitor snooping without ever touching a cached page.
        // The engine's master id follows every board and bridge.
        const std::uint32_t page_bytes = root().memory.pageBytes();
        injector_->attachDmaTarget(
            root().bus,
            static_cast<std::uint32_t>(boards_.size() +
                                       root().globalClients.size() + 64),
            8ull * page_bytes, page_bytes, 8);
    }
    // Board crashes are time-driven: turn each schedule entry into
    // kill/rejoin events now (deterministic, no RNG draw).
    for (const auto &crash : injector_->schedule().crashes) {
        if (crash.interBus) {
            killInterBusBoard(crash.board, crash.at);
            continue;
        }
        killBoard(crash.board, crash.at);
        if (crash.rejoinAt != 0)
            rejoinBoard(crash.board, crash.rejoinAt);
    }
    // Partial failures (wedge/stuck/slow) are likewise time-driven;
    // babble is opportunity-driven through the injectFifoBabble seam
    // and needs no event here.
    for (const auto &part : injector_->schedule().partials)
        armPartialFault(part);
    return *injector_;
}

hier::InterBusBoard &
Machine::interBusTarget(std::uint32_t k, const char *what) const
{
    const auto &ibcs = root().globalClients;
    if (ibcs.empty())
        fatal(tag_, ": ", what, "() on a flat (single-bus) system");
    if (k >= ibcs.size())
        fatal(tag_, ": ", what, "(", k, ") out of range");
    return *ibcs[k];
}

std::pair<ProcessorBoard *, proto::ProtocolClient *>
Machine::partialTarget(const fault::PartialFaultSpec &spec) const
{
    // A processor board, or (wedgeInterBus) the global side of a
    // cluster's inter-bus board. The wedge path is one for both; stuck
    // tables and slow boards are processor-board faults.
    if (spec.interBus) {
        proto::ProtocolClient *client =
            &interBusTarget(spec.board, "wedgeInterBus");
        if (spec.kind != fault::FaultKind::MonitorWedge)
            fatal(tag_, ": only wedgeInterBus() partial faults target "
                  "inter-bus boards");
        return {nullptr, client};
    }
    if (spec.board >= boards_.size())
        fatal(tag_, ": partial fault on board ", spec.board,
              " out of range");
    ProcessorBoard *board = boards_[spec.board].board;
    return {board, &board->controller};
}

void
Machine::armPartialFault(const fault::PartialFaultSpec &spec)
{
    // FIFO babble is drawn per bus transaction inside the injector.
    if (!spec.interBus && spec.kind == fault::FaultKind::FifoBabble)
        return;
    const auto [board, client] = partialTarget(spec);
    events_.schedule(spec.at, [this, board, client, spec] {
        if (client->dead())
            return;
        VMP_DTRACE(debug::Fault, events_.now(), client->kind(),
                   client->id(), " partial fault onset: ",
                   fault::faultKindName(spec.kind));
        switch (spec.kind) {
        case fault::FaultKind::MonitorWedge:
            // Service loop stops draining; CPU and monitor hardware
            // keep running against the rotting FIFO/table.
            client->setWedged(true);
            break;
        case fault::FaultKind::ActionTableStuck:
            board->monitor.setTableStuck(true);
            break;
        case fault::FaultKind::SlowBoard:
            client->setServiceSlowdown(spec.factor);
            break;
        default:
            fatal(tag_, ": unexpected partial fault kind");
        }
        injector_->notePartialFault(spec.kind);
    }, "partial-fault");
    if (spec.clearAt == 0)
        return;
    events_.schedule(spec.clearAt, [this, board, client, spec] {
        switch (spec.kind) {
        case fault::FaultKind::MonitorWedge:
            client->setWedged(false);
            break;
        case fault::FaultKind::ActionTableStuck:
            board->monitor.setTableStuck(false);
            break;
        case fault::FaultKind::SlowBoard:
            client->setServiceSlowdown(1);
            break;
        default:
            break;
        }
        VMP_DTRACE(debug::Fault, events_.now(), client->kind(),
                   client->id(), " partial fault cleared: ",
                   fault::faultKindName(spec.kind));
    }, "partial-clear");
}

obs::EventTracer &
Machine::enableTracing(obs::TraceConfig config)
{
    if (tracer_)
        fatal(tag_, ": tracing enabled twice");
    tracer_ = std::make_unique<obs::EventTracer>(config.ringCapacity);
    profiler_ = std::make_unique<obs::MissProfiler>();
    tracer_->addSink(profiler_->sink());
    for (auto &domain : domains_)
        domain->setTracer(*tracer_);
    recoverTrack_ = tracer_->registerTrack("recover");
    for (auto &domain : domains_) {
        if (domain->recovery)
            domain->recovery->setTracer(tracer_.get(), recoverTrack_);
    }
    VMP_DTRACE(debug::Obs, events_.now(), "tracing armed: ",
               tracer_->trackCount(), " tracks, ring capacity ",
               tracer_->ringCapacity());
    return *tracer_;
}

void
Machine::setUserPrivateHint(bool enabled)
{
    if (!ownedTranslator_)
        fatal(tag_, ": setUserPrivateHint requires the internal demand "
              "translator");
    ownedTranslator_->setUserPrivateHint(enabled);
}

check::CoherenceChecker &
Machine::enableCoherenceCheckers()
{
    if (root().checker)
        fatal(tag_, ": coherence checker enabled twice");
    for (BusDomain *domain : installOrder())
        domain->enableChecker();
    return *root().checker;
}

recover::RecoveryManager &
Machine::enableRecovery(recover::RecoveryConfig options)
{
    if (root().recovery)
        fatal(tag_, ": recovery enabled twice");
    for (BusDomain *domain : installOrder()) {
        domain->enableRecovery(options, tracer_.get(), recoverTrack_);
        if (domain->boards.empty())
            continue;
        // Quarantine hooks: park stops the fenced board's reference
        // stream; resync cold-restarts its controller software after
        // an unfence (monitor already unmasked over a clean table).
        domain->recovery->setFenceHooks(
            [this](std::uint32_t cpu) {
                if (cpu::TraceCpu *c = activeCpu(cpu))
                    c->requestFailstop();
            },
            [this](std::uint32_t cpu) {
                ProcessorBoard &board = *boards_[cpu].board;
                // Babble pushed through the masked window: start empty.
                clearFifo(board.monitor);
                if (!board.controller.dead())
                    board.controller.failstop();
                board.controller.rejoin();
                if (cpu::TraceCpu *c = activeCpu(cpu))
                    c->resume();
            });
    }
    return *root().recovery;
}

backing::PageStore &
Machine::enableFrameCheckpoint(Asid asid)
{
    if (root().checkpointer)
        fatal(tag_, ": frame checkpoint enabled twice");
    for (BusDomain *domain : installOrder())
        domain->enableCheckpoint(asid);
    return *root().checkpointStore;
}

std::uint64_t
Machine::checkFullAll()
{
    std::uint64_t found = 0;
    for (BusDomain *domain : installOrder()) {
        if (domain->checker)
            found += domain->checker->checkFull();
    }
    return found;
}

std::uint64_t
Machine::totalViolations() const
{
    std::uint64_t total = 0;
    for (const auto &domain : domains_) {
        if (domain->checker)
            total += domain->checker->violations().value();
    }
    return total;
}

void
Machine::killBoard(std::uint32_t cpu, Tick at)
{
    if (cpu >= boards_.size())
        fatal(tag_, ": killBoard(", cpu, ") out of range");
    events_.schedule(at, [this, cpu] {
        ProcessorBoard &board = *boards_[cpu].board;
        if (board.controller.dead())
            return;
        VMP_DTRACE(debug::Recover, events_.now(), "killing board ", cpu);
        if (cpu::TraceCpu *c = activeCpu(cpu))
            c->requestFailstop();
        // The controller software dies; the monitor *hardware* keeps
        // driving the bus from its (now stale) table.
        board.controller.failstop();
        if (injector_)
            injector_->noteBoardCrash();
    }, "kill-board");
}

void
Machine::rejoinBoard(std::uint32_t cpu, Tick at)
{
    if (cpu >= boards_.size())
        fatal(tag_, ": rejoinBoard(", cpu, ") out of range");
    events_.schedule(at, [this, cpu] { doRejoin(cpu); }, "rejoin-board");
}

void
Machine::doRejoin(std::uint32_t cpu)
{
    ProcessorBoard &board = *boards_[cpu].board;
    if (!board.controller.dead())
        return;
    // Never rip the table out from under an in-flight reclaim scan:
    // defer the rejoin until the coordinator finishes.
    recover::RecoveryManager *manager = boards_[cpu].domain->recovery.get();
    if (manager != nullptr && manager->recovering()) {
        events_.scheduleIn(usec(10), [this, cpu] { doRejoin(cpu); },
                           "rejoin-board");
        return;
    }
    VMP_DTRACE(debug::Recover, events_.now(), "board ", cpu,
               " hot-rejoining");
    // Cold hardware state: empty table, empty FIFO, unmasked monitor.
    board.monitor.table().clear();
    clearFifo(board.monitor);
    board.monitor.setMasked(false);
    board.controller.rejoin();
    if (manager != nullptr)
        manager->markRejoined(cpu);
    if (cpu::TraceCpu *c = activeCpu(cpu))
        c->resume();
}

void
Machine::killInterBusBoard(std::uint32_t k, Tick at)
{
    hier::InterBusBoard *ibc = &interBusTarget(k, "killInterBusBoard");
    events_.schedule(at, [this, ibc, k] {
        if (ibc->dead())
            return;
        VMP_DTRACE(debug::Recover, events_.now(),
                   "killing inter-bus board of cluster ", k);
        ibc->failstop();
        if (injector_)
            injector_->noteBoardCrash();
    }, "kill-ibc");
}

void
Machine::setWatchdog(std::uint64_t maxRetries,
                     proto::ProtocolClient::WatchdogHandler handler)
{
    for (proto::ProtocolClient *client : clients())
        client->setWatchdog(maxRetries, handler);
}

void
Machine::buildStats(std::vector<std::unique_ptr<StatGroup>> &groups,
                    StatRegistry &registry) const
{
    // The groups reference component members directly, so they only
    // need to stay alive until the registry is serialized.
    auto group = [&](std::string name) -> StatGroup & {
        groups.push_back(std::make_unique<StatGroup>(std::move(name)));
        registry.add(*groups.back());
        return *groups.back();
    };
    for (const auto &domain : domains_) {
        domain->bus.registerStats(group(domain->busName));
        if (domain->bridge)
            domain->bridge->registerStats(group(domain->groupName("ibc")));
        for (std::size_t i = 0; i < domain->boards.size(); ++i) {
            StatGroup &cpu =
                group("cpu" + std::to_string(domain->firstCpu + i));
            domain->boards[i]->controller.registerStats(cpu);
            domain->boards[i]->cache.registerStats(cpu);
        }
    }
    if (injector_)
        injector_->registerStats(group("fault"));
    const std::vector<BusDomain *> order = installOrder();
    for (const BusDomain *domain : order) {
        if (domain->checker)
            domain->checker->registerStats(group(domain->groupName("check")));
    }
    for (const BusDomain *domain : order) {
        if (domain->recovery) {
            domain->recovery->registerStats(
                group(domain->groupName("recover")));
        }
    }
    for (const BusDomain *domain : order) {
        if (domain->checkpointer) {
            domain->checkpointer->registerStats(
                group(domain->groupName("backing")));
        }
    }
    if (tracer_) {
        StatGroup &obs = group("obs");
        tracer_->registerStats(obs);
        if (profiler_)
            profiler_->registerStats(obs);
    }
}

void
Machine::dumpStats(std::ostream &os) const
{
    std::vector<std::unique_ptr<StatGroup>> groups;
    StatRegistry registry;
    buildStats(groups, registry);
    registry.dump(os);
}

Json
Machine::statsJson() const
{
    std::vector<std::unique_ptr<StatGroup>> groups;
    StatRegistry registry;
    buildStats(groups, registry);
    return registry.toJson();
}

} // namespace vmp::core
