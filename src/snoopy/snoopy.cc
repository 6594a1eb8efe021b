#include "snoopy/snoopy.hh"

#include <sstream>

#include "mem/vme_bus.hh"
#include "sim/logging.hh"
#include "trace/synthetic.hh"

namespace vmp::snoopy
{

const char *
protocolName(Protocol protocol)
{
    switch (protocol) {
      case Protocol::WriteInvalidate: return "write-invalidate";
      case Protocol::WriteUpdate: return "write-update";
      case Protocol::WriteOnce: return "write-once";
    }
    return "?";
}

void
SnoopyConfig::check() const
{
    if (!isPowerOf2(lineBytes) || lineBytes < 4 || lineBytes > 4096)
        fatal("snoopy: line size must be a power of two in [4, 4096]");
    if (ways == 0 || ways > 16)
        fatal("snoopy: associativity must be in [1, 16]");
    if (cacheBytes % (static_cast<std::uint64_t>(lineBytes) * ways) !=
        0)
        fatal("snoopy: cache size not divisible into ways of lines");
    if (processors == 0 || processors > 64)
        fatal("snoopy: processors must be in [1, 64]");
}

std::string
SnoopyResult::toString() const
{
    std::ostringstream os;
    os << "refs=" << refs << " miss%=" << missRatio() * 100
       << " inval=" << invalidations << " upd=" << updatesBroadcast
       << " wt=" << writeThroughs << " wb=" << writeBacks
       << " busNs/ref=" << busNsPerRef() << " snoops=" << snoopProbes;
    return os.str();
}

SnoopySystem::SnoopySystem(const SnoopyConfig &config)
    : cfg_(config),
      translator_(config.memBytes, config.lineBytes, trace::kernelBase,
                  trace::userBase)
{
    cfg_.check();
    sets_ = static_cast<std::uint32_t>(
        cfg_.cacheBytes / (static_cast<std::uint64_t>(cfg_.lineBytes) *
                           cfg_.ways));
    if (!isPowerOf2(sets_))
        fatal("snoopy: set count must be a power of two, got ", sets_);
    caches_.resize(cfg_.processors);
    for (auto &cache : caches_)
        cache.lines.assign(static_cast<std::size_t>(sets_) * cfg_.ways,
                           Line{});
}

std::uint64_t
SnoopySystem::lineOf(Addr paddr) const
{
    return paddr / cfg_.lineBytes;
}

std::uint32_t
SnoopySystem::setOf(std::uint64_t line) const
{
    return static_cast<std::uint32_t>(line % sets_);
}

SnoopySystem::Line &
SnoopySystem::lineAt(std::uint32_t cpu, std::uint32_t set,
                     std::uint32_t way)
{
    return caches_[cpu].lines[static_cast<std::size_t>(set) *
                                  cfg_.ways +
                              way];
}

int
SnoopySystem::findWay(std::uint32_t cpu, std::uint64_t line) const
{
    const std::uint32_t set = setOf(line);
    for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
        const Line &l =
            caches_[cpu].lines[static_cast<std::size_t>(set) *
                                   cfg_.ways +
                               way];
        if (l.state != LineState::Invalid && l.tag == line)
            return static_cast<int>(way);
    }
    return -1;
}

std::uint32_t
SnoopySystem::victimWay(std::uint32_t cpu, std::uint32_t set) const
{
    std::uint32_t victim = 0;
    std::uint64_t oldest = UINT64_MAX;
    for (std::uint32_t way = 0; way < cfg_.ways; ++way) {
        const Line &l =
            caches_[cpu].lines[static_cast<std::size_t>(set) *
                                   cfg_.ways +
                               way];
        if (l.state == LineState::Invalid)
            return way;
        if (l.lastUse < oldest) {
            oldest = l.lastUse;
            victim = way;
        }
    }
    return victim;
}

void
SnoopySystem::busTransaction(std::uint32_t cpu, Tick ns)
{
    result_.busTicks += ns;
    // Every other cache's tag array is interrogated — the dual-ported
    // tag / processor-interference cost of a snoopy design.
    result_.snoopProbes += cfg_.processors - 1;
    (void)cpu;
}

void
SnoopySystem::step(std::uint32_t cpu, const trace::MemRef &ref)
{
    if (cpu >= cfg_.processors)
        panic("snoopy: cpu ", cpu, " out of range");
    ++result_.refs;

    // Per-reference translation (the MMU/TLB in front of a physically
    // addressed cache); assumed free here, which favours the baseline.
    proto::TranslateRequest req;
    req.asid = ref.asid;
    req.vaddr = ref.vaddr;
    req.write = ref.isWrite();
    req.supervisor = ref.supervisor;
    const auto translated = translator_.translateNow(req);
    const std::uint64_t line = lineOf(translated.paddr);
    const std::uint32_t set = setOf(line);
    const bool write = ref.isWrite();
    const Tick line_ns = mem::blockNs(cfg_.lineBytes);
    const Tick word_ns = mem::blockNs(4);
    const Tick short_ns = mem::kShortTxNs;

    int way = findWay(cpu, line);

    if (way < 0) {
        // Miss: fetch the line; a Modified copy elsewhere is flushed
        // first (one extra line transfer).
        ++result_.misses;
        for (std::uint32_t other = 0; other < cfg_.processors;
             ++other) {
            if (other == cpu)
                continue;
            const int oway = findWay(other, line);
            if (oway < 0)
                continue;
            Line &ol = lineAt(other, setOf(line), oway);
            if (ol.state == LineState::Modified) {
                busTransaction(other, line_ns);
                ++result_.writeBacks;
            }
            if (write && (cfg_.protocol == Protocol::WriteInvalidate ||
                          cfg_.protocol == Protocol::WriteOnce)) {
                ol.state = LineState::Invalid;
                ++result_.invalidations;
            } else {
                ol.state = LineState::Shared;
            }
        }

        const std::uint32_t victim = victimWay(cpu, set);
        Line &mine = lineAt(cpu, set, victim);
        if (mine.state == LineState::Modified) {
            busTransaction(cpu, line_ns);
            ++result_.writeBacks;
        }
        busTransaction(cpu, line_ns);
        mine.tag = line;
        mine.lastUse = useClock_++;
        switch (cfg_.protocol) {
          case Protocol::WriteInvalidate:
            mine.state = write ? LineState::Modified
                               : LineState::Shared;
            break;
          case Protocol::WriteUpdate:
            mine.state = LineState::Shared;
            if (write) {
                // Update protocol: the write itself is broadcast.
                busTransaction(cpu, word_ns);
                ++result_.updatesBroadcast;
            }
            break;
          case Protocol::WriteOnce:
            // Goodman: the first write writes the word through to
            // memory (making our copy Reserved: exclusive + clean).
            mine.state = LineState::Shared;
            if (write) {
                busTransaction(cpu, word_ns);
                ++result_.writeThroughs;
                mine.state = LineState::Reserved;
            }
            break;
        }
        way = static_cast<int>(victim);
        return;
    }

    Line &mine = lineAt(cpu, set, static_cast<std::uint32_t>(way));
    mine.lastUse = useClock_++;
    if (!write)
        return;

    switch (cfg_.protocol) {
      case Protocol::WriteInvalidate:
        if (mine.state == LineState::Shared) {
            // Invalidate other copies with one bus transaction.
            busTransaction(cpu, short_ns);
            for (std::uint32_t other = 0; other < cfg_.processors;
                 ++other) {
                if (other == cpu)
                    continue;
                const int oway = findWay(other, line);
                if (oway >= 0) {
                    lineAt(other, setOf(line),
                           static_cast<std::uint32_t>(oway))
                        .state = LineState::Invalid;
                    ++result_.invalidations;
                }
            }
        }
        mine.state = LineState::Modified;
        break;

      case Protocol::WriteUpdate:
        // Every write to a (potentially) shared line goes on the bus
        // at word granularity — the property that precludes large
        // cache pages (Section 6).
        busTransaction(cpu, word_ns);
        ++result_.updatesBroadcast;
        for (std::uint32_t other = 0; other < cfg_.processors;
             ++other) {
            if (other == cpu)
                continue;
            const int oway = findWay(other, line);
            if (oway >= 0)
                lineAt(other, setOf(line),
                       static_cast<std::uint32_t>(oway))
                    .lastUse = useClock_;
        }
        mine.state = LineState::Shared;
        break;

      case Protocol::WriteOnce:
        switch (mine.state) {
          case LineState::Shared:
            // First write: through to memory, invalidating sharers.
            busTransaction(cpu, word_ns);
            ++result_.writeThroughs;
            for (std::uint32_t other = 0; other < cfg_.processors;
                 ++other) {
                if (other == cpu)
                    continue;
                const int oway = findWay(other, line);
                if (oway >= 0) {
                    lineAt(other, setOf(line),
                           static_cast<std::uint32_t>(oway))
                        .state = LineState::Invalid;
                    ++result_.invalidations;
                }
            }
            mine.state = LineState::Reserved;
            break;
          case LineState::Reserved:
            // Second write: local only, line becomes dirty.
            mine.state = LineState::Modified;
            break;
          case LineState::Modified:
            break;
          case LineState::Invalid:
            break;
        }
        break;
    }
}

SnoopyResult
SnoopySystem::run(const std::vector<trace::RefSource *> &sources)
{
    if (sources.size() > cfg_.processors)
        fatal("snoopy: more traces than processors");
    std::vector<bool> live(sources.size(), true);
    bool any = !sources.empty();
    trace::MemRef ref;
    while (any) {
        any = false;
        for (std::size_t cpu = 0; cpu < sources.size(); ++cpu) {
            if (!live[cpu])
                continue;
            if (!sources[cpu]->next(ref)) {
                live[cpu] = false;
                continue;
            }
            step(static_cast<std::uint32_t>(cpu), ref);
            any = true;
        }
    }
    return result_;
}

} // namespace vmp::snoopy
