#include "proto/translator.hh"

#include "proto/controller.hh"
#include "sim/logging.hh"

namespace vmp::proto
{

DemandTranslator::DemandTranslator(std::uint64_t mem_bytes,
                                   std::uint32_t page_bytes,
                                   Addr kernel_base, Addr kernel_limit,
                                   std::uint64_t reserved_frames)
    : pageBytes_(page_bytes), kernelBase_(kernel_base),
      kernelLimit_(kernel_limit)
{
    if (!isPowerOf2(page_bytes))
        fatal("demand translator: page size must be a power of two");
    if (mem_bytes % page_bytes != 0)
        fatal("demand translator: memory not a multiple of page size");
    frames_ = mem_bytes / page_bytes;
    if (reserved_frames >= frames_)
        fatal("demand translator: reservation exceeds memory");
    nextFrame_ = reserved_frames;
}

TranslateResult
DemandTranslator::translateNow(const TranslateRequest &req)
{
    const bool kernel =
        req.vaddr >= kernelBase_ && req.vaddr < kernelLimit_;
    // Kernel pages are shared across address spaces; user pages are
    // private per ASID.
    const Asid key_asid = kernel ? 0 : req.asid;
    const std::uint64_t key =
        std::uint64_t{key_asid} << 56 | req.vaddr / pageBytes_;

    auto it = map_.find(key);
    if (it == map_.end()) {
        // Check before inserting, so a failed page stays unmapped.
        if (nextFrame_ >= frames_)
            fatal("demand translator: out of physical frames (",
                  frames_, ")");
        it = map_.emplace(key, nextFrame_++).first;
    }

    TranslateResult res;
    res.ok = true;
    res.paddr = it->second * pageBytes_ + req.vaddr % pageBytes_;
    res.prot = static_cast<cache::SlotFlags>(
        cache::FlagSupWritable | cache::FlagUserReadable |
        cache::FlagUserWritable);
    res.privateHint = userPrivateHint_ && !kernel;
    return res;
}

void
DemandTranslator::translate(const TranslateRequest &req,
                            CacheController &controller)
{
    controller.translated(translateNow(req));
}

void
FixedTranslator::map(Asid asid, Addr vaddr, Addr paddr,
                     cache::SlotFlags prot, bool private_hint)
{
    map_[{asid, vaddr / pageBytes_}] =
        Entry{alignDown(paddr, pageBytes_), prot, private_hint};
}

void
FixedTranslator::unmap(Asid asid, Addr vaddr)
{
    map_.erase({asid, vaddr / pageBytes_});
}

void
FixedTranslator::translate(const TranslateRequest &req,
                           CacheController &controller)
{
    TranslateResult res; // ok == false unless mapped: page fault
    const auto it = map_.find({req.asid, req.vaddr / pageBytes_});
    if (it != map_.end()) {
        res.ok = true;
        res.paddr = it->second.frameBase + req.vaddr % pageBytes_;
        res.prot = it->second.prot;
        res.privateHint = it->second.privateHint;
    }
    controller.translated(res);
}

} // namespace vmp::proto
