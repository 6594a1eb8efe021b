#include "vm/vm_system.hh"

#include <memory>
#include <string>

#include "sim/debug.hh"
#include "sim/logging.hh"

namespace vmp::vm
{

namespace
{

/** @p config's tier, whose image granule must be the vm page. */
const backing::TierConfig &
checkedTier(const VmConfig &config)
{
    if (config.tier.pageBytes != vmPageBytes)
        fatal("vm: tier.pageBytes ", config.tier.pageBytes,
              " is not the ", vmPageBytes, "-byte vm page");
    return config.tier;
}

} // namespace

// --------------------------------------------------------------------
// FrameAllocator
// --------------------------------------------------------------------

FrameAllocator::FrameAllocator(std::uint64_t mem_bytes,
                               std::uint32_t reserved)
{
    const std::uint64_t frames = mem_bytes / vmPageBytes;
    if (frames == 0 || reserved >= frames)
        fatal("frame allocator: no allocatable frames");
    total_ = static_cast<std::uint32_t>(frames);
    for (std::uint32_t f = reserved; f < frames; ++f)
        freeList_.push_back(f);
}

std::optional<std::uint32_t>
FrameAllocator::alloc()
{
    if (freeList_.empty())
        return std::nullopt;
    const std::uint32_t frame = freeList_.front();
    freeList_.pop_front();
    return frame;
}

void
FrameAllocator::free(std::uint32_t frame)
{
    if (frame >= total_)
        panic("freeing frame ", frame, " out of range");
    freeList_.push_back(frame);
}

// --------------------------------------------------------------------
// VmTranslator
// --------------------------------------------------------------------

void
VmTranslator::translate(const proto::TranslateRequest &req,
                        proto::CacheController &controller)
{
    if (system_ == nullptr)
        fatal("VmTranslator used before bind()");

    if (system_->isKernelAddr(req.vaddr)) {
        // Kernel window: linear map resolved from local memory.
        proto::TranslateResult result;
        result.ok = true;
        result.paddr = system_->paddrOfKva(req.vaddr);
        result.prot = cache::FlagSupWritable;
        controller.translated(result);
        return;
    }
    if (req.vaddr < userBase) {
        // Device / boot regions: not translatable memory.
        controller.translated(proto::TranslateResult{});
        return;
    }
    system_->translateUser(req, controller);
}

// --------------------------------------------------------------------
// VmSystem
// --------------------------------------------------------------------

VmSystem::VmSystem(EventQueue &events, mem::PhysMem &memory,
                   const VmConfig &config)
    : events_(events), memory_(memory), cfg_(config),
      allocator_(memory.size(), kReservedFrames),
      tier_(events, checkedTier(config))
{
}

AddressSpace &
VmSystem::space(Asid asid)
{
    auto &s = spaces_[asid];
    s.asid = asid;
    return s;
}

void
VmSystem::attach(proto::CacheController &controller)
{
    controller.setFaultHandler(
        [this, &controller](const proto::TranslateRequest &req,
                            Done retry) {
            handleFault(controller, req, std::move(retry));
        });
}

bool
VmSystem::isKernelAddr(Addr vaddr) const
{
    return vaddr >= kernelBase && vaddr < kernelBase + memory_.size();
}

Addr
VmSystem::paddrOfKva(Addr kva) const
{
    if (!isKernelAddr(kva))
        panic("not a kernel address: 0x", std::hex, kva);
    return kva - kernelBase;
}

std::optional<Addr>
VmSystem::pteAddr(Asid asid, Addr vaddr)
{
    const std::uint64_t vpn = vpnOf(vaddr);
    const auto &root = space(asid).root;
    const auto it = root.find(dirIndexOf(vpn));
    if (it == root.end())
        return std::nullopt;
    return static_cast<Addr>(it->second) * vmPageBytes +
        pteIndexOf(vpn) * 4;
}

std::uint32_t
VmSystem::ensurePtPage(Asid asid, Addr vaddr)
{
    const std::uint32_t dir = dirIndexOf(vpnOf(vaddr));
    auto &root = space(asid).root;
    const auto it = root.find(dir);
    if (it != root.end())
        return it->second;
    const auto frame = allocator_.alloc();
    if (!frame)
        fatal("out of physical memory allocating a page-table page");
    // Fresh page tables are zero (all entries invalid); initialization
    // is a non-architected write (OS setup / DMA).
    memory_.zeroInit(static_cast<Addr>(*frame) * vmPageBytes,
                     vmPageBytes);
    root[dir] = *frame;
    return *frame;
}

void
VmSystem::translateUser(const proto::TranslateRequest &req,
                        proto::CacheController &controller)
{
    const auto pte_paddr = pteAddr(req.asid, req.vaddr);
    if (!pte_paddr) {
        // Fault: no page-table page.
        controller.translated(proto::TranslateResult{});
        return;
    }
    const Addr pte_kva = kvaOf(*pte_paddr);
    // The PTE read may nest-miss; its record is popped before this
    // continuation runs, so translated() reaches the asking miss.
    controller.readWord(
        kernelAsid, pte_kva, true,
        [req, pte_kva, &controller](std::uint32_t raw) {
            Pte pte{raw};
            if (!pte.valid()) {
                controller.translated(proto::TranslateResult{});
                return;
            }
            proto::TranslateResult result;
            result.ok = true;
            result.paddr = static_cast<Addr>(pte.frame()) * vmPageBytes +
                req.vaddr % vmPageBytes;
            result.prot = pte.slotProt();
            result.privateHint = pte.privateHint();

            // Maintain referenced/modified bits in the PTE (the
            // pageout daemon relies on them; Section 3.4).
            const bool need_ref = !pte.referenced();
            const bool need_mod = req.write && !pte.modified();
            if (need_ref || need_mod) {
                pte.setReferenced();
                if (req.write)
                    pte.setModified();
                controller.writeWord(
                    kernelAsid, pte_kva, pte.raw, true,
                    [result, &controller] {
                        controller.translated(result);
                    });
            } else {
                controller.translated(result);
            }
        });
}

void
VmSystem::handleFault(proto::CacheController &ctl,
                      const proto::TranslateRequest &req, Done retry)
{
    if (req.vaddr < userBase)
        fatal("unresolvable fault at 0x", std::hex, req.vaddr,
              std::dec, " (kernel/device region)");

    const auto pte_paddr = pteAddr(req.asid, req.vaddr);
    if (!pte_paddr) {
        ++faults_;
        noteBudgetFault(req.asid);
        pageIn(ctl, req.asid, vpnOf(req.vaddr), std::move(retry));
        return;
    }
    // Read the PTE coherently (a cache may hold the page-table page
    // dirty; main memory can be stale).
    ctl.readWord(
        kernelAsid, kvaOf(*pte_paddr), true,
        [this, &ctl, req, retry = std::move(retry)](std::uint32_t raw) {
            const Pte pte{raw};
            if (pte.valid()) {
                // Valid mapping but insufficient permission: a genuine
                // protection violation (no copy-on-write here).
                fatal("protection violation: asid ",
                      unsigned{req.asid},
                      (req.write ? " write" : " read"), " at 0x",
                      std::hex, req.vaddr);
            }
            ++faults_;
            noteBudgetFault(req.asid);
            VMP_DTRACE(debug::Vm, events_.now(), "fault asid=",
                       unsigned{req.asid}, " va=0x", std::hex,
                       req.vaddr, std::dec);
            pageIn(ctl, req.asid, vpnOf(req.vaddr), retry);
        });
}

void
VmSystem::pageIn(proto::CacheController &ctl, Asid asid,
                 std::uint64_t vpn, Done done)
{
    const auto go = [this, &ctl, asid, vpn,
                     done = std::move(done)](std::uint32_t frame) {
        // Tier transfer (or zero-fill) into the frame; the host-side
        // copy bypasses the bus model (unless the tier has a DMA
        // engine attached) and is bracketed by the pageout/flush
        // protocol that guarantees no cached copies of a free frame
        // exist.
        const Addr base = static_cast<Addr>(frame) * vmPageBytes;
        tier_.fetchPage(
            asid, vpn, base,
            [this, &ctl, asid, vpn, frame, base,
             done](const std::vector<std::uint8_t> *image) {
                if (image) {
                    memory_.initBlock(base, image->data(),
                                      vmPageBytes);
                } else {
                    memory_.zeroInit(base, vmPageBytes);
                }
                ++pageIns_;
                mapPage(ctl, asid, vpn * vmPageBytes, frame, true,
                        true, true, done);
            });
    };

    const auto frame = allocator_.alloc();
    if (frame) {
        go(*frame);
        return;
    }
    // Memory pressure: run pageout, then retry the allocation. The
    // wait here is the miss-path eviction stall bench_memtier gates
    // on — with the async tier it ends at arena accept, not at
    // backend write-back.
    const Tick stall_start = events_.now();
    pageOutUntilTarget(ctl, [this, go, stall_start] {
        evictionStallNs_ +=
            static_cast<double>(events_.now() - stall_start);
        ++stalledPageIns_;
        const auto frame = allocator_.alloc();
        if (!frame)
            fatal("out of memory: pageout reclaimed nothing");
        go(*frame);
    });
}

void
VmSystem::writePte(proto::CacheController &ctl, Addr pte_paddr,
                   Pte pte, Done done)
{
    // The cached supervisor write acquires exclusive ownership of the
    // PTE's cache page — the "read-private on pt" of Section 3.4.
    ctl.writeWord(kernelAsid, kvaOf(pte_paddr), pte.raw, true,
                  std::move(done));
}

void
VmSystem::flushVmFrame(proto::CacheController &ctl,
                       std::uint32_t frame, Done done,
                       std::uint32_t first)
{
    const std::uint32_t cache_page = memory_.pageBytes();
    if (first >= vmPageBytes / cache_page) {
        done();
        return;
    }
    const Addr paddr =
        static_cast<Addr>(frame) * vmPageBytes + first * cache_page;
    // assert-ownership forces every other cache to discard or write
    // back its copy; our own copy (possibly dirty) is flushed through
    // the cache-control interface; then the temporary Protect entry is
    // released.
    ctl.assertOwnership(paddr, [this, &ctl, frame, first, paddr,
                                done = std::move(done)] {
        ctl.flushFrame(paddr, [this, &ctl, frame, first, paddr, done] {
            ctl.releaseProtection(paddr, [this, &ctl, frame, first,
                                          done] {
                flushVmFrame(ctl, frame, done, first + 1);
            });
        });
    });
}

void
VmSystem::mapPage(proto::CacheController &ctl, Asid asid, Addr vaddr,
                  std::uint32_t frame, bool user_read, bool user_write,
                  bool sup_write, Done done)
{
    ensurePtPage(asid, vaddr);
    const Addr pte_paddr = *pteAddr(asid, vaddr);
    const std::uint64_t vpn = vpnOf(vaddr);
    const Pte new_pte = Pte::make(frame, user_read, user_write,
                                  sup_write);

    ctl.readWord(
        kernelAsid, kvaOf(pte_paddr), true,
        [this, &ctl, asid, vpn, pte_paddr, new_pte, frame,
         done = std::move(done)](std::uint32_t raw) {
            const Pte old{raw};
            const auto finish = [this, &ctl, asid, vpn, pte_paddr,
                                 new_pte, frame, done] {
                writePte(ctl, pte_paddr, new_pte,
                         [this, asid, vpn, frame, done] {
                             resident_.push_back(
                                 ResidentPage{asid, vpn, frame});
                             noteBudgetUse(asid, +1);
                             ++mapOps_;
                             done();
                         });
            };
            if (old.valid()) {
                // Remapping: flush the old page's cache frames from
                // every cache before the translation changes.
                for (auto it = resident_.begin();
                     it != resident_.end(); ++it) {
                    if (it->asid == asid && it->vpn == vpn) {
                        resident_.erase(it);
                        noteBudgetUse(asid, -1);
                        break;
                    }
                }
                flushVmFrame(ctl, old.frame(), finish);
            } else {
                finish();
            }
        });
}

void
VmSystem::unmapPage(
    proto::CacheController &ctl, Asid asid, Addr vaddr,
    std::function<void(std::optional<std::uint32_t>)> done)
{
    const auto pte_paddr = pteAddr(asid, vaddr);
    if (!pte_paddr) {
        done(std::nullopt);
        return;
    }
    const std::uint64_t vpn = vpnOf(vaddr);
    ctl.readWord(
        kernelAsid, kvaOf(*pte_paddr), true,
        [this, &ctl, asid, vpn, pte_paddr = *pte_paddr,
         done = std::move(done)](std::uint32_t raw) {
            const Pte old{raw};
            if (!old.valid()) {
                done(std::nullopt);
                return;
            }
            for (auto it = resident_.begin(); it != resident_.end();
                 ++it) {
                if (it->asid == asid && it->vpn == vpn) {
                    resident_.erase(it);
                    noteBudgetUse(asid, -1);
                    break;
                }
            }
            flushVmFrame(ctl, old.frame(), [this, &ctl, pte_paddr,
                                            old, done] {
                writePte(ctl, pte_paddr, Pte{},
                         [old, done] { done(old.frame()); });
            });
        });
}

void
VmSystem::setPrivateHint(proto::CacheController &ctl, Asid asid,
                         Addr vaddr, Done done)
{
    const auto pte_paddr = pteAddr(asid, vaddr);
    if (!pte_paddr)
        fatal("setPrivateHint: no page-table page for 0x", std::hex,
              vaddr);
    ctl.readWord(
        kernelAsid, kvaOf(*pte_paddr), true,
        [this, &ctl, pte_paddr = *pte_paddr,
         done = std::move(done)](std::uint32_t raw) {
            Pte pte{raw};
            if (!pte.valid())
                fatal("setPrivateHint on an invalid mapping");
            pte.setPrivateHint();
            writePte(ctl, pte_paddr, pte, done);
        });
}

void
VmSystem::destroySpace(proto::CacheController &ctl, Asid asid,
                       Done done)
{
    // Collect the space's resident pages up front; unmapPage edits the
    // resident list as we go.
    auto victims = std::make_shared<std::deque<ResidentPage>>();
    for (const auto &page : resident_) {
        if (page.asid == asid)
            victims->push_back(page);
    }
    destroyPages(ctl, asid, std::move(victims), std::move(done));
}

void
VmSystem::destroyPages(proto::CacheController &ctl, Asid asid,
                       std::shared_ptr<std::deque<ResidentPage>> victims,
                       Done done)
{
    if (victims->empty()) {
        // Release the page-table pages and disk images.
        auto &root = space(asid).root;
        for (const auto &[dir, frame] : root)
            allocator_.free(frame);
        root.clear();
        spaces_.erase(asid);
        tier_.dropSpace(asid);
        done();
        return;
    }
    const ResidentPage page = victims->front();
    victims->pop_front();
    unmapPage(ctl, asid, page.vpn * vmPageBytes,
              [this, &ctl, asid, victims,
               done = std::move(done)](std::optional<std::uint32_t> frame) {
                  if (frame)
                      allocator_.free(*frame);
                  destroyPages(ctl, asid, victims, done);
              });
}

void
VmSystem::evictPage(proto::CacheController &ctl,
                    const ResidentPage &page, Addr pte_paddr,
                    std::function<void(bool)> done)
{
    // Evict: flush all caches, then save to the tier and invalidate.
    flushVmFrame(ctl, page.frame, [this, &ctl, page, pte_paddr,
                                   done = std::move(done)] {
        const Addr base = static_cast<Addr>(page.frame) * vmPageBytes;
        std::vector<std::uint8_t> image(vmPageBytes);
        memory_.readBlock(base, image.data(), vmPageBytes);
        tier_.storePage(
            page.asid, page.vpn, base, std::move(image),
            [this, &ctl, page, pte_paddr, done] {
                writePte(ctl, pte_paddr, Pte{},
                         [this, page, done] {
                             allocator_.free(page.frame);
                             ++pageOuts_;
                             noteBudgetUse(page.asid, -1);
                             VMP_DTRACE(debug::Vm, events_.now(),
                                        "pageout asid=",
                                        unsigned{page.asid},
                                        " vpn=", page.vpn,
                                        " frame=", page.frame);
                             done(true);
                         });
            });
    });
}

void
VmSystem::pageOutOne(proto::CacheController &ctl,
                     std::function<void(bool)> done)
{
    // Budget arbitration: prefer victims of spaces running over their
    // controller grant, bypassing the second chance — the grant says
    // the space must shed pages now.
    if (budget_ != nullptr) {
        for (auto it = resident_.begin(); it != resident_.end();
             ++it) {
            const auto client = budgetClient_.find(it->asid);
            if (client == budgetClient_.end() ||
                !budget_->overGrant(client->second))
                continue;
            const ResidentPage page = *it;
            const auto pte_paddr =
                pteAddr(page.asid, page.vpn * vmPageBytes);
            if (!pte_paddr)
                continue;
            resident_.erase(it);
            evictPage(ctl, page, *pte_paddr, std::move(done));
            return;
        }
    }

    clockScan(ctl, 0, std::move(done));
}

void
VmSystem::clockScan(proto::CacheController &ctl, std::size_t scanned,
                    std::function<void(bool)> done)
{
    // Clock algorithm over the resident list: skip-and-clear
    // referenced pages for at most two sweeps, then give up.
    if (resident_.empty() || scanned >= 2 * resident_.size()) {
        done(false);
        return;
    }
    const ResidentPage page = resident_.front();
    resident_.pop_front();
    const auto pte_paddr = pteAddr(page.asid, page.vpn * vmPageBytes);
    if (!pte_paddr) {
        // Should not happen; treat as already gone.
        clockScan(ctl, scanned + 1, std::move(done));
        return;
    }
    ctl.readWord(
        kernelAsid, kvaOf(*pte_paddr), true,
        [this, &ctl, page, pte_paddr = *pte_paddr, scanned,
         done = std::move(done)](std::uint32_t raw) {
            Pte pte{raw};
            if (!pte.valid()) {
                clockScan(ctl, scanned + 1, done);
                return;
            }
            if (pte.referenced()) {
                // Second chance: clear the bit, move to the back.
                pte.clearReferenced();
                resident_.push_back(page);
                writePte(ctl, pte_paddr, pte, [this, &ctl, scanned, done] {
                    clockScan(ctl, scanned + 1, done);
                });
                return;
            }
            evictPage(ctl, page, pte_paddr, done);
        });
}

void
VmSystem::pageOutUntilTarget(proto::CacheController &ctl, Done done)
{
    if (allocator_.freeFrames() >= kFreeTarget) {
        done();
        return;
    }
    pageOutOne(ctl, [this, &ctl, done = std::move(done)](bool evicted) {
        if (evicted)
            pageOutUntilTarget(ctl, done);
        else
            done();
    });
}

std::uint32_t
VmSystem::budgetClientOf(Asid asid)
{
    const auto it = budgetClient_.find(asid);
    if (it != budgetClient_.end())
        return it->second;
    const auto id =
        budget_->addClient("asid" + std::to_string(asid));
    budgetClient_[asid] = id;
    return id;
}

void
VmSystem::noteBudgetFault(Asid asid)
{
    if (budget_ != nullptr)
        budget_->noteFault(budgetClientOf(asid));
}

void
VmSystem::noteBudgetUse(Asid asid, std::int32_t delta)
{
    if (budget_ != nullptr)
        budget_->noteUse(budgetClientOf(asid), delta);
}

void
VmSystem::registerStats(StatGroup &group) const
{
    group.addCounter("page_faults", "translation faults taken",
                     faults_);
    group.addCounter("page_ins", "pages brought in from the store",
                     pageIns_);
    group.addCounter("page_outs", "pages evicted to the store",
                     pageOuts_);
    group.addCounter("map_ops", "pmap map operations", mapOps_);
    group.addCounter("stalled_page_ins",
                     "page-ins that waited on eviction",
                     stalledPageIns_);
    group.addScalar("eviction_stall_ns",
                    "total ns the miss path waited on eviction",
                    evictionStallNs_);
}

} // namespace vmp::vm
