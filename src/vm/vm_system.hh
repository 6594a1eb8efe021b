/**
 * @file
 * The VMP virtual-memory system: frame allocation, per-ASID address
 * spaces with two-level page tables stored in (simulated) physical
 * memory and read through the cache, demand paging against a backing
 * store, and the Section 3.4 translation-consistency operations —
 * read-private on the PTE's cache page (implicit in the cached PTE
 * write), assert-ownership on every cache frame of the mapped page to
 * flush stale copies from all caches, then the PTE update.
 *
 * Kernel virtual addresses map linearly onto physical memory
 * (kva = kernelBase + paddr), modelling the kernel map held in local
 * memory: translating a kernel address never faults and never walks
 * tables, which bounds nested-miss depth exactly as the paper requires.
 */

#ifndef VMP_VM_VM_SYSTEM_HH
#define VMP_VM_VM_SYSTEM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "backing/budget.hh"
#include "backing/memory_tier.hh"
#include "backing/page_store.hh"
#include "mem/phys_mem.hh"
#include "proto/controller.hh"
#include "proto/translator.hh"
#include "sim/event.hh"
#include "sim/stats.hh"
#include "vm/page_table.hh"

namespace vmp::vm
{

// Demand paging keeps one image per vm page in the tier's PageStore.
static_assert(vmPageBytes == backing::kDefaultPageBytes,
              "vm page and default image granule must agree");

/** Start of the kernel window onto physical memory. */
constexpr Addr kernelBase = 0x1800'0000;
/** Start of user virtual space. */
constexpr Addr userBase = 0x2000'0000;

/** Low frames reserved for uncached use (locks, mailboxes). */
inline constexpr std::uint32_t kReservedFrames = 4;
/** Pageout stops once this many frames are free. */
inline constexpr std::uint32_t kFreeTarget = 8;

/** VM configuration knobs. */
struct VmConfig
{
    /** Memory-tier behavior, used as given: tier.diskLatencyNs is the
     *  backing-store latency per page transfer, and tier.pageBytes
     *  must be vmPageBytes. The default (Mirror mode) reproduces the
     *  legacy passive store bit-for-bit. */
    backing::TierConfig tier;
};

/** Allocator of vm-page frames over physical memory. */
class FrameAllocator
{
  public:
    FrameAllocator(std::uint64_t mem_bytes, std::uint32_t reserved);

    std::optional<std::uint32_t> alloc();
    void free(std::uint32_t frame);

    std::uint32_t totalFrames() const { return total_; }
    std::uint32_t freeFrames() const
    {
        return static_cast<std::uint32_t>(freeList_.size());
    }

  private:
    std::uint32_t total_;
    std::deque<std::uint32_t> freeList_;
};

/** One address space: the root directory held in "local memory". */
struct AddressSpace
{
    Asid asid = 0;
    /** directory index -> physical frame of the page-table page. */
    std::map<std::uint32_t, std::uint32_t> root;
};

/** A resident user page, for pageout victim scanning. */
struct ResidentPage
{
    Asid asid = 0;
    std::uint64_t vpn = 0;
    std::uint32_t frame = 0;
};

class VmSystem;

/**
 * Translator walking the real page tables via cached PTE reads (may
 * nest-miss), with the kernel window resolved from local memory. Bind
 * it to a VmSystem after the machine is constructed.
 */
class VmTranslator : public proto::Translator
{
  public:
    void bind(VmSystem &system) { system_ = &system; }

    void translate(const proto::TranslateRequest &req,
                   proto::CacheController &controller) override;

  private:
    VmSystem *system_ = nullptr;
};

/** The virtual-memory manager. */
class VmSystem
{
  public:
    using Done = std::function<void()>;

    VmSystem(EventQueue &events, mem::PhysMem &memory,
             const VmConfig &config = {});

    const VmConfig &config() const { return cfg_; }
    FrameAllocator &allocator() { return allocator_; }
    /** The modeled memory-tier node behind demand paging. */
    backing::MemoryTier &tier() { return tier_; }
    AddressSpace &space(Asid asid);

    /**
     * Arbitrate frame usage through @p budget: faults and occupancy
     * are reported per address space (clients auto-register as
     * "asidN"), and pageout prefers victims of over-grant spaces.
     * Null detaches. The controller is not owned.
     */
    void setBudgetController(backing::BudgetController *budget)
    {
        budget_ = budget;
    }

    /**
     * Install this VM system as @p controller's fault handler. The
     * controller must already use a VmTranslator bound to this system.
     */
    void attach(proto::CacheController &controller);

    /** Kernel virtual address of a physical address. */
    static Addr kvaOf(Addr paddr) { return kernelBase + paddr; }
    /** Physical address behind a kernel virtual address. */
    Addr paddrOfKva(Addr kva) const;
    /** True if @p vaddr lies in the kernel window. */
    bool isKernelAddr(Addr vaddr) const;

    /** Physical byte address of the PTE for <asid, vaddr>, if the
     *  page-table page exists. */
    std::optional<Addr> pteAddr(Asid asid, Addr vaddr);

    // --- pmap operations (Section 3.4), executed via a controller ---

    /**
     * Map <asid, vaddr> to @p frame with the given user/sup
     * permissions. Performs the full consistency sequence if the entry
     * was previously valid.
     */
    void mapPage(proto::CacheController &ctl, Asid asid, Addr vaddr,
                 std::uint32_t frame, bool user_read, bool user_write,
                 bool sup_write, Done done);

    /**
     * Remove the mapping of <asid, vaddr>; flushes every cache frame
     * of the old page from all caches. Yields the old frame (or
     * nothing if the mapping was not valid).
     */
    void unmapPage(proto::CacheController &ctl, Asid asid, Addr vaddr,
                   std::function<void(std::optional<std::uint32_t>)>
                       done);

    /**
     * Mark <asid, vaddr> as non-shared (Section 5.4 hint): subsequent
     * read misses fetch it read-private, pre-empting the write
     * upgrade. The PTE must be valid.
     */
    void setPrivateHint(proto::CacheController &ctl, Asid asid,
                        Addr vaddr, Done done);

    /**
     * Delete an address space (Section 3.4): unmap and free every
     * resident page (flushing all caches), release its page-table
     * pages and drop its backing-store images.
     */
    void destroySpace(proto::CacheController &ctl, Asid asid,
                      Done done);

    /**
     * Page out one resident page chosen by the clock algorithm
     * (skipping referenced pages and clearing their reference bits).
     * Yields false if nothing was evictable.
     */
    void pageOutOne(proto::CacheController &ctl,
                    std::function<void(bool)> done);

    /** Run pageout until kFreeTarget frames are free (daemon body). */
    void pageOutUntilTarget(proto::CacheController &ctl, Done done);

    /** Resident user pages (victim scan order). */
    const std::deque<ResidentPage> &residentPages() const
    {
        return resident_;
    }

    // --- statistics ---
    const Counter &pageFaults() const { return faults_; }
    const Counter &pageIns() const { return pageIns_; }
    const Counter &pageOuts() const { return pageOuts_; }
    const Counter &mapOps() const { return mapOps_; }
    /** Page-ins that had to wait for eviction before allocating. */
    const Counter &stalledPageIns() const { return stalledPageIns_; }
    /** Total ns the miss path spent waiting on eviction. */
    double evictionStallNs() const { return evictionStallNs_.value(); }
    void registerStats(StatGroup &group) const;

    /** Used by VmTranslator. */
    void translateUser(const proto::TranslateRequest &req,
                       proto::CacheController &controller);

  private:
    friend class VmTranslator;

    /** Handle a translation fault: demand-page or die. */
    void handleFault(proto::CacheController &ctl,
                     const proto::TranslateRequest &req, Done retry);
    /** Allocate (paging out if needed), fill and map a page. */
    void pageIn(proto::CacheController &ctl, Asid asid,
                std::uint64_t vpn, Done done);
    /** Flush, save to the tier and unmap one resident page (already
     *  removed from the resident list). */
    void evictPage(proto::CacheController &ctl,
                   const ResidentPage &page, Addr pte_paddr,
                   std::function<void(bool)> done);
    /** Budget-controller client id of @p asid (registers lazily). */
    std::uint32_t budgetClientOf(Asid asid);
    void noteBudgetFault(Asid asid);
    void noteBudgetUse(Asid asid, std::int32_t delta);
    /** Ensure the page-table page for <asid, vaddr> exists. */
    std::uint32_t ensurePtPage(Asid asid, Addr vaddr);
    /** Flush all cache frames of vm frame @p frame from all caches,
     *  cache page @p first onwards. */
    void flushVmFrame(proto::CacheController &ctl, std::uint32_t frame,
                      Done done, std::uint32_t first = 0);
    /** Unmap and free @p victims in turn, then release @p asid's
     *  page-table pages and images (the body of destroySpace). */
    void destroyPages(proto::CacheController &ctl, Asid asid,
                      std::shared_ptr<std::deque<ResidentPage>> victims,
                      Done done);
    /** One clock-algorithm step of pageOutOne, @p scanned pages in. */
    void clockScan(proto::CacheController &ctl, std::size_t scanned,
                   std::function<void(bool)> done);
    /** Write a PTE through the cache with ownership. */
    void writePte(proto::CacheController &ctl, Addr pte_paddr,
                  Pte pte, Done done);

    EventQueue &events_;
    mem::PhysMem &memory_;
    VmConfig cfg_;
    FrameAllocator allocator_;
    backing::MemoryTier tier_;
    backing::BudgetController *budget_ = nullptr;
    std::map<Asid, std::uint32_t> budgetClient_;
    std::map<Asid, AddressSpace> spaces_;
    std::deque<ResidentPage> resident_;

    Counter faults_;
    Counter pageIns_;
    Counter pageOuts_;
    Counter mapOps_;
    Counter stalledPageIns_;
    Scalar evictionStallNs_;
};

} // namespace vmp::vm

#endif // VMP_VM_VM_SYSTEM_HH
