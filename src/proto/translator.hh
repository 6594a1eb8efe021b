/**
 * @file
 * Virtual-to-physical translation interface used by the software miss
 * handler. The real two-level page-table implementation lives in
 * src/vm (and performs nested cached accesses, as in Section 2); the
 * simple translators here back protocol tests and timing-only
 * simulations.
 */

#ifndef VMP_PROTO_TRANSLATOR_HH
#define VMP_PROTO_TRANSLATOR_HH

#include <cstdint>
#include <map>
#include <unordered_map>

#include "cache/types.hh"
#include "sim/types.hh"

namespace vmp::proto
{

class CacheController;

/** One translation request (one faulting reference). */
struct TranslateRequest
{
    Asid asid = 0;
    Addr vaddr = 0;
    bool write = false;
    bool supervisor = false;
};

/** Result of a translation. */
struct TranslateResult
{
    /** False: no valid mapping (page fault). */
    bool ok = false;
    /** Physical address of the byte (page-aligned + offset). */
    Addr paddr = 0;
    /** Protection flags for the cache slot (SlotFlag bits). */
    cache::SlotFlags prot = 0;
    /**
     * Section 5.4 hint: the application declared this memory
     * non-shared, so even a *read* miss is served with read-private,
     * avoiding a later assert-ownership on the first write (and
     * flushing the page from the cache of the processor that last ran
     * the process).
     */
    bool privateHint = false;
};

/**
 * Translation provider. translate() is asynchronous because the real
 * implementation may miss in the cache while walking page tables stored
 * in virtual memory; @p controller gives it access to the invoking
 * processor's cached kernel accesses. The result goes to
 * controller.translated(), which continues the miss that asked.
 */
class Translator
{
  public:
    virtual ~Translator() = default;

    virtual void translate(const TranslateRequest &req,
                           CacheController &controller) = 0;
};

/**
 * Allocate-on-first-touch translator: each new virtual page gets the
 * next free physical frame. Pages in the kernel region are shared
 * across ASIDs (kernel space is part of every user space, Section 4);
 * user pages are private per ASID. Used by timing simulations, where a
 * real pager would add noise, and by protocol tests.
 */
class DemandTranslator : public Translator
{
  public:
    /**
     * @param mem_bytes physical memory available for allocation
     * @param page_bytes cache page size
     * @param kernel_base start of the ASID-shared kernel region
     * @param kernel_limit end of the kernel region
     * @param reserved_frames low frames kept out of allocation (for
     *        uncached locks, mailboxes and device buffers)
     */
    DemandTranslator(std::uint64_t mem_bytes, std::uint32_t page_bytes,
                     Addr kernel_base, Addr kernel_limit,
                     std::uint64_t reserved_frames = 16);

    void translate(const TranslateRequest &req,
                   CacheController &controller) override;

    /** Synchronous helper for tests and scripted programs. */
    TranslateResult translateNow(const TranslateRequest &req);

    /** Frames handed out so far. */
    std::uint64_t allocated() const { return nextFrame_; }

    /**
     * Declare user pages non-shared (Section 5.4): translations of
     * user-region addresses carry the private hint, so read misses
     * fetch read-private. User pages are per-ASID here, so the hint
     * is always safe; kernel pages stay shared.
     */
    void setUserPrivateHint(bool enabled) { userPrivateHint_ = enabled; }

  private:
    std::uint64_t frames_;
    std::uint32_t pageBytes_;
    Addr kernelBase_;
    Addr kernelLimit_;
    std::uint64_t nextFrame_ = 0;
    bool userPrivateHint_ = false;
    /** (asid-or-0 << 56 | vpn) -> frame; a vpn stays below 2^56 */
    std::unordered_map<std::uint64_t, std::uint64_t> map_;
};

/**
 * Fixed-map translator for tests: explicit <asid, vpage> -> frame
 * entries with per-entry protection; anything unmapped faults.
 */
class FixedTranslator : public Translator
{
  public:
    explicit FixedTranslator(std::uint32_t page_bytes)
        : pageBytes_(page_bytes)
    {}

    /** Map virtual page of @p vaddr for @p asid onto @p paddr's frame. */
    void map(Asid asid, Addr vaddr, Addr paddr, cache::SlotFlags prot,
             bool private_hint = false);
    void unmap(Asid asid, Addr vaddr);

    void translate(const TranslateRequest &req,
                   CacheController &controller) override;

  private:
    struct Entry
    {
        Addr frameBase;
        cache::SlotFlags prot;
        bool privateHint;
    };

    std::uint32_t pageBytes_;
    std::map<std::pair<Asid, std::uint64_t>, Entry> map_;
};

} // namespace vmp::proto

#endif // VMP_PROTO_TRANSLATOR_HH
