/**
 * @file
 * Main (global) memory: a byte address space viewed as a sequence of
 * cache page frames. The static-column access timing of the paper's
 * memory boards lives in the bus model; this class is the storage plus
 * frame arithmetic and a write-back audit counter used to check the
 * paper's invariant that write-back is the only transaction modifying
 * memory.
 *
 * Storage is sparse: a frame is allocated, zero-filled, on its first
 * write, and reads of a frame never written return zeros. A run pays
 * only for the frames it touches, not for the whole 8 MiB.
 */

#ifndef VMP_MEM_PHYS_MEM_HH
#define VMP_MEM_PHYS_MEM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace vmp::mem
{

/** Physical memory storage. */
class PhysMem
{
  public:
    /**
     * @param bytes total physical memory (prototype maximum: 8 MiB)
     * @param page_bytes cache page size, for frame arithmetic
     */
    PhysMem(std::uint64_t bytes, std::uint32_t page_bytes);

    std::uint64_t size() const { return bytes_; }
    std::uint32_t pageBytes() const { return pageBytes_; }
    std::uint64_t frames() const { return size() / pageBytes_; }

    /** Frame number containing @p paddr. */
    std::uint64_t frameOf(Addr paddr) const;
    /** Base address of frame @p frame. */
    Addr frameBase(std::uint64_t frame) const;

    /** Raw block access (bus-side). Bounds-checked. */
    void readBlock(Addr paddr, void *dst, std::uint32_t len) const;
    void writeBlock(Addr paddr, const void *src, std::uint32_t len);

    /** Word helpers used by tests and the scripted-program CPUs. */
    std::uint32_t readWord(Addr paddr) const;
    void writeWord(Addr paddr, std::uint32_t value);

    /**
     * Initialization write that is not an architected bus write: used
     * for paging-disk transfers and OS page zeroing, which in the real
     * machine are DMA operations bracketed by the Section 3.3 lock +
     * assert-ownership protocol. Counted separately so the "only
     * write-backs modify memory" invariant stays checkable.
     */
    void initBlock(Addr paddr, const void *src, std::uint32_t len);
    /** Zero-fill variant of initBlock. */
    void zeroInit(Addr paddr, std::uint32_t len);

    const Counter &writes() const { return writes_; }
    const Counter &initWrites() const { return initWrites_; }

    /** Frames holding allocated storage (written at least once). */
    std::uint64_t residentFrames() const { return resident_; }

  private:
    void checkRange(Addr paddr, std::uint32_t len) const;
    /**
     * Split [paddr, paddr + len) at frame boundaries and call
     * @p fn(frame, offset-in-frame, offset-in-buffer, length) per piece.
     */
    template <typename Fn>
    void forEachPiece(Addr paddr, std::uint32_t len, Fn fn) const;
    /** Copy @p src into memory, allocating untouched frames. */
    void store(Addr paddr, const void *src, std::uint32_t len);

    std::uint64_t bytes_;
    std::uint32_t pageBytes_;
    /** Per-frame storage; null until the frame's first write. */
    std::vector<std::unique_ptr<std::uint8_t[]>> frames_;
    std::uint64_t resident_ = 0;
    Counter writes_;
    Counter initWrites_;
};

} // namespace vmp::mem

#endif // VMP_MEM_PHYS_MEM_HH
