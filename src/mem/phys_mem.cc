#include "mem/phys_mem.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace vmp::mem
{

PhysMem::PhysMem(std::uint64_t bytes, std::uint32_t page_bytes)
    : bytes_(bytes), pageBytes_(page_bytes)
{
    if (!isPowerOf2(page_bytes))
        fatal("physical memory page size must be a power of two");
    if (bytes == 0 || bytes % page_bytes != 0)
        fatal("physical memory size must be a positive multiple of the "
              "page size");
    frames_.resize(bytes / page_bytes);
}

std::uint64_t
PhysMem::frameOf(Addr paddr) const
{
    checkRange(paddr, 1);
    return paddr / pageBytes_;
}

Addr
PhysMem::frameBase(std::uint64_t frame) const
{
    if (frame >= frames())
        panic("frame ", frame, " out of range (", frames(), " frames)");
    return frame * pageBytes_;
}

void
PhysMem::checkRange(Addr paddr, std::uint32_t len) const
{
    if (paddr + len > bytes_ || paddr + len < paddr)
        panic("physical access [0x", std::hex, paddr, ", +", std::dec,
              len, ") beyond memory of ", bytes_, " bytes");
}

template <typename Fn>
void
PhysMem::forEachPiece(Addr paddr, std::uint32_t len, Fn fn) const
{
    std::uint32_t done = 0;
    while (done < len) {
        const Addr at = paddr + done;
        const auto offset = static_cast<std::uint32_t>(at % pageBytes_);
        const std::uint32_t piece =
            std::min(len - done, pageBytes_ - offset);
        fn(at / pageBytes_, offset, done, piece);
        done += piece;
    }
}

void
PhysMem::store(Addr paddr, const void *src, std::uint32_t len)
{
    const auto *in = static_cast<const std::uint8_t *>(src);
    forEachPiece(paddr, len,
                 [this, in](std::uint64_t frame, std::uint32_t offset,
                            std::uint32_t pos, std::uint32_t piece) {
                     auto &storage = frames_[frame];
                     if (!storage) {
                         storage.reset(new std::uint8_t[pageBytes_]());
                         ++resident_;
                     }
                     std::memcpy(storage.get() + offset, in + pos, piece);
                 });
}

void
PhysMem::readBlock(Addr paddr, void *dst, std::uint32_t len) const
{
    checkRange(paddr, len);
    auto *out = static_cast<std::uint8_t *>(dst);
    forEachPiece(paddr, len,
                 [this, out](std::uint64_t frame, std::uint32_t offset,
                             std::uint32_t pos, std::uint32_t piece) {
                     const auto &storage = frames_[frame];
                     if (storage)
                         std::memcpy(out + pos, storage.get() + offset,
                                     piece);
                     else
                         std::memset(out + pos, 0, piece);
                 });
}

void
PhysMem::writeBlock(Addr paddr, const void *src, std::uint32_t len)
{
    checkRange(paddr, len);
    store(paddr, src, len);
    ++writes_;
}

void
PhysMem::initBlock(Addr paddr, const void *src, std::uint32_t len)
{
    checkRange(paddr, len);
    store(paddr, src, len);
    ++initWrites_;
}

void
PhysMem::zeroInit(Addr paddr, std::uint32_t len)
{
    checkRange(paddr, len);
    // An untouched frame already reads as zeros: nothing to allocate.
    forEachPiece(paddr, len,
                 [this](std::uint64_t frame, std::uint32_t offset,
                        std::uint32_t, std::uint32_t piece) {
                     if (const auto &storage = frames_[frame])
                         std::memset(storage.get() + offset, 0, piece);
                 });
    ++initWrites_;
}

std::uint32_t
PhysMem::readWord(Addr paddr) const
{
    std::uint32_t v = 0;
    readBlock(paddr, &v, sizeof(v));
    return v;
}

void
PhysMem::writeWord(Addr paddr, std::uint32_t value)
{
    writeBlock(paddr, &value, sizeof(value));
}

} // namespace vmp::mem
