/**
 * @file
 * Memory-reference records: the unit of work that trace-driven CPU models
 * consume, and the record stored in trace files. Modelled on the ATUM
 * traces used in the paper (Section 5.2): each record is one 4-byte
 * (default) reference with an address-space identifier and a
 * user/supervisor flag so operating-system activity can be distinguished.
 */

#ifndef VMP_TRACE_REF_HH
#define VMP_TRACE_REF_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace vmp::trace
{

/** What kind of access a reference is. */
enum class RefType : std::uint8_t
{
    InstrFetch = 0,
    DataRead = 1,
    DataWrite = 2,
};

/** Human-readable name for a RefType. */
const char *refTypeName(RefType type);

/**
 * One past the highest address a reference can carry. The paper's
 * processor is a 68020 with a 32-bit virtual address space, and its
 * traces are ATUM VAX traces (Section 5.2), so 32 bits hold every
 * reference; the producers (SyntheticConfig::check() and the trace
 * readers) reject anything at or above this limit rather than let the
 * record truncate it.
 */
constexpr Addr refAddrLimit = Addr{1} << 32;

/**
 * One memory reference, packed into one 8-byte word: a 32-bit vaddr,
 * then asid, type, size and the supervisor flag. Half the size of the
 * unpacked record, so a pre-generated stream takes half the memory,
 * and a whole record is one 8-byte load or store. vaddr keeps the
 * type Addr, but it is a 32-bit field: arithmetic on it promotes to
 * 32 bits, so widen it (Addr{ref.vaddr}) before adding to it.
 */
struct MemRef
{
    Addr vaddr : 32 = 0;
    Asid asid : 8 = 0;
    RefType type : 8 = RefType::DataRead;
    std::uint8_t size : 8 = 4;
    /** True for operating-system (supervisor-mode) references. */
    bool supervisor : 1 = false;

    bool isWrite() const { return type == RefType::DataWrite; }
    bool isFetch() const { return type == RefType::InstrFetch; }

    bool
    operator==(const MemRef &other) const
    {
        return vaddr == other.vaddr && asid == other.asid &&
            type == other.type && size == other.size &&
            supervisor == other.supervisor;
    }

    std::string toString() const;
};
static_assert(sizeof(MemRef) == 8, "a reference is one 8-byte word");

/**
 * Abstract pull-source of references. Both trace-file readers and the
 * synthetic generator implement this, so every consumer (fast cache
 * simulator, full multiprocessor model, analyzers) is trace-agnostic.
 */
class RefSource
{
  public:
    virtual ~RefSource() = default;

    /**
     * Produce the next reference into @p ref.
     * @return false when the source is exhausted.
     */
    virtual bool next(MemRef &ref) = 0;
};

} // namespace vmp::trace

#endif // VMP_TRACE_REF_HH
