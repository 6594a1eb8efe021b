#include "trace/trace_io.hh"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "sim/logging.hh"

namespace vmp::trace
{

namespace
{

/**
 * On-disk binary record: 16 bytes, little-endian. Field order is part of
 * the format; bump binaryVersion when changing it.
 */
struct PackedRef
{
    std::uint64_t vaddr;
    std::uint8_t asid;
    std::uint8_t type;
    std::uint8_t size;
    std::uint8_t flags; // bit 0: supervisor
    std::uint32_t reserved;
};
static_assert(sizeof(PackedRef) == 16, "trace record layout");

/** A text record's address: any base std::stoull takes, below 2^32. */
Addr
parseVaddr(const std::string &text, std::uint64_t line)
{
    std::size_t used = 0;
    unsigned long long value = 0;
    try {
        value = std::stoull(text, &used, 0);
    } catch (const std::logic_error &) {
        used = 0; // not a number, or beyond 64 bits
    }
    if (used == 0 || used != text.size())
        fatal("trace line ", line, ": bad address '", text, "'");
    if (value >= refAddrLimit)
        fatal("trace line ", line, ": address ", text,
              " does not fit 32 bits");
    return value;
}

} // namespace

BinaryTraceWriter::BinaryTraceWriter(std::ostream &os) : os_(os)
{
    os_.write(binaryMagic, sizeof(binaryMagic));
    const std::uint32_t version = binaryVersion;
    os_.write(reinterpret_cast<const char *>(&version), sizeof(version));
}

void
BinaryTraceWriter::write(const MemRef &ref)
{
    PackedRef p{};
    p.vaddr = ref.vaddr;
    p.asid = ref.asid;
    p.type = static_cast<std::uint8_t>(ref.type);
    p.size = ref.size;
    p.flags = ref.supervisor ? 1 : 0;
    p.reserved = 0;
    os_.write(reinterpret_cast<const char *>(&p), sizeof(p));
    ++written_;
}

BinaryTraceReader::BinaryTraceReader(std::istream &is) : is_(is)
{
    char magic[4] = {};
    std::uint32_t version = 0;
    is_.read(magic, sizeof(magic));
    is_.read(reinterpret_cast<char *>(&version), sizeof(version));
    if (!is_ || std::memcmp(magic, binaryMagic, sizeof(magic)) != 0)
        fatal("not a VMP binary trace (bad magic)");
    if (version != binaryVersion)
        fatal("unsupported trace version ", version);
}

bool
BinaryTraceReader::next(MemRef &ref)
{
    PackedRef p{};
    is_.read(reinterpret_cast<char *>(&p), sizeof(p));
    if (is_.gcount() == 0)
        return false;
    if (is_.gcount() != sizeof(p))
        fatal("truncated trace record");
    if (p.type > static_cast<std::uint8_t>(RefType::DataWrite))
        fatal("corrupt trace record: bad type ", unsigned{p.type});
    if (p.vaddr >= refAddrLimit)
        fatal("trace record: vaddr 0x", std::hex, p.vaddr,
              " does not fit 32 bits");
    ref.vaddr = p.vaddr;
    ref.asid = p.asid;
    ref.type = static_cast<RefType>(p.type);
    ref.size = p.size;
    ref.supervisor = (p.flags & 1) != 0;
    return true;
}

void
TextTraceWriter::write(const MemRef &ref)
{
    os_ << refTypeName(ref.type) << ' '
        << static_cast<unsigned>(ref.asid) << " 0x" << std::hex
        << ref.vaddr << std::dec << ' ' << static_cast<unsigned>(ref.size)
        << ' ' << (ref.supervisor ? "sup" : "usr") << '\n';
}

bool
TextTraceReader::next(MemRef &ref)
{
    std::string line;
    while (std::getline(is_, line)) {
        ++line_;
        // Strip comments and skip empty lines.
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream ls(line);
        std::string type, mode;
        unsigned asid = 0, size = 0;
        std::string addr;
        if (!(ls >> type))
            continue;
        if (!(ls >> asid >> addr >> size >> mode))
            fatal("trace line ", line_, ": malformed record");

        if (type == "ifetch") {
            ref.type = RefType::InstrFetch;
        } else if (type == "read") {
            ref.type = RefType::DataRead;
        } else if (type == "write") {
            ref.type = RefType::DataWrite;
        } else {
            fatal("trace line ", line_, ": unknown type '", type, "'");
        }
        if (asid > 255)
            fatal("trace line ", line_, ": asid out of range");
        ref.asid = static_cast<Asid>(asid);
        ref.vaddr = parseVaddr(addr, line_);
        if (size == 0 || size > 255)
            fatal("trace line ", line_, ": bad size");
        ref.size = static_cast<std::uint8_t>(size);
        if (mode == "sup") {
            ref.supervisor = true;
        } else if (mode == "usr") {
            ref.supervisor = false;
        } else {
            fatal("trace line ", line_, ": bad mode '", mode, "'");
        }
        return true;
    }
    return false;
}

std::vector<MemRef>
collect(RefSource &source, std::uint64_t limit)
{
    std::vector<MemRef> out;
    MemRef ref;
    while (limit-- > 0 && source.next(ref))
        out.push_back(ref);
    return out;
}

} // namespace vmp::trace
