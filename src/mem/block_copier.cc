#include "mem/block_copier.hh"

#include "sim/logging.hh"

namespace vmp::mem
{

BlockCopier::BlockCopier(std::uint32_t master_id, VmeBus &bus)
    : masterId_(master_id), bus_(bus)
{
}

void
BlockCopier::start(const BusTransaction &tx, Completion done)
{
    if (busy_)
        panic("block copier of master ", masterId_,
              " started while busy");
    busy_ = true;
    ++copies_;
    startedAt_ = bus_.eventQueue().now();
    tx_ = tx;
    done_ = done;
    // Fault injection: stall the engine before the request hits the
    // bus. busy_ is already set, so the CPU blocks exactly as it would
    // on a slow copier.
    if (hooks_ != nullptr) {
        const Tick stall = hooks_->injectCopierStall(tx);
        if (stall > 0) {
            ++stalled_;
            bus_.eventQueue().scheduleIn(
                stall, Thunk::to<&BlockCopier::issue>(this),
                "copier-stall");
            return;
        }
    }
    issue();
}

void
BlockCopier::issue()
{
    bus_.request(tx_, Completion{this, 0});
}

void
BlockCopier::busDone(std::uint64_t, const TxResult &res)
{
    busy_ = false;
    if (res.aborted)
        ++aborted_;
    if (tracer_ != nullptr) {
        const Tick now = bus_.eventQueue().now();
        obs::TraceEvent event;
        event.kind = obs::EventKind::Copy;
        event.at = startedAt_;
        event.addr = tx_.paddr;
        event.arg0 = now - startedAt_;
        event.arg1 = res.busTime;
        event.master = masterId_;
        event.track = traceTrack_;
        event.aux = static_cast<std::uint8_t>(tx_.type) |
            (res.aborted ? 0x80u : 0u);
        tracer_->record(event);
    }
    done_(res);
}

void
BlockCopier::readPage(Addr paddr, std::uint8_t *buffer,
                      std::uint32_t bytes, bool exclusive,
                      Completion done)
{
    BusTransaction tx;
    tx.type = exclusive ? TxType::ReadPrivate : TxType::ReadShared;
    tx.requester = masterId_;
    tx.paddr = paddr;
    tx.bytes = bytes;
    tx.data = buffer;
    tx.newEntry = exclusive ? ActionEntry::Protect : ActionEntry::Shared;
    tx.updatesTable = true;
    start(tx, done);
}

void
BlockCopier::writeBackPage(Addr paddr, const std::uint8_t *buffer,
                           std::uint32_t bytes, ActionEntry after,
                           Completion done)
{
    BusTransaction tx;
    tx.type = TxType::WriteBack;
    tx.requester = masterId_;
    tx.paddr = paddr;
    tx.bytes = bytes;
    // The bus only reads from this buffer for write-back transactions.
    tx.data = const_cast<std::uint8_t *>(buffer);
    tx.newEntry = after;
    tx.updatesTable = true;
    start(tx, done);
}

} // namespace vmp::mem
