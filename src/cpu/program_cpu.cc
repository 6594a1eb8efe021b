#include "cpu/program_cpu.hh"

#include "sim/logging.hh"

namespace vmp::cpu
{

ProgramCpu::ProgramCpu(CpuId id, EventQueue &events,
                       proto::CacheController &controller, Asid asid,
                       Program program, const M68020Timing &timing,
                       std::uint64_t max_ops)
    : id_(id), events_(events), controller_(controller), asid_(asid),
      program_(std::move(program)), timing_(timing), maxOps_(max_ops)
{
    controller_.setNotifyHandler(
        [this](Addr paddr) { onNotify(paddr); });
    // A halted (or notify-waiting) processor still takes bus-monitor
    // interrupts: it may own pages other processors need.
    controller_.setIrqService(proto::IrqService::Idle);
}

ProgramCpu::~ProgramCpu()
{
    // Unhook callbacks that point into this object.
    controller_.setNotifyHandler(nullptr);
    controller_.setIrqService(proto::IrqService::Off);
}

void
ProgramCpu::run(Done done)
{
    if (running_)
        panic("program cpu", id_, " started twice");
    running_ = true;
    done_ = std::move(done);
    startedAt_ = events_.now();
    controller_.setIrqService(proto::IrqService::Polled);
    step();
}

std::uint32_t
ProgramCpu::reg(std::size_t index) const
{
    if (index >= regs_.size())
        panic("register index ", index, " out of range");
    return regs_[index];
}

void
ProgramCpu::setReg(std::size_t index, std::uint32_t value)
{
    if (index >= regs_.size())
        panic("register index ", index, " out of range");
    regs_[index] = value;
}

Tick
ProgramCpu::elapsed() const
{
    const Tick end = halted_ ? finishedAt_ : events_.now();
    return end - startedAt_;
}

void
ProgramCpu::onNotify(Addr)
{
    if (!waitingNotify_)
        return;
    waitingNotify_ = false;
    controller_.setIrqService(proto::IrqService::Polled);
    events_.deschedule(notifyTimeout_);
    events_.scheduleIn(timing_.instrNs(), [this] { finishOp(); },
                       "notify-wake");
}

void
ProgramCpu::finishOp()
{
    ++ops_;
    step();
}

void
ProgramCpu::halt()
{
    halted_ = true;
    running_ = false;
    finishedAt_ = events_.now();
    if (done_)
        done_();
    controller_.setIrqService(proto::IrqService::Idle);
}

void
ProgramCpu::step()
{
    if (ops_.value() >= maxOps_)
        fatal("program cpu", id_, " exceeded ", maxOps_,
              " ops (runaway program?)");

    // Interrupts are serviced between instructions.
    if (controller_.interruptPending()) {
        controller_.serviceInterrupts([this] { step(); });
        return;
    }

    if (pc_ >= program_.size()) {
        halt();
        return;
    }

    const Op op = program_[pc_++];
    const Tick instr = timing_.instrNs();

    switch (op.kind) {
      case OpKind::Read:
        events_.scheduleIn(instr, [this, op] {
            controller_.readWord(asid_, op.addr, op.supervisor,
                                 [this, op](std::uint32_t v) {
                                     regs_[op.dst] = v;
                                     finishOp();
                                 });
        });
        return;

      case OpKind::Write:
        events_.scheduleIn(instr, [this, op] {
            controller_.writeWord(asid_, op.addr, regs_[op.src],
                                  op.supervisor,
                                  [this] { finishOp(); });
        });
        return;

      case OpKind::WriteImm:
        events_.scheduleIn(instr, [this, op] {
            controller_.writeWord(asid_, op.addr, op.imm,
                                  op.supervisor,
                                  [this] { finishOp(); });
        });
        return;

      case OpKind::CachedTas:
        // Indivisible read-modify-write: exclusive ownership must be
        // secured *before* the value is examined (reading through a
        // shared copy first would let two processors both observe the
        // lock free). Once the write access completes, the nested
        // read and write hit synchronously, with no interrupt service
        // in between, so the sequence is atomic in the model — exactly
        // the bus-locked TAS cycle of the 68020.
        events_.scheduleIn(instr, [this, op] {
            controller_.access(
                asid_, op.addr, true, op.supervisor,
                [this, op](proto::AccessOutcome) {
                    controller_.readWord(
                        asid_, op.addr, op.supervisor,
                        [this, op](std::uint32_t old) {
                            controller_.writeWord(
                                asid_, op.addr, 1, op.supervisor,
                                [this, op, old] {
                                    regs_[op.dst] = old;
                                    finishOp();
                                });
                        });
                });
        });
        return;

      case OpKind::UncachedRead:
        events_.scheduleIn(instr, [this, op] {
            controller_.uncachedRead(op.addr,
                                     [this, op](std::uint32_t v) {
                                         regs_[op.dst] = v;
                                         finishOp();
                                     });
        });
        return;

      case OpKind::UncachedWrite:
        events_.scheduleIn(instr, [this, op] {
            controller_.uncachedWrite(op.addr, op.imm,
                                      [this] { finishOp(); });
        });
        return;

      case OpKind::UncachedTas:
        events_.scheduleIn(instr, [this, op] {
            controller_.uncachedTas(op.addr,
                                    [this, op](std::uint32_t old) {
                                        regs_[op.dst] = old;
                                        finishOp();
                                    });
        });
        return;

      case OpKind::MoveImm:
        regs_[op.dst] = op.imm;
        events_.scheduleIn(instr, [this] { finishOp(); });
        return;

      case OpKind::AddImm:
        regs_[op.dst] += op.imm;
        events_.scheduleIn(instr, [this] { finishOp(); });
        return;

      case OpKind::AddReg:
        regs_[op.dst] += regs_[op.src];
        events_.scheduleIn(instr, [this] { finishOp(); });
        return;

      case OpKind::BranchIfZero:
        if (regs_[op.src] == 0)
            pc_ = static_cast<std::size_t>(op.target);
        events_.scheduleIn(instr, [this] { finishOp(); });
        return;

      case OpKind::BranchIfNotZero:
        if (regs_[op.src] != 0)
            pc_ = static_cast<std::size_t>(op.target);
        events_.scheduleIn(instr, [this] { finishOp(); });
        return;

      case OpKind::DecBranchNotZero:
        if (--regs_[op.dst] != 0)
            pc_ = static_cast<std::size_t>(op.target);
        events_.scheduleIn(instr, [this] { finishOp(); });
        return;

      case OpKind::Jump:
        pc_ = static_cast<std::size_t>(op.target);
        events_.scheduleIn(instr, [this] { finishOp(); });
        return;

      case OpKind::Notify:
        events_.scheduleIn(instr, [this, op] {
            controller_.notifyFrame(op.addr, [this] { finishOp(); });
        });
        return;

      case OpKind::SetActionEntry:
        events_.scheduleIn(instr, [this, op] {
            controller_.writeTable(
                op.addr, static_cast<mem::ActionEntry>(op.imm & 0b11),
                [this] { finishOp(); });
        });
        return;

      case OpKind::WaitNotify:
        waitingNotify_ = true;
        controller_.setIrqService(proto::IrqService::Idle);
        notifyTimeout_ = events_.scheduleIn(
            op.imm == 0 ? msec(1) : Tick{op.imm},
            [this] {
                if (waitingNotify_) {
                    waitingNotify_ = false;
                    controller_.setIrqService(proto::IrqService::Polled);
                    finishOp();
                }
            },
            "notify-timeout");
        return;

      case OpKind::Delay:
        events_.scheduleIn(op.imm, [this] { finishOp(); });
        return;

      case OpKind::Halt:
        halt();
        return;
    }
    panic("program cpu", id_, ": unknown op kind");
}

} // namespace vmp::cpu
