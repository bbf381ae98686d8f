#include "machine/machine.h"

#include <utility>

#include "support/format.h"
#include "support/panic.h"

namespace mxl {

std::string
HardwareConfig::describe() const
{
    std::string s;
    if (ignoreTagOnMemory)
        s += "ignore-tag-on-memory ";
    if (branchOnTag)
        s += "branch-on-tag ";
    if (genericArith)
        s += "generic-arith ";
    if (checkedMemory == CheckedMem::Lists)
        s += "checked-mem(lists) ";
    else if (checkedMemory == CheckedMem::All)
        s += "checked-mem(all) ";
    if (memTagging)
        s += "mem-tagging ";
    if (s.empty())
        s = "none";
    else
        s.pop_back();
    return s;
}

Machine::Machine(const Program &prog, Memory mem, HardwareConfig hw,
                 const TagScheme *scheme)
    : prog_(prog), mem_(std::move(mem)), hw_(hw), scheme_(scheme)
{
    if ((hw_.ignoreTagOnMemory || hw_.branchOnTag || hw_.genericArith ||
         hw_.checkedMemory != CheckedMem::None || hw_.memTagging) &&
        !scheme_) {
        panic("tag hardware enabled without a tag scheme");
    }
    if (hw_.memTagging)
        memLocks_ = ZeroedArray<uint8_t>(mem_.size() / 4);
}

bool
Machine::memTagAccess(uint32_t baseWord, uint32_t addr, bool isStore,
                      int idx)
{
    uint32_t w = addr / 4;
    if (w >= memLocks_.size())
        return true; // bounds were already checked; be permissive
    if (scheme_->wordIsFixnum(baseWord)) {
        // Raw access (allocator, GC, stack frames addressed via sp):
        // a raw store releases the word's lock; a raw load bypasses.
        if (isStore)
            memLocks_[w] = 0;
        return true;
    }
    // Locks hold key + 1; 0 is unpainted (see memLocks_).
    uint8_t stored = static_cast<uint8_t>(scheme_->primaryTag(baseWord) + 1);
    if (isStore) {
        // Write-repaint: a keyed store claims the word for its key.
        memLocks_[w] = stored;
        return true;
    }
    uint8_t lock = memLocks_[w];
    if (lock == 0) {
        memLocks_[w] = stored; // first keyed read paints
        return true;
    }
    if (lock != stored) {
        regs_[abi::trapA] = baseWord;
        regs_[abi::trapB] = lock - 1u;
        trap(TrapKind::TagMismatch, idx);
        return false;
    }
    return true;
}

void
Machine::setTrapHandler(TrapKind kind, int target)
{
    trapHandler_[static_cast<int>(kind)] = target;
}

uint32_t
Machine::effAddr(const Instruction &inst, bool checked) const
{
    uint32_t base = regs_[inst.rs];
    if (checked)
        base = scheme_->detagAddr(base);
    uint32_t addr = base + static_cast<uint32_t>(inst.imm);
    if (hw_.ignoreTagOnMemory)
        addr = scheme_->detagAddr(addr);
    return addr;
}

void
Machine::chargeAndCount(const Instruction &inst, int idx)
{
    int cycles = opCycles(inst.op);
    stats_.charge(inst.ann, cycles);
    profCharge(idx, cycles);
    stats_.instructions++;
    switch (inst.op) {
      case Opcode::And:
      case Opcode::Andi:
        stats_.andOps++;
        break;
      case Opcode::Mov:
        stats_.moveOps++;
        break;
      case Opcode::Noop:
        stats_.noops++;
        break;
      case Opcode::Ld:
      case Opcode::Ldt:
        stats_.loads++;
        break;
      case Opcode::St:
      case Opcode::Stt:
        stats_.stores++;
        break;
      default:
        if (isCondBranch(inst.op))
            stats_.branches++;
        break;
    }
}

void
Machine::trap(TrapKind kind, int idx)
{
    int handler = trapHandler_[static_cast<int>(kind)];
    if (handler < 0) {
        // No handler installed: the defined semantics are a clean error
        // stop whose code identifies the trap kind and the faulting
        // instruction (never undefined behavior, never a silent
        // continue).
        errorCode_ = encodeUnhandledTrap(kind, idx);
        faultIndex_ = idx;
        stop_ = StopReason::Errored;
        return;
    }
    regs_[abi::trapRet] = codeAddr(idx + 1);
    regs_[abi::scratch] = static_cast<uint32_t>(kind);
    pc_ = handler;
}

void
Machine::illegalAccess(uint32_t addr, int idx)
{
    errorCode_ = static_cast<int64_t>(addr);
    faultIndex_ = idx;
    stop_ = StopReason::IllegalAccess;
}

void
Machine::doSys(const Instruction &inst)
{
    switch (static_cast<SysCode>(inst.imm)) {
      case SysCode::Halt:
        exitValue_ = regs_[inst.rs];
        stop_ = StopReason::Halted;
        break;
      case SysCode::PutChar:
        out_ += static_cast<char>(regs_[inst.rs] & 0xff);
        break;
      case SysCode::PutFixRaw:
        out_ += strcat(static_cast<int32_t>(regs_[inst.rs]));
        break;
      case SysCode::PutFix:
        MXL_ASSERT(scheme_, "sys putfix needs a tag scheme");
        out_ += strcat(scheme_->decodeFixnum(regs_[inst.rs]));
        break;
      case SysCode::Error:
        errorCode_ = static_cast<int32_t>(regs_[inst.rs]);
        stop_ = StopReason::Errored;
        break;
      default:
        panic("unknown sys code ", inst.imm);
    }
}

void
Machine::execute(const Instruction &inst, int idx)
{
    observeIssue(idx, inst);
    // Load-delay interlock: one stall cycle when this instruction reads
    // the register loaded by the immediately preceding load.
    if (pendingLoadReg_ >= 0) {
        Reg reads[3];
        int n;
        inst.readRegs(reads, n);
        for (int i = 0; i < n; ++i) {
            if (reads[i] == pendingLoadReg_) {
                stats_.loadStalls++;
                stats_.charge(inst.ann, 1);
                profCharge(idx, 1);
                break;
            }
        }
        pendingLoadReg_ = -1;
    }

    chargeAndCount(inst, idx);

    auto rs = [&] { return regs_[inst.rs]; };
    auto rt = [&] { return regs_[inst.rt]; };
    auto srs = [&] { return static_cast<int32_t>(regs_[inst.rs]); };
    auto srt = [&] { return static_cast<int32_t>(regs_[inst.rt]); };
    auto wr = [&](uint32_t v) {
        if (inst.rd)
            regs_[inst.rd] = v;
    };
    uint32_t uimm = static_cast<uint32_t>(inst.imm);

    switch (inst.op) {
      case Opcode::Add:  wr(rs() + rt()); break;
      case Opcode::Sub:  wr(rs() - rt()); break;
      case Opcode::And:  wr(rs() & rt()); break;
      case Opcode::Or:   wr(rs() | rt()); break;
      case Opcode::Xor:  wr(rs() ^ rt()); break;
      case Opcode::Sll:  wr(rs() << (rt() & 31)); break;
      case Opcode::Srl:  wr(rs() >> (rt() & 31)); break;
      case Opcode::Sra:
        wr(static_cast<uint32_t>(srs() >> (rt() & 31)));
        break;
      case Opcode::Mul:
        wr(static_cast<uint32_t>(srs() * static_cast<int64_t>(srt())));
        break;
      case Opcode::Div:
        if (srt() == 0) {
            errorCode_ = kDivideByZeroCode;
            stop_ = StopReason::Errored;
            return;
        }
        wr(static_cast<uint32_t>(srs() / srt()));
        break;
      case Opcode::Rem:
        if (srt() == 0) {
            errorCode_ = kDivideByZeroCode;
            stop_ = StopReason::Errored;
            return;
        }
        wr(static_cast<uint32_t>(srs() % srt()));
        break;
      case Opcode::Addi: wr(rs() + uimm); break;
      case Opcode::Andi: wr(rs() & uimm); break;
      case Opcode::Ori:  wr(rs() | uimm); break;
      case Opcode::Xori: wr(rs() ^ uimm); break;
      case Opcode::Slli: wr(rs() << (inst.imm & 31)); break;
      case Opcode::Srli: wr(rs() >> (inst.imm & 31)); break;
      case Opcode::Srai:
        wr(static_cast<uint32_t>(srs() >> (inst.imm & 31)));
        break;
      case Opcode::Li:   wr(uimm); break;
      case Opcode::Mov:  wr(rs()); break;
      case Opcode::Ld: {
        uint32_t a = effAddr(inst, false);
        if (!mem_.inBounds(a)) {
            illegalAccess(a, idx);
            return;
        }
        if (hw_.memTagging && !memTagAccess(rs(), a, false, idx))
            return;
        wr(mem_.load(a));
        pendingLoadReg_ = inst.rd;
        break;
      }
      case Opcode::St: {
        uint32_t a = effAddr(inst, false);
        if (!mem_.inBounds(a)) {
            illegalAccess(a, idx);
            return;
        }
        if (hw_.memTagging && !memTagAccess(rs(), a, true, idx))
            return;
        mem_.store(a, rt());
        break;
      }
      case Opcode::Ldt: {
        MXL_ASSERT(hw_.checkedMemory != CheckedMem::None,
                   "ldt without checked-memory hardware");
        if (scheme_->primaryTag(rs()) != inst.timm) {
            regs_[abi::trapA] = rs();
            regs_[abi::trapB] = inst.timm;
            trap(TrapKind::TagMismatch, idx);
            return;
        }
        uint32_t a = effAddr(inst, true);
        if (!mem_.inBounds(a)) {
            illegalAccess(a, idx);
            return;
        }
        if (hw_.memTagging && !memTagAccess(rs(), a, false, idx))
            return;
        wr(mem_.load(a));
        pendingLoadReg_ = inst.rd;
        break;
      }
      case Opcode::Stt: {
        MXL_ASSERT(hw_.checkedMemory != CheckedMem::None,
                   "stt without checked-memory hardware");
        if (scheme_->primaryTag(rs()) != inst.timm) {
            regs_[abi::trapA] = rs();
            regs_[abi::trapB] = inst.timm;
            trap(TrapKind::TagMismatch, idx);
            return;
        }
        uint32_t a = effAddr(inst, true);
        if (!mem_.inBounds(a)) {
            illegalAccess(a, idx);
            return;
        }
        if (hw_.memTagging && !memTagAccess(rs(), a, true, idx))
            return;
        mem_.store(a, rt());
        break;
      }
      case Opcode::Addt:
      case Opcode::Subt: {
        MXL_ASSERT(hw_.genericArith,
                   "addt/subt without generic-arith hardware");
        // On failure the hardware latches the operands (SPUR-style
        // shadow registers, §6.2.2) and the op kind for the handler.
        if (!scheme_->wordIsFixnum(rs()) || !scheme_->wordIsFixnum(rt())) {
            regs_[abi::trapA] = rs();
            regs_[abi::trapB] = rt();
            trap(TrapKind::ArithFail, idx);
            regs_[abi::scratch] = inst.op == Opcode::Addt ? 1 : 2;
            return;
        }
        int64_t a = scheme_->decodeFixnum(rs());
        int64_t b = scheme_->decodeFixnum(rt());
        int64_t v = inst.op == Opcode::Addt ? a + b : a - b;
        if (!scheme_->fixnumInRange(v)) {
            regs_[abi::trapA] = rs();
            regs_[abi::trapB] = rt();
            trap(TrapKind::ArithFail, idx);
            regs_[abi::scratch] = inst.op == Opcode::Addt ? 1 : 2;
            return;
        }
        wr(scheme_->encodeFixnum(v));
        break;
      }
      case Opcode::Sys:
        doSys(inst);
        break;
      case Opcode::Noop:
        break;
      default:
        panic("control opcode in execute(): ", opcodeName(inst.op));
    }
}

StopReason
Machine::run(int entry, uint64_t maxCycles)
{
    MXL_ASSERT(entry >= 0 && entry < static_cast<int>(prog_.code.size()),
               "bad entry point");
    pc_ = entry;
    stop_ = StopReason::Running;
    pendingLoadReg_ = -1;
    slotsRemaining_ = 0;
    branchTaken_ = false;
    annulSlots_ = false;
    branchTarget_ = -1;
    branchIdx_ = -1;
    return runGuarded(maxCycles);
}

StopReason
Machine::resume(uint64_t maxCycles)
{
    MXL_ASSERT(stop_ == StopReason::CycleLimit,
               "resume() requires a CycleLimit-paused machine");
    // Everything a paused instruction group needs — pendingLoadReg_ and
    // the in-flight branch fields — is machine state, so resuming here
    // (even from a pause between a branch and its delay slots) is
    // cycle-identical to never having paused.
    stop_ = StopReason::Running;
    return runGuarded(maxCycles);
}

StopReason
Machine::runGuarded(uint64_t maxCycles)
{
    try {
        return runLoop(maxCycles);
    } catch (const MxlError &e) {
        // Re-raise with execution context for diagnosability.
        std::string near;
        for (const auto &[name, idx] : prog_.symbols) {
            if (idx <= pc_ && (near.empty() ||
                               idx > prog_.symbols.at(near)))
                near = name;
        }
        throw MxlError(e.kind, strcat(e.what(), " [at pc=", pc_,
                                      " near '", near, "', cycle ",
                                      stats_.total, "]"));
    }
}

StopReason
Machine::runLoop(uint64_t maxCycles)
{
    const auto &code = prog_.code;
    const int n = static_cast<int>(code.size());

    while (stop_ == StopReason::Running) {
        if (stats_.total > maxCycles) {
            stop_ = StopReason::CycleLimit;
            break;
        }
        if (pc_ < 0 || pc_ >= n)
            panic("pc out of range: ", pc_);
        const Instruction &inst = code[pc_];

        if (slotsRemaining_ > 0) {
            // Inside the delay slots of the in-flight branch; pc_ points
            // at the slot instruction. Each slot is its own loop step so
            // the cycle guard above can pause (and the pause hook can
            // run) between a branch and its slots.
            MXL_ASSERT(!isControl(inst.op),
                       "control transfer in a delay slot at ", pc_);
            if (annulSlots_) {
                // A squashed cycle; charged to the branch's purpose
                // (and, in the profile, to the branch's PC).
                stats_.squashed++;
                stats_.charge(code[branchIdx_].ann, 1);
                profCharge(branchIdx_, 1);
                pendingLoadReg_ = -1;
            } else {
                int before = pc_;
                execute(inst, pc_);
                // Traps inside delay slots are not supported; the
                // compiler never schedules trapping ops there.
                MXL_ASSERT(pc_ == before, "trap in a delay slot");
            }
            --slotsRemaining_;
            if (stop_ != StopReason::Running)
                break;
            if (slotsRemaining_ == 0 && branchTaken_) {
                MXL_ASSERT(branchTarget_ >= 0 && branchTarget_ < n,
                           "bad branch target");
                pc_ = branchTarget_;
            } else {
                pc_++;
            }
            continue;
        }

        if (!isControl(inst.op)) {
            int before = pc_;
            execute(inst, pc_);
            if (pc_ == before) // no trap redirect
                pc_++;
            continue;
        }

        // Control transfer: resolve it now, then execute its two delay
        // slots as separate loop steps (see above).
        int idx = pc_;
        MXL_ASSERT(idx + 2 < n, "control transfer too close to code end");

        observeIssue(idx, inst);

        // Interlock against a load immediately before the branch.
        if (pendingLoadReg_ >= 0) {
            Reg reads[3];
            int cnt;
            inst.readRegs(reads, cnt);
            for (int i = 0; i < cnt; ++i) {
                if (reads[i] == pendingLoadReg_) {
                    stats_.loadStalls++;
                    stats_.charge(inst.ann, 1);
                    profCharge(idx, 1);
                    break;
                }
            }
            pendingLoadReg_ = -1;
        }

        bool taken = false;
        int target = inst.target;
        switch (inst.op) {
          case Opcode::Beq:
            taken = regs_[inst.rs] == regs_[inst.rt];
            break;
          case Opcode::Bne:
            taken = regs_[inst.rs] != regs_[inst.rt];
            break;
          case Opcode::Blt:
            taken = static_cast<int32_t>(regs_[inst.rs]) <
                    static_cast<int32_t>(regs_[inst.rt]);
            break;
          case Opcode::Bge:
            taken = static_cast<int32_t>(regs_[inst.rs]) >=
                    static_cast<int32_t>(regs_[inst.rt]);
            break;
          case Opcode::Ble:
            taken = static_cast<int32_t>(regs_[inst.rs]) <=
                    static_cast<int32_t>(regs_[inst.rt]);
            break;
          case Opcode::Bgt:
            taken = static_cast<int32_t>(regs_[inst.rs]) >
                    static_cast<int32_t>(regs_[inst.rt]);
            break;
          case Opcode::Beqi:
            taken = static_cast<int32_t>(regs_[inst.rs]) == inst.imm;
            break;
          case Opcode::Bnei:
            taken = static_cast<int32_t>(regs_[inst.rs]) != inst.imm;
            break;
          case Opcode::Btag:
            MXL_ASSERT(hw_.branchOnTag, "btag without branch-on-tag hw");
            taken = scheme_->primaryTag(regs_[inst.rs]) == inst.timm;
            break;
          case Opcode::Bntag:
            MXL_ASSERT(hw_.branchOnTag, "bntag without branch-on-tag hw");
            taken = scheme_->primaryTag(regs_[inst.rs]) != inst.timm;
            break;
          case Opcode::J:
            taken = true;
            break;
          case Opcode::Jal:
            taken = true;
            if (inst.rd)
                regs_[inst.rd] = codeAddr(idx + 3);
            break;
          case Opcode::Jr:
            taken = true;
            target = static_cast<int>(regs_[inst.rs] >> 2);
            break;
          case Opcode::Jalr:
            taken = true;
            target = static_cast<int>(regs_[inst.rs] >> 2);
            if (inst.rd)
                regs_[inst.rd] = codeAddr(idx + 3);
            break;
          default:
            panic("unhandled control opcode");
        }
        chargeAndCount(inst, idx);

        branchTaken_ = taken;
        branchTarget_ = target;
        branchIdx_ = idx;
        annulSlots_ = (inst.annul == Annul::OnTaken && taken) ||
                      (inst.annul == Annul::OnNotTaken && !taken);
        slotsRemaining_ = 2;
        pc_ = idx + 1;
    }
    return stop_;
}

} // namespace mxl
