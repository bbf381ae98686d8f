/**
 * @file
 * The MX instruction-level simulator.
 *
 * Models the MIPS-X properties the paper's measurements rest on:
 *  - one cycle per instruction (Mul/Div cost more, see opCycles());
 *  - two delay slots after every control transfer, with optional
 *    squashing (annulled slots still cost their cycles);
 *  - a one-cycle load delay, interlocked (a stall cycle is counted when
 *    the next instruction uses the loaded register);
 *  - word-addressed memory: the bottom two bits of every effective
 *    address are dropped (§5.2).
 *
 * Optional tag hardware (§5–§6) is enabled through HardwareConfig; the
 * corresponding instructions are illegal when the feature is off.
 */

#ifndef MXLISP_MACHINE_MACHINE_H_
#define MXLISP_MACHINE_MACHINE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "isa/instruction.h"
#include "machine/cycle_stats.h"
#include "machine/memory.h"
#include "support/zeroed.h"
#include "tags/tag_scheme.h"

namespace mxl {

/** Which memory accesses may be tag-checked in hardware (§6.2.1). */
enum class CheckedMem { None, Lists, All };

/** The tag-support features of Table 2. */
struct HardwareConfig
{
    /** Row 1 (hardware variant): addresses lose their tag bits. */
    bool ignoreTagOnMemory = false;
    /** Row 2: Btag/Bntag compare the tag field without extraction. */
    bool branchOnTag = false;
    /** Row 4: Addt/Subt trap on non-integer operands or overflow. */
    bool genericArith = false;
    /** Rows 5/6: Ldt/Stt check the operand tag during the access. */
    CheckedMem checkedMemory = CheckedMem::None;

    /**
     * MTE-style lock-and-key memory tagging (Serebryany et al.): every
     * memory word carries a lock; a load through a pointer-tagged base
     * register checks the pointer's tag (the key) against the word's
     * lock and traps (TrapKind::TagMismatch) on mismatch. Stores
     * through a tagged base (re)paint the word's lock with the key;
     * stores through a raw (fixnum-looking) base unpaint it — the
     * allocator and GC write through raw addresses, so recycled memory
     * never keeps a stale lock. An unpainted word is painted by its
     * first keyed access. Orthogonal to checkedMemory: this checks
     * every Ld/St/Ldt/Stt, needs no compiled checks, and works with
     * Checking::Off code as long as the scheme keeps base registers
     * tagged at access time (low-tag schemes; see tags/low_tag.cc).
     */
    bool memTagging = false;

    std::string describe() const;
};

/**
 * Default runaway guard for simulated executions, in cycles. The single
 * definition behind every `maxCycles` default in the stack (Machine::run,
 * core/run.h, core/engine.h).
 */
inline constexpr uint64_t kDefaultMaxCycles = 2'000'000'000;

/** Why a trap was taken. */
enum class TrapKind : int
{
    ArithFail = 1,   ///< Addt/Subt operands not fixnums, or overflow
    TagMismatch = 2, ///< Ldt/Stt tag check failed
};

/** How a run ended. */
enum class StopReason
{
    Running,
    Halted,        ///< Sys halt
    Errored,       ///< Sys error (Lisp-level runtime error) or a trap
                   ///< with no handler installed (see encodeUnhandledTrap)
    CycleLimit,
    IllegalAccess, ///< load/store outside the memory image
};

/** errorCode() for Div/Rem by zero (StopReason::Errored). */
inline constexpr int64_t kDivideByZeroCode = 2000;

/**
 * errorCode() encoding for a trap taken with no handler installed:
 * the run stops with StopReason::Errored and
 * `errorCode == kUnhandledTrapBase + kind * kUnhandledTrapStride + index`,
 * where `index` is the faulting instruction index. The stride leaves
 * room for any realistic code size, and the base keeps the range
 * disjoint from every Lisp-level and machine-level error code.
 */
inline constexpr int64_t kUnhandledTrapBase = 1'000'000'000;
inline constexpr int64_t kUnhandledTrapStride = 100'000'000;

inline int64_t
encodeUnhandledTrap(TrapKind kind, int index)
{
    return kUnhandledTrapBase +
           static_cast<int64_t>(kind) * kUnhandledTrapStride + index;
}

inline bool
isUnhandledTrapCode(int64_t code)
{
    return code >= kUnhandledTrapBase + kUnhandledTrapStride &&
           code < kUnhandledTrapBase + 3 * kUnhandledTrapStride;
}

inline TrapKind
unhandledTrapKind(int64_t code)
{
    return static_cast<TrapKind>((code - kUnhandledTrapBase) /
                                 kUnhandledTrapStride);
}

inline int
unhandledTrapIndex(int64_t code)
{
    return static_cast<int>((code - kUnhandledTrapBase) %
                            kUnhandledTrapStride);
}

class Machine
{
  public:
    /**
     * @param scheme the tag scheme "built into" the hardware; required
     *        whenever any HardwareConfig feature is on.
     */
    Machine(const Program &prog, Memory mem, HardwareConfig hw,
            const TagScheme *scheme);

    /** Set the handler entry (instruction index) for a trap kind. */
    void setTrapHandler(TrapKind kind, int target);

    /** Run from instruction index @p entry until halt/error/limit. */
    StopReason run(int entry, uint64_t maxCycles = kDefaultMaxCycles);

    /**
     * Continue a run paused by StopReason::CycleLimit until the *total*
     * cycle count reaches @p maxCycles. Pausing and resuming is
     * invisible to the simulation: a run chopped into chunks produces
     * the same CycleStats, output, and stop as one uninterrupted run,
     * even when the pause lands between a branch and its delay slots or
     * on a pending load delay — all pipeline state is machine state
     * (wall-clock deadlines and the pause hook are built on this;
     * core/run.h).
     */
    StopReason resume(uint64_t maxCycles);

    uint32_t reg(Reg r) const { return regs_[r]; }
    void setReg(Reg r, uint32_t v) { if (r) regs_[r] = v; }
    std::span<const uint32_t, 32> regs() const { return regs_; }
    /** The live register file; a writer must leave r0 zero. */
    std::span<uint32_t, 32> regs() { return regs_; }

    Memory &memory() { return mem_; }
    const Memory &memory() const { return mem_; }

    const CycleStats &stats() const { return stats_; }
    const std::string &output() const { return out_; }
    uint32_t exitValue() const { return exitValue_; }
    int64_t errorCode() const { return errorCode_; }
    StopReason stopReason() const { return stop_; }

    /**
     * Instruction index of the access that stopped the run with
     * IllegalAccess or an unhandled trap; -1 otherwise. For
     * IllegalAccess, errorCode() holds the wild byte address.
     */
    int faultIndex() const { return faultIndex_; }

    /** Byte address of instruction index @p i (code pointers/returns). */
    static uint32_t
    codeAddr(int i)
    {
        return static_cast<uint32_t>(i) << 2;
    }

    /**
     * Debug hook: called before each executed instruction with its
     * index. Slows simulation; intended for tests and debugging only.
     * Both issue paths (the straight-line path and the delay-slot /
     * control path) funnel through one observation point, so the hook
     * sees every executed instruction exactly once, in issue order;
     * annulled delay slots do not fire it (they are charged cycles but
     * never execute). For measurement, prefer attachProfile(): the
     * counting path costs two array increments per instruction instead
     * of a std::function call.
     */
    std::function<void(int, const Instruction &)> traceHook;

    /**
     * Attach per-PC profile buffers (the obs/ instruction profiler's
     * fast counting path; obs/profiler.h owns the vectors). Both arrays
     * must have one slot per instruction of the program. While
     * attached, `execCounts[i]` accumulates how often instruction i
     * issued and `cycleCounts[i]` every cycle the run charged to it —
     * including its load-interlock stalls and, for a squashing branch,
     * its annulled slot cycles — so the cycle histogram sums exactly to
     * the CycleStats charged while attached. Pass nullptrs to detach.
     * The buffers are the caller's, not machine state.
     */
    void
    attachProfile(uint64_t *execCounts, uint64_t *cycleCounts)
    {
        profExec_ = execCounts;
        profCycles_ = cycleCounts;
    }

    /** memTagging: the lock value of a word no key has claimed. */
    static constexpr uint8_t kMemTagUnpainted = 0xff;

    /**
     * memTagging lock byte for memory word index @p w (kMemTagUnpainted
     * when unpainted or the feature is off). Exposed for tests.
     */
    uint8_t
    memTagLock(uint32_t w) const
    {
        // Stored as key + 1 (0 = unpainted), so 0 - 1 wraps to 0xff.
        return w < memLocks_.size() ? static_cast<uint8_t>(memLocks_[w] - 1)
                                    : kMemTagUnpainted;
    }

  private:
    StopReason runGuarded(uint64_t maxCycles);
    StopReason runLoop(uint64_t maxCycles);

    /** Execute one non-control instruction; returns false on halt. */
    void execute(const Instruction &inst, int idx);
    void doSys(const Instruction &inst);
    void trap(TrapKind kind, int idx);
    void illegalAccess(uint32_t addr, int idx);
    uint32_t effAddr(const Instruction &inst, bool checked) const;

    /**
     * memTagging lock-and-key check for an access to in-bounds byte
     * address @p addr through base-register word @p baseWord. Returns
     * false when the access trapped (the caller must return without
     * performing it).
     */
    bool memTagAccess(uint32_t baseWord, uint32_t addr, bool isStore,
                      int idx);
    void chargeAndCount(const Instruction &inst, int idx);

    /**
     * The single pre-issue observation point: every executed
     * instruction — straight-line, delay-slot, or control — passes
     * through here exactly once, so traceHook and the profiler see
     * identical streams regardless of path.
     */
    void
    observeIssue(int idx, const Instruction &inst)
    {
        if (profExec_)
            profExec_[idx]++;
        if (traceHook)
            traceHook(idx, inst);
    }

    /** Profiler counterpart of CycleStats::charge for instruction @p idx. */
    void
    profCharge(int idx, int cycles)
    {
        if (profCycles_)
            profCycles_[idx] += static_cast<uint64_t>(cycles);
    }

    const Program &prog_;
    Memory mem_;
    HardwareConfig hw_;
    const TagScheme *scheme_;
    uint32_t regs_[32] = {};
    int pc_ = 0;
    int trapHandler_[3] = {-1, -1, -1};
    CycleStats stats_;
    std::string out_;
    uint32_t exitValue_ = 0;
    int64_t errorCode_ = 0;
    StopReason stop_ = StopReason::Running;
    int faultIndex_ = -1;
    int pendingLoadReg_ = -1;  ///< load-delay interlock tracking
    /** memTagging per-word locks, stored as key + 1 so that 0 means
     *  unpainted and a fresh array is lazily zeroed storage. */
    ZeroedArray<uint8_t> memLocks_;
    uint64_t *profExec_ = nullptr;   ///< attachProfile issue counts
    uint64_t *profCycles_ = nullptr; ///< attachProfile cycle counts

    // In-flight branch state. Delay slots execute as separate loop
    // steps, so a cycle-limit pause (a deadline chunk or the pause hook)
    // can land between a control transfer and its slots; these fields
    // carry the branch across that boundary.
    int slotsRemaining_ = 0;   ///< delay slots left to execute (0..2)
    bool branchTaken_ = false; ///< condition result of the branch
    bool annulSlots_ = false;  ///< slots are squashed, not executed
    int branchTarget_ = -1;    ///< resolved target instruction index
    int branchIdx_ = -1;       ///< index of the branch (squash charging)
};

} // namespace mxl

#endif // MXLISP_MACHINE_MACHINE_H_
