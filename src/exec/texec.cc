/**
 * @file
 * The directly-threaded executor. One computed-goto dispatch per
 * straight-line instruction (or fused pair); one dispatch per
 * control-transfer *group* (the branch and both delay slots execute
 * fused). Accounting is per basic block (docs/BACKEND.md): the
 * block-entry handler charges a block's static cost, its load-interlock
 * stall against the predecessor and one counter increment, and the
 * handlers inside the block carry semantics only.
 *
 * Equivalence discipline: machine/machine.cc's runLoop() guards the
 * cycle limit before every step and charges each step as it runs. A
 * block runs in block mode only when its whole cost cannot reach the
 * budget, so no guard inside it could fire; otherwise, and after a
 * computed jump into the middle of a block, the counted handlers
 * reproduce runLoop() step by step until the next leader — the guard
 * before every instruction, delay-slot and squash step, the interlock
 * charged to the stalled reader, squashed cycles charged to the branch.
 * In both modes traps charge before redirecting, and Div/Rem/memory
 * errors stop before any register or memory write. At run end the
 * block counts, minus each group's squashed slots and the unexecuted
 * tail of a block the run stopped in, plus the counted path's
 * per-index counts, fold into a CycleStats; an assertion checks the
 * rebuilt total against the live cycle counter on every run.
 */

#include "exec/texec.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <memory>

#include "exec/texec_internal.h"
#include "support/bits.h"
#include "support/format.h"
#include "support/panic.h"

namespace mxl {

namespace {

/** Must match core/run.cc's deadline chunking. */
constexpr uint64_t kDeadlineChunkCycles = 1'000'000;

/**
 * Re-raise an executor panic with the same context suffix
 * Machine::runGuarded() appends: pc, nearest preceding symbol, cycle.
 */
[[noreturn]] void
contextPanic(const Program &prog, int pc, uint64_t cycle,
             const std::string &msg)
{
    std::string near;
    for (const auto &[name, idx] : prog.symbols) {
        if (idx <= pc && (near.empty() || idx > prog.symbols.at(near)))
            near = name;
    }
    throw MxlError(MxlError::Kind::Panic,
                   strcat("panic: ", msg, " [at pc=", pc, " near '", near,
                          "', cycle ", cycle, "]"));
}

#if defined(__GNUC__)

/** No load-interlock register pending (a shift that reads bit 32 of a
 *  32-bit read mask, which is always clear). */
constexpr unsigned kNoPend = 32;

/** Per-run block counters. */
struct BlockCounts
{
    uint64_t runs = 0;     ///< block-mode entries
    uint64_t stalls = 0;   ///< leader interlock stalls among them
    uint64_t squashes = 0; ///< entries whose group squashed its slots
};

// Every op kind's semantics, once. SEM_<Kind>(p, M) runs the op at
// @p p; M is the mode it expands in — BLK (block handlers, where the
// interlock register is the block's and a stop takes back the block's
// unexecuted tail) or CNT (counted handlers, which track the interlock
// per op). Issue accounting and dispatch stay with the caller.
#define PEND_BLK(p) ((void)0)
#define PEND_CNT(p) (pending = (p)->pendReg)

#define STOP_AT(p, M)                                                       \
    do {                                                                    \
        stopAt = (p);                                                       \
        goto done_##M;                                                      \
    } while (0)

#define STOP_ILLEGAL(p, a, M)                                               \
    do {                                                                    \
        errorCode = static_cast<int64_t>(a);                                \
        faultIndex = IDX(p);                                                \
        stop = StopReason::IllegalAccess;                                   \
        STOP_AT(p, M);                                                      \
    } while (0)

#define STOP_DIV0(p, M)                                                     \
    do {                                                                    \
        errorCode = kDivideByZeroCode;                                      \
        stop = StopReason::Errored;                                         \
        STOP_AT(p, M);                                                      \
    } while (0)

// Take a trap at @p p with @p kind; @p scratchVal is what abi::scratch
// holds on entry to the handler (the trap kind, or the Addt/Subt op
// code which overwrites it). A trap-capable op ends its block and a
// trap leaves no load pending; the handler is a leader.
#define TRAP(p, kind, scratchVal, M)                                        \
    do {                                                                    \
        const int h_ = trapHandler[static_cast<int>(kind)];                 \
        if (h_ < 0) {                                                       \
            errorCode = encodeUnhandledTrap(kind, IDX(p));                  \
            faultIndex = IDX(p);                                            \
            stop = StopReason::Errored;                                     \
            STOP_AT(p, M);                                                  \
        }                                                                   \
        regs[abi::trapRet] = Machine::codeAddr(IDX(p) + 1);                 \
        regs[abi::scratch] = static_cast<uint32_t>(scratchVal);             \
        pending = kNoPend;                                                  \
        ip = ops + h_;                                                      \
        goto L_Enter;                                                       \
    } while (0)

#define SEM_Add(p, M) (regs[(p)->wslot] = regs[(p)->rs] + regs[(p)->rt])
#define SEM_Sub(p, M) (regs[(p)->wslot] = regs[(p)->rs] - regs[(p)->rt])
#define SEM_And(p, M) (regs[(p)->wslot] = regs[(p)->rs] & regs[(p)->rt])
#define SEM_Or(p, M) (regs[(p)->wslot] = regs[(p)->rs] | regs[(p)->rt])
#define SEM_Xor(p, M) (regs[(p)->wslot] = regs[(p)->rs] ^ regs[(p)->rt])
#define SEM_Sll(p, M)                                                       \
    (regs[(p)->wslot] = regs[(p)->rs] << (regs[(p)->rt] & 31u))
#define SEM_Srl(p, M)                                                       \
    (regs[(p)->wslot] = regs[(p)->rs] >> (regs[(p)->rt] & 31u))
#define SEM_Sra(p, M)                                                       \
    (regs[(p)->wslot] = static_cast<uint32_t>(                              \
         static_cast<int32_t>(regs[(p)->rs]) >> (regs[(p)->rt] & 31u)))
#define SEM_Mul(p, M)                                                       \
    (regs[(p)->wslot] = static_cast<uint32_t>(                              \
         static_cast<int32_t>(regs[(p)->rs]) *                              \
         static_cast<int64_t>(static_cast<int32_t>(regs[(p)->rt]))))
#define DIVIDE(p, OP, M)                                                    \
    do {                                                                    \
        if (static_cast<int32_t>(regs[(p)->rt]) == 0)                       \
            STOP_DIV0(p, M);                                                \
        regs[(p)->wslot] = static_cast<uint32_t>(                           \
            static_cast<int32_t>(regs[(p)->rs])                             \
                OP static_cast<int32_t>(regs[(p)->rt]));                    \
    } while (0)
#define SEM_Div(p, M) DIVIDE(p, /, M)
#define SEM_Rem(p, M) DIVIDE(p, %, M)
#define SEM_Addi(p, M) (regs[(p)->wslot] = regs[(p)->rs] + (p)->uimm)
#define SEM_Andi(p, M) (regs[(p)->wslot] = regs[(p)->rs] & (p)->uimm)
#define SEM_Ori(p, M) (regs[(p)->wslot] = regs[(p)->rs] | (p)->uimm)
#define SEM_Xori(p, M) (regs[(p)->wslot] = regs[(p)->rs] ^ (p)->uimm)
#define SEM_Slli(p, M)                                                      \
    (regs[(p)->wslot] = regs[(p)->rs] << ((p)->uimm & 31))
#define SEM_Srli(p, M)                                                      \
    (regs[(p)->wslot] = regs[(p)->rs] >> ((p)->uimm & 31))
#define SEM_Srai(p, M)                                                      \
    (regs[(p)->wslot] = static_cast<uint32_t>(                              \
         static_cast<int32_t>(regs[(p)->rs]) >> ((p)->uimm & 31)))
#define SEM_Li(p, M) (regs[(p)->wslot] = (p)->uimm)
#define SEM_Mov(p, M) (regs[(p)->wslot] = regs[(p)->rs])
#define SEM_Noop(p, M) ((void)0)
#define SEM_Ld(p, M)                                                        \
    do {                                                                    \
        const uint32_t a_ = (regs[(p)->rs] + (p)->uimm) & memMask;          \
        if ((a_ >> 2) >= nWords)                                            \
            STOP_ILLEGAL(p, a_, M);                                         \
        regs[(p)->wslot] = mem[a_ >> 2];                                    \
        PEND_##M(p);                                                        \
    } while (0)
#define SEM_St(p, M)                                                        \
    do {                                                                    \
        const uint32_t a_ = (regs[(p)->rs] + (p)->uimm) & memMask;          \
        if ((a_ >> 2) >= nWords)                                            \
            STOP_ILLEGAL(p, a_, M);                                         \
        mem[a_ >> 2] = regs[(p)->rt];                                       \
    } while (0)

// Checked memory: a tag mismatch traps before the access.
#define TAG_CHECK(p, w, M)                                                  \
    do {                                                                    \
        if ((((w) >> tagShift) & tagMask) != (p)->timm) {                   \
            regs[abi::trapA] = (w);                                         \
            regs[abi::trapB] = (p)->timm;                                   \
            TRAP(p, TrapKind::TagMismatch,                                  \
                 static_cast<int>(TrapKind::TagMismatch), M);               \
        }                                                                   \
    } while (0)
#define SEM_Ldt(p, M)                                                       \
    do {                                                                    \
        const uint32_t w_ = regs[(p)->rs];                                  \
        TAG_CHECK(p, w_, M);                                                \
        const uint32_t a_ = ((w_ & detagMask) + (p)->uimm) & memMask;       \
        if ((a_ >> 2) >= nWords)                                            \
            STOP_ILLEGAL(p, a_, M);                                         \
        regs[(p)->wslot] = mem[a_ >> 2];                                    \
        PEND_##M(p);                                                        \
    } while (0)
#define SEM_Stt(p, M)                                                       \
    do {                                                                    \
        const uint32_t w_ = regs[(p)->rs];                                  \
        TAG_CHECK(p, w_, M);                                                \
        const uint32_t a_ = ((w_ & detagMask) + (p)->uimm) & memMask;       \
        if ((a_ >> 2) >= nWords)                                            \
            STOP_ILLEGAL(p, a_, M);                                         \
        mem[a_ >> 2] = regs[(p)->rt];                                       \
    } while (0)

// Trapping tagged arithmetic. High-tag: §4.1 method 2, the fixnum test
// is sign-extend-and-compare; low-tag: both low schemes tag fixnums 00
// in the bottom bits. A failed op latches the operands in trapA/trapB
// and leaves the op code (1=addt, 2=subt) in scratch, exactly like
// Machine::execute.
#define TAGGED_HIGH(p, OP, code, M)                                         \
    do {                                                                    \
        const uint32_t a_ = regs[(p)->rs], b_ = regs[(p)->rt];              \
        const int64_t v_ = static_cast<int64_t>(signExtend(a_, dataBits))   \
            OP signExtend(b_, dataBits);                                    \
        if (static_cast<uint32_t>(signExtend(a_, dataBits)) != a_ ||        \
            static_cast<uint32_t>(signExtend(b_, dataBits)) != b_ ||        \
            !fitsSigned(v_, dataBits)) {                                    \
            regs[abi::trapA] = a_;                                          \
            regs[abi::trapB] = b_;                                          \
            TRAP(p, TrapKind::ArithFail, code, M);                          \
        }                                                                   \
        regs[(p)->wslot] = static_cast<uint32_t>(v_ & 0xffffffff);          \
    } while (0)
#define TAGGED_LOW(p, OP, code, M)                                          \
    do {                                                                    \
        const uint32_t a_ = regs[(p)->rs], b_ = regs[(p)->rt];              \
        const int64_t v_ =                                                  \
            static_cast<int64_t>(static_cast<int32_t>(a_) >> 2)             \
                OP(static_cast<int32_t>(b_) >> 2);                          \
        if (((a_ | b_) & 3u) != 0 || !fitsSigned(v_, 30)) {                 \
            regs[abi::trapA] = a_;                                          \
            regs[abi::trapB] = b_;                                          \
            TRAP(p, TrapKind::ArithFail, code, M);                          \
        }                                                                   \
        regs[(p)->wslot] = static_cast<uint32_t>(v_) << 2;                  \
    } while (0)
#define SEM_AddtHigh(p, M) TAGGED_HIGH(p, +, 1, M)
#define SEM_SubtHigh(p, M) TAGGED_HIGH(p, -, 2, M)
#define SEM_AddtLow(p, M) TAGGED_LOW(p, +, 1, M)
#define SEM_SubtLow(p, M) TAGGED_LOW(p, -, 2, M)

#define SEM_SysHalt(p, M)                                                   \
    do {                                                                    \
        exitValue = regs[(p)->rs];                                          \
        stop = StopReason::Halted;                                          \
        STOP_AT(p, M);                                                      \
    } while (0)
#define SEM_SysPutChar(p, M)                                                \
    (out += static_cast<char>(regs[(p)->rs] & 0xff))
#define SEM_SysPutFixRaw(p, M)                                              \
    (out += strcat(static_cast<int32_t>(regs[(p)->rs])))
#define SEM_SysPutFix(p, M)                                                 \
    (out += strcat(tu.lowTags                                               \
                       ? static_cast<int64_t>(                              \
                             static_cast<int32_t>(regs[(p)->rs]) >> 2)      \
                       : static_cast<int64_t>(                              \
                             signExtend(regs[(p)->rs], dataBits))))
#define SEM_SysError(p, M)                                                  \
    do {                                                                    \
        errorCode = static_cast<int32_t>(regs[(p)->rs]);                    \
        stop = StopReason::Errored;                                         \
        STOP_AT(p, M);                                                      \
    } while (0)

// Control transfers resolve the condition (and write a link before the
// slots run); the group tail runs the slots and transfers.
#define BRANCH(p, cond) (btaken = (cond), btarget = (p)->target)
#define SREG(p, r) static_cast<int32_t>(regs[(p)->r])
#define SEM_Beq(p, M) BRANCH(p, regs[(p)->rs] == regs[(p)->rt])
#define SEM_Bne(p, M) BRANCH(p, regs[(p)->rs] != regs[(p)->rt])
#define SEM_Blt(p, M) BRANCH(p, SREG(p, rs) < SREG(p, rt))
#define SEM_Bge(p, M) BRANCH(p, SREG(p, rs) >= SREG(p, rt))
#define SEM_Ble(p, M) BRANCH(p, SREG(p, rs) <= SREG(p, rt))
#define SEM_Bgt(p, M) BRANCH(p, SREG(p, rs) > SREG(p, rt))
#define SEM_Beqi(p, M)                                                      \
    BRANCH(p, SREG(p, rs) == static_cast<int32_t>((p)->uimm))
#define SEM_Bnei(p, M)                                                      \
    BRANCH(p, SREG(p, rs) != static_cast<int32_t>((p)->uimm))
#define SEM_Btag(p, M)                                                      \
    BRANCH(p, ((regs[(p)->rs] >> tagShift) & tagMask) == (p)->timm)
#define SEM_Bntag(p, M)                                                     \
    BRANCH(p, ((regs[(p)->rs] >> tagShift) & tagMask) != (p)->timm)
#define SEM_J(p, M) BRANCH(p, true)
#define SEM_Jal(p, M)                                                       \
    (BRANCH(p, true),                                                       \
     regs[(p)->wslot] = Machine::codeAddr(IDX(p) + 3))
#define SEM_Jr(p, M)                                                        \
    (btaken = true, btarget = static_cast<int>(regs[(p)->rs] >> 2))
// The target reads rs before the link write (rd may alias rs).
#define SEM_Jalr(p, M)                                                      \
    (SEM_Jr(p, M), regs[(p)->wslot] = Machine::codeAddr(IDX(p) + 3))

// The kinds, in TKind order: those admitted into delay slots, the rest
// of the straight-line kinds, and the control transfers.
#define SLOT_KINDS(X, M)                                                    \
    X(Add, M) X(Sub, M) X(And, M) X(Or, M) X(Xor, M) X(Sll, M) X(Srl, M)   \
    X(Sra, M) X(Mul, M) X(Div, M) X(Rem, M) X(Addi, M) X(Andi, M)          \
    X(Ori, M) X(Xori, M) X(Slli, M) X(Srli, M) X(Srai, M) X(Li, M)         \
    X(Mov, M) X(Noop, M) X(Ld, M) X(St, M)
#define OTHER_KINDS(X, M)                                                   \
    X(Ldt, M) X(Stt, M) X(AddtHigh, M) X(SubtHigh, M) X(AddtLow, M)        \
    X(SubtLow, M) X(SysHalt, M) X(SysPutChar, M) X(SysPutFixRaw, M)        \
    X(SysPutFix, M) X(SysError, M)
#define XFER_KINDS(X, M)                                                    \
    X(Beq, M) X(Bne, M) X(Blt, M) X(Bge, M) X(Ble, M) X(Bgt, M)            \
    X(Beqi, M) X(Bnei, M) X(Btag, M) X(Bntag, M) X(J, M) X(Jal, M)         \
    X(Jr, M) X(Jalr, M)
#define FUSED_PAIRS(X)                                                      \
    X(Addi, St) X(St, Ld) X(St, St) X(And, Ld) X(Ld, Srli) X(Ld, Addi)     \
    X(Ld, And) X(Ld, Ld) X(Ld, Li) X(Mov, Ld) X(Slli, Srai) X(Addi, Ld)    \
    X(St, Li) X(Ld, Slli)

#define KIND_OF(K, M) T##K,
#define FUSED_KIND_OF(A, B) TF_##A##_##B,
constexpr TKind kTableOrder[] = {
    SLOT_KINDS(KIND_OF, _) OTHER_KINDS(KIND_OF, _) XFER_KINDS(KIND_OF, _)
    TEnd, TEnter, FUSED_PAIRS(FUSED_KIND_OF)};

constexpr bool
listsFollowTKind()
{
    for (size_t i = 0; i < std::size(kTableOrder); ++i)
        if (kTableOrder[i] != i)
            return false;
    return std::size(kTableOrder) == kNumTKinds;
}
static_assert(listsFollowTKind(), "handler lists must follow TKind order");

#define ADDR_BLK(K, M) &&L_##K,
#define ADDR_CNT(K, M) &&C_##K,
#define ADDR_FUSED(A, B) &&L_F_##A##_##B,

/**
 * The executor. When @p labelsOut is non-null this is a *bind* call:
 * the function publishes its block-handler table (indexed by TKind)
 * and returns without touching the other arguments. GCC resolves
 * &&label identically on every call of the same function, so the
 * table bound here is valid for all later run calls.
 */
RunResult
coreRun(const CompiledUnit &unit, const TranslatedUnit &tu, Memory &image,
        const TranslatedControls &controls,
        const void *const **labelsOut)
{
    if (labelsOut) {
        static const void *const table[kNumTKinds] = {
            SLOT_KINDS(ADDR_BLK, _) OTHER_KINDS(ADDR_BLK, _)
            XFER_KINDS(ADDR_BLK, _) &&L_End, &&L_Enter,
            FUSED_PAIRS(ADDR_FUSED)
        };
        *labelsOut = table;
        return {};
    }
    // The counted handlers, found from an op's kind.
    static const void *const counted[TEnd + 1] = {
        SLOT_KINDS(ADDR_CNT, _) OTHER_KINDS(ADDR_CNT, _)
        XFER_KINDS(ADDR_CNT, _) &&L_End,
    };

    const TranslatedOp *const ops = tu.ops.data();
    const TranslatedBlock *const blocks = tu.blocks.data();
    const int n = static_cast<int>(tu.nInsts);
    MXL_ASSERT(tu.entry >= 0 && tu.entry < n, "bad entry point");

    // Machine state. Slot 32 is the write sink for rd == 0 (reads of
    // r0 always see the never-written regs[0] == 0).
    uint32_t regs[33] = {};
    uint32_t *const mem = image.size() ? &image.word(0) : nullptr;
    const uint32_t nWords = image.size() / 4;
    unsigned pending = kNoPend; // load-interlock register

    // Block counters, and the counted path's per-index counters —
    // executions, stall cycles, squash cycles — allocated on its first
    // use. All fold into CycleStats at the end.
    std::vector<BlockCounts> counts(tu.blocks.size());
    BlockCounts *const BC = counts.data();
    std::vector<uint64_t> perIndex;
#define EC(i) perIndex[static_cast<size_t>(i)]
#define ST(i) perIndex[static_cast<size_t>(n + (i))]
#define SQ(i) perIndex[static_cast<size_t>(2 * n + (i))]
    uint64_t cycles = 0;

    int trapHandler[3] = {-1, -1, -1};
    if (controls.installTrapHandlers) {
        trapHandler[static_cast<int>(TrapKind::ArithFail)] = tu.arithTrap;
        trapHandler[static_cast<int>(TrapKind::TagMismatch)] = tu.tagTrap;
    }

    // Scheme/hardware constants.
    const uint32_t tagShift = tu.tagShift;
    const uint32_t tagMask = tu.tagMask;
    const uint32_t detagMask = tu.detagMask;
    const uint32_t memMask = tu.memMask;
    const unsigned dataBits = tu.dataBits;

    // Budget: effLimit == maxCycles without a deadline; with one, the
    // run pauses every kDeadlineChunkCycles to poll the wall clock,
    // exactly like runUnitOn()'s Machine::resume chunking.
    const uint64_t maxCycles = controls.maxCycles;
    const bool deadlined = controls.deadlineSeconds > 0;
    const auto start = std::chrono::steady_clock::now();
    uint64_t effLimit =
        deadlined ? std::min(maxCycles, kDeadlineChunkCycles) : maxCycles;

    StopReason stop = StopReason::Running;
    int64_t errorCode = 0;
    uint32_t exitValue = 0;
    int faultIndex = -1;
    bool timedOut = false;
    std::string out;
    const TranslatedOp *stopAt = nullptr; // the op a stop happened at
    uint32_t tailFrom = 0, tailEnd = 0;   // its block's unexecuted ops

    // True when the run must stop (cycle limit / deadline); false when
    // only the deadline-poll chunk expired and execution continues.
    auto overBudget = [&]() -> bool {
        if (cycles > maxCycles) {
            stop = StopReason::CycleLimit;
            return true;
        }
        if (std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count() >= controls.deadlineSeconds) {
            timedOut = true;
            stop = StopReason::CycleLimit;
            return true;
        }
        effLimit = std::min(maxCycles, cycles + kDeadlineChunkCycles);
        return false;
    };

#define IDX(p) static_cast<int>((p) - ops)

    // The counted path's loop-top cycle guard: runs before every step,
    // like runLoop().
#define BUDGET()                                                            \
    do {                                                                    \
        if (__builtin_expect(cycles > effLimit, 0)) {                       \
            if (overBudget())                                               \
                goto done_CNT;                                              \
        }                                                                   \
    } while (0)

    // Counted issue of the instruction at *p: load interlock,
    // execution count, base cycle charge. Mirrors observeIssue + the
    // stall check + chargeAndCount's charge.
#define ISSUE(p)                                                            \
    do {                                                                    \
        if ((static_cast<uint64_t>((p)->readMask) >> pending) & 1u) {       \
            cycles++;                                                       \
            ST(IDX(p))++;                                                   \
        }                                                                   \
        pending = kNoPend;                                                  \
        EC(IDX(p))++;                                                       \
        cycles += (p)->cycles;                                              \
    } while (0)

    // Block mode: the next op of the block, or the next block's entry.
#define NEXT_BLK(nip)                                                       \
    do {                                                                    \
        ip = (nip);                                                         \
        goto *const_cast<void *>(ip->handler);                              \
    } while (0)

    // Counted mode continues to the next leader, which re-enters block
    // mode when the budget allows.
#define NEXT_CNT(nip)                                                       \
    do {                                                                    \
        ip = (nip);                                                         \
        if (ip->handler == &&L_Enter)                                       \
            goto L_Enter;                                                   \
        BUDGET();                                                           \
        goto *const_cast<void *>(counted[ip->kind]);                        \
    } while (0)

#define BLOCK_OP(K, M)                                                      \
    L_##K:                                                                  \
    SEM_##K(ip, BLK);                                                       \
    NEXT_BLK(ip + 1);
#define COUNTED_OP(K, M)                                                    \
    C_##K:                                                                  \
    ISSUE(ip);                                                              \
    SEM_##K(ip, CNT);                                                       \
    NEXT_CNT(ip + 1);
#define BLOCK_XFER(K, M)                                                    \
    L_##K:                                                                  \
    SEM_##K(ip, BLK);                                                       \
    goto group_BLK;
#define COUNTED_XFER(K, M)                                                  \
    C_##K:                                                                  \
    ISSUE(ip);                                                              \
    SEM_##K(ip, CNT);                                                       \
    goto group_CNT;
#define FUSED_OP(A, B)                                                      \
    L_F_##A##_##B:                                                          \
    SEM_##A(ip, BLK);                                                       \
    SEM_##B(ip + 1, BLK);                                                   \
    NEXT_BLK(ip + 2);

    // One delay-slot instruction. Only the kinds the translator admits
    // into slots can appear: non-control, non-trapping, non-Sys.
#define SLOT_CASE(K, M)                                                     \
      case T##K:                                                            \
        SEM_##K(s_, M);                                                     \
        break;
#define SLOT(p, M)                                                          \
    do {                                                                    \
        const TranslatedOp *const s_ = (p);                                 \
        switch (s_->kind) {                                                 \
            SLOT_KINDS(SLOT_CASE, M)                                        \
          default:                                                          \
            panic("unexpected opcode in a delay slot");                     \
        }                                                                   \
    } while (0)

    const TranslatedOp *ip = ops + tu.entry;
    // Shared control-group state (set by every branch handler).
    int btarget = -1;
    bool btaken = false;
    goto L_Enter;

    // ------------------------------------------------------------------
    // Block entry: the handler of every leader. The whole block is
    // charged here when it cannot reach the budget; otherwise it runs
    // counted, so the guard stops on the interpreter's exact cycle.
    // ------------------------------------------------------------------
L_Enter: {
    const uint32_t b = ip->blk;
    const TranslatedBlock &blk = blocks[b];
    // Block mode needs cycles + cost + 1 <= effLimit: cost + 1 bounds
    // every run of the block (the leader may stall once, and squashing
    // never costs more than the slots it replaces), so no guard inside
    // it could fire.
    if (__builtin_expect(cycles + blk.cost >= effLimit, 0))
        goto counted_entry;
    cycles += blk.cost;
    if ((static_cast<uint64_t>(ip->readMask) >> pending) & 1u) {
        cycles++;
        BC[b].stalls++;
    }
    BC[b].runs++;
    pending = blk.exitPend;
    goto *const_cast<void *>(blk.body);
}

counted_entry:
    if (perIndex.empty())
        perIndex.assign(3 * static_cast<size_t>(n), 0);
    BUDGET();
    goto *const_cast<void *>(counted[ip->kind]);

    // ------------------------------------------------------------------
    // Block handlers: semantics only.
    // ------------------------------------------------------------------
    SLOT_KINDS(BLOCK_OP, _)
    OTHER_KINDS(BLOCK_OP, _)
    XFER_KINDS(BLOCK_XFER, _)
    FUSED_PAIRS(FUSED_OP)

    // The group of a block-mode branch: its block was charged with the
    // slots executed; a squash swaps them for two squashed cycles and
    // leaves no load pending.
group_BLK:
    if (ip->annul & (btaken ? 1 : 2)) {
        cycles += static_cast<uint64_t>(
            static_cast<int64_t>(blocks[ip->blk].squashDelta));
        BC[ip->blk].squashes++;
        pending = kNoPend;
    } else {
        SLOT(ip + 1, BLK);
        SLOT(ip + 2, BLK);
    }
    goto transfer;

    // ------------------------------------------------------------------
    // Counted handlers: issue accounting and the cycle guard per step.
    // ------------------------------------------------------------------
    SLOT_KINDS(COUNTED_OP, _)
    OTHER_KINDS(COUNTED_OP, _)
    XFER_KINDS(COUNTED_XFER, _)

group_CNT:
    if (ip->annul & (btaken ? 1 : 2)) {
        // Two squashed cycles, charged to the branch. The branch's own
        // issue already cleared the load interlock, matching the
        // interpreter's per-squash pendingLoadReg_ reset.
        BUDGET();
        cycles++;
        SQ(IDX(ip))++;
        BUDGET();
        cycles++;
        SQ(IDX(ip))++;
    } else {
        BUDGET();
        ISSUE(ip + 1);
        SLOT(ip + 1, CNT);
        BUDGET();
        ISSUE(ip + 2);
        SLOT(ip + 2, CNT);
    }

    // ip is the branch. The op after a group and every static target
    // are leaders; a computed jump may land anywhere.
transfer:
    if (!btaken) {
        ip += 3;
        goto L_Enter;
    }
    if (btarget < 0 || btarget >= n)
        contextPanic(unit.prog, IDX(ip) + 2, cycles, "bad branch target");
    ip = ops + btarget;
    if (ip->handler == &&L_Enter)
        goto L_Enter;
    goto counted_entry;

L_End:
    // Fell off the end of the code (or a trap return landed there).
    contextPanic(unit.prog, n, cycles, strcat("pc out of range: ", n));

done_BLK:
    // The stopped op's block was charged whole at entry: take back the
    // cycles of the ops after it, which never ran.
    tailFrom = static_cast<uint32_t>(IDX(stopAt)) + 1;
    for (tailEnd = tailFrom; ops[tailEnd].blk == stopAt->blk; ++tailEnd)
        cycles -= ops[tailEnd].cycles + staticStall(ops, tailEnd);

done_CNT: {
    // ------------------------------------------------------------------
    // Fold the block and per-index counters into the interpreter's
    // CycleStats (and the per-PC profile when asked for).
    // ------------------------------------------------------------------
    RunResult r;
    CycleStats &st = r.stats;
    std::shared_ptr<PcProfile> prof;
    if (controls.collectProfile) {
        prof = std::make_shared<PcProfile>();
        prof->resize(tu.nInsts);
    }
    const auto &code = unit.prog.code;
    auto account = [&](uint32_t i, uint64_t e, uint64_t stl, uint64_t sq) {
        if ((e | stl | sq) == 0)
            return;
        const Instruction &inst = code[i];
        const int f = inst.ann.fromChecking ? 1 : 0;
        const uint64_t charged =
            e * static_cast<uint64_t>(opCycles(inst.op)) + stl + sq;
        st.total += charged;
        st.byPurpose[static_cast<int>(inst.ann.purpose)][f] += charged;
        st.byCat[static_cast<int>(inst.ann.cat)][f] += charged;
        st.loadStalls += stl;
        st.squashed += sq;
        if (prof) {
            prof->execCount[i] = e;
            prof->cycles[i] = charged;
        }
        st.instructions += e;
        switch (inst.op) {
          case Opcode::And:
          case Opcode::Andi:
            st.andOps += e;
            break;
          case Opcode::Mov:
            st.moveOps += e;
            break;
          case Opcode::Noop:
            st.noops += e;
            break;
          case Opcode::Ld:
          case Opcode::Ldt:
            st.loads += e;
            break;
          case Opcode::St:
          case Opcode::Stt:
            st.stores += e;
            break;
          default:
            if (isCondBranch(inst.op))
                st.branches += e;
            break;
        }
    };
    // Every op of a block ran once per block-mode entry, except the
    // slots of a squashed group and the tail after a stop; the stall
    // before a non-leader is static. The sentinel ends the last block.
    for (uint32_t first = 0, end = 0; first < static_cast<uint32_t>(n);
         first = end) {
        const uint32_t b = ops[first].blk;
        end = first + 1;
        while (ops[end].blk == b)
            ++end;
        const BlockCounts &c = BC[b];
        if (c.runs == 0 && perIndex.empty())
            continue;
        const uint32_t br = end - first >= 3 && isXferKind(ops[end - 3].kind)
                                ? end - 3
                                : end;
        for (uint32_t i = first; i < end; ++i) {
            uint64_t e = c.runs - (i > br ? c.squashes : 0) -
                         (i >= tailFrom && i < tailEnd ? 1 : 0);
            uint64_t stl = i == first ? c.stalls : e * staticStall(ops, i);
            uint64_t sq = i == br ? 2 * c.squashes : 0;
            if (!perIndex.empty()) {
                e += EC(i);
                stl += ST(i);
                sq += SQ(i);
            }
            account(i, e, stl, sq);
        }
    }
    MXL_ASSERT(st.total == cycles,
               "translated-backend cycle accounting diverged: rebuilt ",
               st.total, " vs live ", cycles);

    r.output = std::move(out);
    r.stop = stop;
    r.errorCode = errorCode;
    r.exitValue = exitValue;
    r.faultIndex = faultIndex;
    r.timedOut = timedOut;
    r.gcCount = image.load(tu.gcCountAddr);
    r.heapUsed = image.load(tu.heapUsedAddr);
    r.profile = std::move(prof);
    return r;
}

#undef SLOT
#undef SLOT_CASE
#undef FUSED_OP
#undef COUNTED_XFER
#undef BLOCK_XFER
#undef COUNTED_OP
#undef BLOCK_OP
#undef NEXT_CNT
#undef NEXT_BLK
#undef ISSUE
#undef BUDGET
#undef SQ
#undef ST
#undef EC
#undef IDX
}

/**
 * Label-table retrieval: the addresses live inside coreRun, so they
 * are fetched through a one-time bind call. The function-local static
 * makes concurrent first calls race-free.
 */
const void *const *
labelTable()
{
    static const void *const *table = [] {
        const void *const *t = nullptr;
        CompiledUnit dummyUnit;
        TranslatedUnit dummyTu;
        Memory dummyMem(0);
        TranslatedControls dummyControls;
        coreRun(dummyUnit, dummyTu, dummyMem, dummyControls, &t);
        return t;
    }();
    return table;
}

#endif // __GNUC__

} // namespace

#if defined(__GNUC__)

const void *const *
texecLabelTable()
{
    return labelTable();
}

RunResult
runTranslated(const CompiledUnit &unit, const TranslatedUnit &tu,
              Memory image, const TranslatedControls &controls)
{
    return coreRun(unit, tu, image, controls, nullptr);
}

#else // !__GNUC__

const void *const *
texecLabelTable()
{
    return nullptr;
}

RunResult
runTranslated(const CompiledUnit &, const TranslatedUnit &, Memory,
              const TranslatedControls &)
{
    panic("translated backend requires computed-goto support");
}

#endif

} // namespace mxl
