/**
 * Tests for the MX machine: instruction semantics, delay slots,
 * squashing, the load interlock, traps, and cycle accounting.
 */

#include <algorithm>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include "compiler/options.h"
#include "isa/assembler.h"
#include "machine/machine.h"
#include "support/panic.h"
#include "support/zeroed.h"
#include "tags/tag_scheme.h"

namespace mxl {
namespace {

/** Assemble and run; returns the machine for inspection. */
struct MRun
{
    Program prog;
    Machine m;

    MRun(const std::string &src, HardwareConfig hw = {},
        const TagScheme *scheme = nullptr, uint32_t memBytes = 1 << 16)
        : prog(assemble(src)), m(prog, Memory(memBytes), hw, scheme)
    {
    }

    StopReason go(const char *entry = "main") { return m.run(prog.symbol(entry)); }
};

TEST(Machine, AluOps)
{
    MRun r(R"(
        main:
            li r2, 21
            li r3, 4
            add r4, r2, r3
            sub r5, r2, r3
            and r6, r2, r3
            or r7, r2, r3
            xor r8, r2, r3
            mul r9, r2, r3
            div r10, r2, r3
            rem r11, r2, r3
            sys halt, r0
    )");
    EXPECT_EQ(r.go(), StopReason::Halted);
    EXPECT_EQ(r.m.reg(4), 25u);
    EXPECT_EQ(r.m.reg(5), 17u);
    EXPECT_EQ(r.m.reg(6), 4u);
    EXPECT_EQ(r.m.reg(7), 21u); // 10101 | 00100 == 10101
    EXPECT_EQ(r.m.reg(8), 17u);
    EXPECT_EQ(r.m.reg(9), 84u);
    EXPECT_EQ(r.m.reg(10), 5u);
    EXPECT_EQ(r.m.reg(11), 1u);
}

TEST(Machine, ShiftOps)
{
    MRun r(R"(
        main:
            li r2, -8
            slli r3, r2, 1
            srli r4, r2, 1
            srai r5, r2, 1
            li r6, 2
            sll r7, r2, r6
            sra r8, r2, r6
            sys halt, r0
    )");
    r.go();
    EXPECT_EQ(static_cast<int32_t>(r.m.reg(3)), -16);
    EXPECT_EQ(r.m.reg(4), 0x7ffffffcu);
    EXPECT_EQ(static_cast<int32_t>(r.m.reg(5)), -4);
    EXPECT_EQ(static_cast<int32_t>(r.m.reg(7)), -32);
    EXPECT_EQ(static_cast<int32_t>(r.m.reg(8)), -2);
}

TEST(Machine, DivByZeroErrors)
{
    MRun r("main:\n li r2, 1\n div r3, r2, r0\n sys halt, r0\n");
    EXPECT_EQ(r.go(), StopReason::Errored);
    EXPECT_EQ(r.m.errorCode(), 2000);
}

TEST(Machine, LoadStore)
{
    MRun r(R"(
        main:
            li r2, 0x100
            li r3, 1234
            st r3, 8(r2)
            ld r4, 8(r2)
            sys halt, r4
    )");
    EXPECT_EQ(r.go(), StopReason::Halted);
    EXPECT_EQ(r.m.exitValue(), 1234u);
}

TEST(Machine, WordAddressedMemoryDropsLowBits)
{
    // The bottom two bits of every effective address are ignored.
    MRun r(R"(
        main:
            li r2, 0x102
            li r3, 77
            st r3, 0(r2)
            ld r4, -2(r2)
            sys halt, r4
    )");
    r.go();
    EXPECT_EQ(r.m.exitValue(), 77u);
}

TEST(Machine, BranchTakenSkips)
{
    MRun r(R"(
        main:
            li r2, 5
            li r3, 5
            beq r2, r3, eq
            noop
            noop
            li r1, 1
            sys halt, r1
        eq:
            li r1, 2
            sys halt, r1
    )");
    r.go();
    EXPECT_EQ(r.m.exitValue(), 2u);
}

TEST(Machine, DelaySlotsAlwaysExecuteWhenNotSquashing)
{
    MRun r(R"(
        main:
            li r2, 1
            beq r0, r0, over    ; taken
            li r2, 42           ; delay slot: executes anyway
            noop
        over:
            sys halt, r2
    )");
    r.go();
    EXPECT_EQ(r.m.exitValue(), 42u);
}

TEST(Machine, SquashOnTakenAnnulsSlots)
{
    MRun r(R"(
        main:
            li r2, 1
            beq.t r0, r0, over  ; taken -> slots annulled
            li r2, 42
            noop
        over:
            sys halt, r2
    )");
    r.go();
    EXPECT_EQ(r.m.exitValue(), 1u);
    EXPECT_EQ(r.m.stats().squashed, 2u);
}

TEST(Machine, SquashOnNotTakenAnnulsSlots)
{
    MRun r(R"(
        main:
            li r2, 1
            li r3, 2
            beq.nt r2, r3, nowhere  ; not taken -> slots annulled
            li r2, 42
            noop
            sys halt, r2
        nowhere:
            sys halt, r0
    )");
    r.go();
    EXPECT_EQ(r.m.exitValue(), 1u);
    EXPECT_EQ(r.m.stats().squashed, 2u);
}

TEST(Machine, CompareImmediateBranches)
{
    MRun r(R"(
        main:
            li r2, 9
            beqi r2, 9, yes
            noop
            noop
            sys halt, r0
        yes:
            bnei r2, 5, done
            noop
            noop
            sys halt, r0
        done:
            li r1, 3
            sys halt, r1
    )");
    r.go();
    EXPECT_EQ(r.m.exitValue(), 3u);
}

TEST(Machine, JalAndJrLinkProperly)
{
    MRun r(R"(
        main:
            jal r31, sub
            noop
            noop
            sys halt, r1        ; after return
        sub:
            li r1, 99
            jr r31
            noop
            noop
    )");
    r.go();
    EXPECT_EQ(r.m.exitValue(), 99u);
}

TEST(Machine, JalrThroughRegister)
{
    MRun r(R"(
        main:
            li r5, 28           ; byte address of instruction 7 (sub)
            jalr r31, r5
            noop
            noop
            sys halt, r1
            noop
            noop
        sub:
            li r1, 7
            jr r31
            noop
            noop
    )");
    r.go();
    EXPECT_EQ(r.m.exitValue(), 7u);
}

TEST(Machine, LoadDelayStallCounted)
{
    MRun r(R"(
        main:
            li r2, 0x100
            li r3, 5
            st r3, 0(r2)
            ld r4, 0(r2)
            add r5, r4, r4      ; uses r4 right away: one stall
            sys halt, r5
    )");
    r.go();
    EXPECT_EQ(r.m.exitValue(), 10u);
    EXPECT_EQ(r.m.stats().loadStalls, 1u);
}

TEST(Machine, NoStallWithScheduledGap)
{
    MRun r(R"(
        main:
            li r2, 0x100
            ld r4, 0(r2)
            li r3, 5            ; fills the load delay
            add r5, r4, r3
            sys halt, r5
    )");
    r.go();
    EXPECT_EQ(r.m.stats().loadStalls, 0u);
}

TEST(Machine, CycleAccountingSums)
{
    MRun r(R"(
        main:
            li r2, 3
            li r3, 4
            mul r4, r2, r3      ; multi-cycle
            sys halt, r4
    )");
    r.go();
    // li + li + mul(4) + sys = 1+1+4+1
    EXPECT_EQ(r.m.stats().total, 7u);
    EXPECT_EQ(r.m.stats().instructions, 4u);
}

TEST(Machine, OutputSyscalls)
{
    MRun r(R"(
        main:
            li r2, 72
            sys putchar, r2
            li r2, 105
            sys putchar, r2
            li r2, -42
            sys putfixraw, r2
            sys halt, r0
    )");
    r.go();
    EXPECT_EQ(r.m.output(), "Hi-42");
}

TEST(Machine, PutFixDecodesThroughScheme)
{
    auto scheme = makeScheme(SchemeKind::Low3);
    Program p = assemble(R"(
        main:
            li r2, -40          ; low-tag representation of -10
            sys putfix, r2
            sys halt, r0
    )");
    Machine m(p, Memory(4096), {}, scheme.get());
    m.run(p.symbol("main"));
    EXPECT_EQ(m.output(), "-10");
}

TEST(Machine, HardwareGatingPanics)
{
    // ldt without checked-memory hardware is an illegal program.
    auto scheme = makeScheme(SchemeKind::High5);
    Program p = assemble("main:\n ldt r3, 0(r2), 9\n sys halt, r0\n");
    Machine m(p, Memory(4096), {}, scheme.get());
    EXPECT_THROW(m.run(p.symbol("main")), MxlError);
}

TEST(Machine, HardwareWithoutSchemePanics)
{
    Program p = assemble("main:\n sys halt, r0\n");
    HardwareConfig hw;
    hw.branchOnTag = true;
    EXPECT_THROW(Machine(p, Memory(4096), hw, nullptr), MxlError);
}

TEST(Machine, BtagComparesTagField)
{
    auto scheme = makeScheme(SchemeKind::High5);
    HardwareConfig hw;
    hw.branchOnTag = true;
    uint32_t pairWord = scheme->encodePointer(TypeId::Pair, 0x200);
    Program p = assemble(strcat(R"(
        main:
            li r2, )", pairWord, R"(
            btag r2, 9, ispair
            noop
            noop
            sys halt, r0
        ispair:
            li r1, 1
            sys halt, r1
    )"));
    Machine m(p, Memory(4096), hw, scheme.get());
    m.run(p.symbol("main"));
    EXPECT_EQ(m.exitValue(), 1u);
}

TEST(Machine, CheckedLoadTrapsOnWrongTag)
{
    auto scheme = makeScheme(SchemeKind::High5);
    HardwareConfig hw;
    hw.checkedMemory = CheckedMem::All;
    uint32_t vecWord = scheme->encodePointer(TypeId::Vector, 0x200);
    Program p = assemble(strcat(R"(
        main:
            li r2, )", vecWord, R"(
            ldt r3, 0(r2), 9     ; expects a pair: traps
            sys halt, r0
        handler:
            li r1, 55
            sys halt, r1
    )"));
    Machine m(p, Memory(4096), hw, scheme.get());
    m.setTrapHandler(TrapKind::TagMismatch, p.symbol("handler"));
    m.run(p.symbol("main"));
    EXPECT_EQ(m.exitValue(), 55u);
    // Operand details latched for the handler.
    EXPECT_EQ(m.reg(abi::trapA), vecWord);
    EXPECT_EQ(m.reg(abi::trapB), 9u);
}

TEST(Machine, AddtComputesAndTraps)
{
    auto scheme = makeScheme(SchemeKind::High5);
    HardwareConfig hw;
    hw.genericArith = true;
    Program p = assemble(R"(
        main:
            li r2, 20
            li r3, 22
            addt r1, r2, r3
            sys halt, r1
    )");
    Machine m(p, Memory(4096), hw, scheme.get());
    m.run(p.symbol("main"));
    EXPECT_EQ(m.exitValue(), 42u);

    // Overflow traps with no handler -> error stop.
    Program p2 = assemble(strcat(R"(
        main:
            li r2, )", (1 << 26) - 1, R"(
            addt r1, r2, r2
            sys halt, r1
    )"));
    Machine m2(p2, Memory(4096), hw, scheme.get());
    EXPECT_EQ(m2.run(p2.symbol("main")), StopReason::Errored);
}

TEST(Machine, IgnoreTagOnMemoryMasksAddresses)
{
    auto scheme = makeScheme(SchemeKind::High5);
    HardwareConfig hw;
    hw.ignoreTagOnMemory = true;
    uint32_t tagged = scheme->encodePointer(TypeId::Pair, 0x100);
    Program p = assemble(strcat(R"(
        main:
            li r2, 77
            li r3, )", tagged, R"(
            st r2, 0(r3)        ; tag dropped by hardware
            ld r4, 0(r3)
            sys halt, r4
    )"));
    Machine m(p, Memory(4096), hw, scheme.get());
    m.run(p.symbol("main"));
    EXPECT_EQ(m.exitValue(), 77u);
}

TEST(Machine, CycleLimitStops)
{
    MRun r("main:\n j main\n noop\n noop\n");
    EXPECT_EQ(r.m.run(r.prog.symbol("main"), 100), StopReason::CycleLimit);
}

TEST(Machine, ErrorContextInPanics)
{
    // An illegal instruction for the configured hardware (ldt without
    // checked memory) panics, and the panic carries execution context.
    MRun r("main:\n ldt r3, 0(r2), 9\n sys halt, r0\n");
    try {
        r.go();
        FAIL() << "expected a hardware-gating panic";
    } catch (const MxlError &e) {
        EXPECT_NE(std::string(e.what()).find("near 'main'"),
                  std::string::npos);
    }
}

// ---- no-handler trap semantics (machine/machine.h encoding) ----------

TEST(Machine, UnhandledTagTrapEncodesKindAndIndex)
{
    auto scheme = makeScheme(SchemeKind::High5);
    HardwareConfig hw;
    hw.checkedMemory = CheckedMem::All;
    uint32_t vecWord = scheme->encodePointer(TypeId::Vector, 0x200);
    Program p = assemble(strcat(R"(
        main:
            li r2, )", vecWord, R"(
            ldt r3, 0(r2), 9
            sys halt, r0
    )"));
    Machine m(p, Memory(4096), hw, scheme.get());
    EXPECT_EQ(m.run(p.symbol("main")), StopReason::Errored);
    ASSERT_TRUE(isUnhandledTrapCode(m.errorCode()));
    EXPECT_EQ(unhandledTrapKind(m.errorCode()), TrapKind::TagMismatch);
    // The ldt is the second instruction (index 1).
    EXPECT_EQ(unhandledTrapIndex(m.errorCode()), 1);
    EXPECT_EQ(m.faultIndex(), 1);
}

TEST(Machine, UnhandledArithTrapEncodesKindAndIndex)
{
    auto scheme = makeScheme(SchemeKind::High5);
    HardwareConfig hw;
    hw.genericArith = true;
    Program p = assemble(strcat(R"(
        main:
            li r2, )", (1 << 26) - 1, R"(
            addt r1, r2, r2
            sys halt, r1
    )"));
    Machine m(p, Memory(4096), hw, scheme.get());
    EXPECT_EQ(m.run(p.symbol("main")), StopReason::Errored);
    ASSERT_TRUE(isUnhandledTrapCode(m.errorCode()));
    EXPECT_EQ(unhandledTrapKind(m.errorCode()), TrapKind::ArithFail);
    EXPECT_EQ(unhandledTrapIndex(m.errorCode()), 1);
}

TEST(Machine, UnhandledTrapCodeRangeIsDisjoint)
{
    // The encoding must never collide with Lisp-level or machine-level
    // error codes.
    EXPECT_FALSE(isUnhandledTrapCode(0));
    EXPECT_FALSE(isUnhandledTrapCode(kDivideByZeroCode));
    EXPECT_FALSE(isUnhandledTrapCode(101));
    int64_t code = encodeUnhandledTrap(TrapKind::ArithFail, 7);
    ASSERT_TRUE(isUnhandledTrapCode(code));
    EXPECT_EQ(unhandledTrapKind(code), TrapKind::ArithFail);
    EXPECT_EQ(unhandledTrapIndex(code), 7);
}

// ---- wild memory accesses (satellite: deterministic, never UB) -------

TEST(Machine, WildLoadStopsWithIllegalAccess)
{
    MRun r("main:\n li r2, -64\n ld r3, 0(r2)\n sys halt, r0\n");
    EXPECT_EQ(r.go(), StopReason::IllegalAccess);
    // errorCode holds the wild byte address; faultIndex the load.
    EXPECT_EQ(r.m.errorCode(),
              static_cast<int64_t>(static_cast<uint32_t>(-64)));
    EXPECT_EQ(r.m.faultIndex(), 1);
}

TEST(Machine, WildStoreStopsWithIllegalAccess)
{
    MRun r(R"(
        main:
            li r2, 0x7fffff00
            li r3, 1
            st r3, 0(r2)
            sys halt, r0
    )");
    EXPECT_EQ(r.go(), StopReason::IllegalAccess);
    EXPECT_EQ(r.m.errorCode(), 0x7fffff00);
    EXPECT_EQ(r.m.faultIndex(), 2);
}

TEST(Machine, WildCheckedLoadStopsWithIllegalAccess)
{
    // A correctly tagged pointer whose address is out of range: the tag
    // check passes, then the access itself goes wild.
    auto scheme = makeScheme(SchemeKind::Low2);
    HardwareConfig hw;
    hw.checkedMemory = CheckedMem::All;
    uint32_t pairWord = scheme->encodePointer(TypeId::Pair, 0x40000);
    uint32_t tag = scheme->pointerTag(TypeId::Pair);
    Program p = assemble(strcat(R"(
        main:
            li r2, )", pairWord, R"(
            ldt r3, 0(r2), )", tag, R"(
            sys halt, r0
    )"));
    Machine m(p, Memory(4096), hw, scheme.get());
    EXPECT_EQ(m.run(p.symbol("main")), StopReason::IllegalAccess);
    EXPECT_EQ(m.faultIndex(), 1);
}

TEST(Memory, InBoundsAndDeterministicOutOfRange)
{
    Memory mem(64); // 16 words
    EXPECT_TRUE(mem.inBounds(0));
    EXPECT_TRUE(mem.inBounds(63));   // word index 15
    EXPECT_FALSE(mem.inBounds(64));
    EXPECT_FALSE(mem.inBounds(0xffffffffu));
    // Direct load()/store() out of range raise MxlError, never UB.
    EXPECT_THROW(mem.load(64), MxlError);
    EXPECT_THROW(mem.store(64, 1), MxlError);
}

// ---- resume(): chunked execution is invisible (core of deadlines) ----

TEST(Machine, ResumeChunkedRunMatchesSingleRun)
{
    const char *src = R"(
        main:
            li r2, 200
            li r3, 0
        loop:
            add r3, r3, r2
            addi r2, r2, -1
            bne r2, r0, loop
            noop
            noop
            sys putfixraw, r3
            sys halt, r3
    )";
    MRun whole(src);
    EXPECT_EQ(whole.go(), StopReason::Halted);

    MRun chunked(src);
    uint64_t budget = 7;
    StopReason stop =
        chunked.m.run(chunked.prog.symbol("main"), budget);
    while (stop == StopReason::CycleLimit) {
        budget += 7;
        stop = chunked.m.resume(budget);
    }
    EXPECT_EQ(stop, StopReason::Halted);
    EXPECT_EQ(chunked.m.stats().total, whole.m.stats().total);
    EXPECT_EQ(chunked.m.stats().loads, whole.m.stats().loads);
    EXPECT_EQ(chunked.m.stats().branches, whole.m.stats().branches);
    EXPECT_EQ(chunked.m.output(), whole.m.output());
    EXPECT_EQ(chunked.m.exitValue(), whole.m.exitValue());
}

TEST(Machine, ResumeInsideDelaySlotPreservesSquashAndLoadDelay)
{
    // A cycle-limit pause can land between a branch and its delay
    // slots, or between the two slots. The in-flight branch state
    // (target, annulment, remaining slots) and a pending load delay
    // must survive the pause: resume at EVERY possible cycle and
    // require the end state to match the uninterrupted run.
    const char *const programs[] = {
        R"(
        main:
            li r2, 6
            li r3, 0
            li r4, 0x200
        loop:
            st r2, 0(r4)
            ld r5, 0(r4)        ; load feeding the add: delay shadow
            add r3, r3, r5
            addi r2, r2, -1
            bne.t r2, r0, loop  ; annul-on-taken: squashed slots
            addi r3, r3, 1      ; annulled while looping, runs at exit
            addi r3, r3, 2
            beq.nt r2, r2, done ; taken + annul-on-not-taken: slots run
            ld r6, 0(r4)
            add r3, r3, r6      ; uses r6 right after its load
        done:
            sys putfixraw, r3
            sys halt, r3
        )",
        // Taken and not-taken branches, annulled slots, loads in the
        // branch shadow, and a store loop.
        R"(
        main:
            li r2, 12
            li r3, 0
            li r4, 0x100
        loop:
            st r3, 0(r4)
            ld r5, 0(r4)
            add r3, r5, r2
            addi r2, r2, -1
            bne r2, r0, loop
            addi r4, r4, 4
            noop
            beq r2, r3, never
            ld r6, -4(r4)
            add r3, r3, r6
            bne.t r3, r0, over
            addi r3, r3, 99
            addi r3, r3, 1000
        over:
            sys putfixraw, r3
            sys halt, r3
        never:
            sys halt, r0
        )",
    };
    for (const char *src : programs) {
        SCOPED_TRACE(src);
        MRun whole(src);
        ASSERT_EQ(whole.go(), StopReason::Halted);
        const uint64_t total = whole.m.stats().total;
        ASSERT_GT(whole.m.stats().squashed, 0u);
        ASSERT_GT(whole.m.stats().loadStalls, 0u);

        for (uint64_t pause = 1; pause < total; ++pause) {
            MRun split(src);
            StopReason stop = split.m.run(split.prog.symbol("main"), pause);
            if (stop == StopReason::Halted) {
                // A budget within one instruction group of the total
                // lets the final halt slip in; nothing left to split.
                ASSERT_TRUE(split.m.stats() == whole.m.stats()) << pause;
                continue;
            }
            ASSERT_EQ(stop, StopReason::CycleLimit) << pause;
            ASSERT_EQ(split.m.resume(kDefaultMaxCycles), StopReason::Halted)
                << pause;
            ASSERT_TRUE(split.m.stats() == whole.m.stats())
                << "CycleStats diverged after pause at " << pause;
            ASSERT_EQ(split.m.output(), whole.m.output()) << pause;
            ASSERT_EQ(split.m.exitValue(), whole.m.exitValue()) << pause;
        }
    }
}

// ---- observeIssue(): the one observation point both issue paths use ----

TEST(Machine, TraceHookAndProfilerSeeEveryIssueOnceNeverAnnulled)
{
    // Straight-line code, a taken annul-on-taken loop branch (squashed
    // slots), a taken annul-on-not-taken branch (slots run), and a
    // load interlock: every way an instruction can issue. The hook and
    // the profiler's counting path share observeIssue(), so they must
    // agree with each other, with CycleStats::instructions, and both
    // must skip annulled slots (charged cycles, never executed).
    const char *src = R"(
        main:
            li r2, 3
            li r3, 0
            li r4, 0x100
        loop:
            st r2, 0(r4)
            ld r5, 0(r4)        ; load feeding the add: interlock stall
            add r3, r3, r5
            addi r2, r2, -1
            bne.t r2, r0, loop  ; annul-on-taken: slots squashed
        slot1:
            addi r3, r3, 1      ; annulled while looping, runs at exit
        slot2:
            addi r3, r3, 2
            beq.nt r2, r2, done ; taken annul-on-not-taken: slots run
        ranslot:
            noop
            noop
        done:
            sys halt, r3
    )";
    MRun r(src);
    std::vector<uint64_t> hookCount(r.prog.code.size(), 0);
    std::vector<uint64_t> execCount(r.prog.code.size(), 0);
    std::vector<uint64_t> cycleCount(r.prog.code.size(), 0);
    uint64_t hookFires = 0;
    int lastIdx = -1;
    r.m.traceHook = [&](int idx, const Instruction &) {
        hookCount[idx]++;
        hookFires++;
        lastIdx = idx;
    };
    r.m.attachProfile(execCount.data(), cycleCount.data());
    ASSERT_EQ(r.go(), StopReason::Halted);
    ASSERT_GT(r.m.stats().squashed, 0u);
    ASSERT_GT(r.m.stats().loadStalls, 0u);

    // Exactly one hook fire per executed instruction, and the hook and
    // the counting path observe the identical stream.
    EXPECT_EQ(hookFires, r.m.stats().instructions);
    EXPECT_EQ(hookCount, execCount);
    EXPECT_EQ(lastIdx, r.prog.symbol("done"));

    // Annulled slots never fire; the not-annulled slots of the second
    // branch and the exit-path run of slot1/slot2 do.
    const uint64_t iters = 3;
    EXPECT_EQ(hookCount[r.prog.symbol("slot1")], 1u); // exit pass only
    EXPECT_EQ(hookCount[r.prog.symbol("slot2")], 1u);
    EXPECT_EQ(hookCount[r.prog.symbol("ranslot")], 1u);
    EXPECT_EQ(hookCount[r.prog.symbol("loop")], iters);

    // The cycle histogram still conserves every charged cycle: the
    // squashed slots' cycles land on their branch's PC, the interlock
    // stall on the stalled (consuming) instruction.
    uint64_t cycles = 0;
    for (uint64_t c : cycleCount)
        cycles += c;
    EXPECT_EQ(cycles, r.m.stats().total);
    EXPECT_EQ(cycleCount[r.prog.symbol("slot1")], 1u); // exit pass only
    int loadIdx = r.prog.symbol("loop") + 1;
    EXPECT_EQ(cycleCount[loadIdx], iters);          // the loads alone
    EXPECT_EQ(cycleCount[loadIdx + 1], iters * 2u); // add + 1 stall each
}

// ---- MTE-style memory tagging (lock and key) --------------------------
//
// A low-tag scheme keeps pointer tags in the low address bits, so a
// keyed access and a raw access to the same word use base registers
// that differ only in those bits (word-addressed memory drops them).
// Pair (001) and symbol (010) pointers to base 0x200 both address word
// 0x80, with keys 1 and 2.

TEST(Machine, MemTaggingKeyedStoreAndLoadRoundTrip)
{
    auto scheme = makeScheme(SchemeKind::Low3);
    HardwareConfig hw;
    hw.memTagging = true;
    uint32_t pairWord = scheme->encodePointer(TypeId::Pair, 0x200);
    Program p = assemble(strcat(R"(
        main:
            li r2, )", pairWord, R"(
            li r3, 1234
            st r3, 0(r2)
            ld r4, 0(r2)
            sys halt, r4
    )"));
    Machine m(p, Memory(4096), hw, scheme.get());
    EXPECT_EQ(m.run(p.symbol("main")), StopReason::Halted);
    EXPECT_EQ(m.exitValue(), 1234u);
    // The keyed store painted the word's lock with the pointer's tag.
    EXPECT_EQ(m.memTagLock(0x200 / 4), scheme->primaryTag(pairWord));
}

TEST(Machine, MemTaggingTrapsOnKeyMismatch)
{
    auto scheme = makeScheme(SchemeKind::Low3);
    HardwareConfig hw;
    hw.memTagging = true;
    uint32_t pairWord = scheme->encodePointer(TypeId::Pair, 0x200);
    uint32_t symWord = scheme->encodePointer(TypeId::Symbol, 0x200);
    std::string src = strcat(R"(
        main:
            li r2, )", pairWord, R"(
            li r3, 1234
            st r3, 0(r2)
            li r5, )", symWord, R"(
            ld r4, 0(r5)        ; wrong key: traps
            sys halt, r4
        handler:
            li r1, 55
            sys halt, r1
    )");

    // Without a handler the trap stops the run with the encoded
    // unhandled-TagMismatch error code.
    Program p = assemble(src);
    Machine bare(p, Memory(4096), hw, scheme.get());
    EXPECT_EQ(bare.run(p.symbol("main")), StopReason::Errored);
    EXPECT_TRUE(isUnhandledTrapCode(bare.errorCode()));
    EXPECT_EQ(unhandledTrapKind(bare.errorCode()), TrapKind::TagMismatch);

    // With a handler it vectors, latching the key and the lock.
    Machine m(p, Memory(4096), hw, scheme.get());
    m.setTrapHandler(TrapKind::TagMismatch, p.symbol("handler"));
    m.run(p.symbol("main"));
    EXPECT_EQ(m.exitValue(), 55u);
    EXPECT_EQ(m.reg(abi::trapA), symWord);
    EXPECT_EQ(m.reg(abi::trapB), scheme->primaryTag(pairWord));
}

TEST(Machine, MemTaggingRawStoreUnpaintsRawLoadBypasses)
{
    auto scheme = makeScheme(SchemeKind::Low3);
    HardwareConfig hw;
    hw.memTagging = true;
    uint32_t pairWord = scheme->encodePointer(TypeId::Pair, 0x200);
    uint32_t symWord = scheme->encodePointer(TypeId::Symbol, 0x200);
    // Paint with the pair key, read raw (fixnum base: the allocator's
    // and GC's view), then recycle the word with a raw store and claim
    // it under the symbol key — the memory-reuse lifecycle.
    Program p = assemble(strcat(R"(
        main:
            li r2, )", pairWord, R"(
            li r3, 1234
            st r3, 0(r2)
            li r6, 0x200
            ld r4, 0(r6)        ; raw load bypasses the lock
            li r7, 77
            st r7, 0(r6)        ; raw store unpaints
            li r5, )", symWord, R"(
            ld r8, 0(r5)        ; first keyed read repaints: no trap
            sys halt, r8
    )"));
    Machine m(p, Memory(4096), hw, scheme.get());
    EXPECT_EQ(m.run(p.symbol("main")), StopReason::Halted);
    EXPECT_EQ(m.exitValue(), 77u);
    EXPECT_EQ(m.memTagLock(0x200 / 4), scheme->primaryTag(symWord));
}

TEST(Machine, MemTaggingFirstKeyedReadPaintsUnclaimedWords)
{
    auto scheme = makeScheme(SchemeKind::Low3);
    HardwareConfig hw;
    hw.memTagging = true;
    uint32_t symWord = scheme->encodePointer(TypeId::Symbol, 0x200);
    Program p = assemble(strcat(R"(
        main:
            li r5, )", symWord, R"(
            ld r4, 0(r5)
            sys halt, r4
    )"));
    Machine m(p, Memory(4096), hw, scheme.get());
    EXPECT_EQ(m.memTagLock(0x200 / 4), Machine::kMemTagUnpainted);
    EXPECT_EQ(m.run(p.symbol("main")), StopReason::Halted);
    EXPECT_EQ(m.memTagLock(0x200 / 4), scheme->primaryTag(symWord));
}

#ifdef __linux__

/** Resident pages among those overlapping [p, p + bytes) (mincore). */
size_t
residentPages(const void *p, size_t bytes)
{
    const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    const uintptr_t lo = reinterpret_cast<uintptr_t>(p) & ~(page - 1);
    const uintptr_t hi = reinterpret_cast<uintptr_t>(p) + bytes;
    std::vector<unsigned char> vec((hi - lo + page - 1) / page);
    EXPECT_EQ(mincore(reinterpret_cast<void *>(lo), hi - lo, vec.data()), 0);
    return static_cast<size_t>(std::count_if(
        vec.begin(), vec.end(), [](unsigned char v) { return v & 1; }));
}

/** This process's resident set in pages (/proc/self/statm). */
long
residentSetPages()
{
    std::ifstream statm("/proc/self/statm");
    long size = 0, resident = 0;
    statm >> size >> resident;
    return resident;
}

TEST(Memory, DefaultImageAndLockArrayLeaveUntouchedPagesNonResident)
{
    // Three allocate/free rounds: once a large block is freed, glibc
    // raises its mmap threshold and fills later calloc()s of that size,
    // so a heap-backed image would be lazy in round 1 only. Huge pages,
    // where enabled, may back a touched word with 2 MiB: hence the
    // 1/8 bound, where a fill makes every page resident.
    const uint32_t bytes = CompilerOptions{}.memBytes;
    const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    for (int round = 1; round <= 3; ++round) {
        SCOPED_TRACE(round);
        Memory mem(bytes);
        mem.store(0, 1);
        mem.store(bytes - 4, 2);
        EXPECT_LE(residentPages(&mem.word(0), mem.size()),
                  mem.size() / page / 8);

        ZeroedArray<uint8_t> locks(bytes / 4);
        locks[0] = 1;
        EXPECT_LE(residentPages(locks.data(), locks.size()),
                  locks.size() / page / 8);
    }
}

TEST(Machine, MemTagMachineOnDefaultImageStaysLazy)
{
    // The whole-process view of the same claim: building and running a
    // memTagging machine on a default-size image (32 MiB of words plus
    // an 8 MiB lock array) grows the resident set by a few pages.
    auto scheme = makeScheme(SchemeKind::Low3);
    HardwareConfig hw;
    hw.memTagging = true;
    uint32_t pairWord = scheme->encodePointer(TypeId::Pair, 0x200);
    Program p = assemble(strcat(R"(
        main:
            li r2, )", pairWord, R"(
            li r3, 1234
            st r3, 0(r2)
            sys halt, r0
    )"));
    {
        // Warm-up on a small image: fault the code paths in first.
        Machine warm(p, Memory(4096), hw, scheme.get());
        warm.run(p.symbol("main"));
    }
    const uint32_t bytes = CompilerOptions{}.memBytes;
    const long lockPages =
        static_cast<long>(bytes / 4 / sysconf(_SC_PAGESIZE));
    for (int round = 1; round <= 3; ++round) {
        SCOPED_TRACE(round);
        const long before = residentSetPages();
        Machine m(p, Memory(bytes), hw, scheme.get());
        ASSERT_EQ(m.run(p.symbol("main")), StopReason::Halted);
        EXPECT_EQ(m.memTagLock(0x200 / 4), scheme->primaryTag(pairWord));
        EXPECT_LT(residentSetPages() - before, lockPages / 8);
    }
}

#endif // __linux__

} // namespace
} // namespace mxl
