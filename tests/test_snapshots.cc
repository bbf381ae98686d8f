/**
 * MachineSnapshot: checkpoint/restore invisibility.
 *
 * The defining invariant (machine/snapshot.h): pausing a run at ANY
 * cycle, snapshotting, restoring — into the same machine or a freshly
 * constructed one — and resuming must be cycle-identical to the
 * uninterrupted run: same CycleStats, same output bytes, same halt
 * value. Exercised three ways:
 *
 *  - exhaustively, at every cycle of a small assembly program dense
 *    with branches, annulled delay slots, and load-delay shadows;
 *  - property-style, at seeded pause fractions of all ten benchmark
 *    programs under two configurations (unchecked High5 and the full
 *    checked-memory hardware ladder rung);
 *  - through the Engine seam (RunRequest::pauseAtCycle/snapshotHook).
 *
 * Plus the serialization contract: deterministic bytes, lossless
 * round-trip, and rejection of malformed input.
 */

#include <gtest/gtest.h>

#include "compiler/unit.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/run.h"
#include "isa/assembler.h"
#include "machine/snapshot.h"
#include "programs/programs.h"
#include "faults/fault_injector.h"
#include "support/panic.h"

using namespace mxl;

namespace {

/** Build the machine for @p unit exactly as core/run.cc does. */
void
setupMachine(Machine &m, const CompiledUnit &unit)
{
    if (unit.opts.hw.genericArith && unit.arithTrap >= 0)
        m.setTrapHandler(TrapKind::ArithFail, unit.arithTrap);
    if (unit.opts.hw.checkedMemory != CheckedMem::None &&
        unit.tagTrap >= 0)
        m.setTrapHandler(TrapKind::TagMismatch, unit.tagTrap);
}

CompilerOptions
checkedHwOpts()
{
    CompilerOptions o = baselineOptions(Checking::Full);
    o.hw.branchOnTag = true;
    o.hw.genericArith = true;
    o.hw.checkedMemory = CheckedMem::All;
    return o;
}

/**
 * Run @p unit to completion twice — once uninterrupted, once paused at
 * @p pauseCycle with the snapshot serialized, deserialized, and
 * restored into a FRESH machine — and require identical end states.
 */
void
expectPauseInvisible(const CompiledUnit &unit, uint64_t pauseCycle,
                     uint64_t maxCycles)
{
    Machine whole(unit.prog, unit.memory, unit.opts.hw,
                  unit.scheme.get());
    setupMachine(whole, unit);
    StopReason wholeStop = whole.run(unit.entry, maxCycles);

    Machine first(unit.prog, unit.memory, unit.opts.hw,
                  unit.scheme.get());
    setupMachine(first, unit);
    StopReason stop = first.run(unit.entry, pauseCycle);
    if (stop != StopReason::CycleLimit) {
        // The run finished before the pause point; nothing to split.
        ASSERT_EQ(stop, wholeStop);
        return;
    }

    MachineSnapshot snap = first.snapshot();
    std::string bytes = snap.serialize();
    MachineSnapshot decoded;
    ASSERT_TRUE(MachineSnapshot::deserialize(bytes, &decoded));
    ASSERT_TRUE(decoded == snap) << "serialize round-trip lost state";

    Machine resumed(unit.prog, unit.memory, unit.opts.hw,
                    unit.scheme.get());
    setupMachine(resumed, unit);
    resumed.restore(decoded);
    StopReason resumedStop = resumed.resume(maxCycles);

    EXPECT_EQ(resumedStop, wholeStop) << "pause at " << pauseCycle;
    EXPECT_TRUE(resumed.stats() == whole.stats())
        << "CycleStats diverged after pause at cycle " << pauseCycle
        << ": " << resumed.stats().total << " vs "
        << whole.stats().total;
    EXPECT_EQ(resumed.output(), whole.output());
    EXPECT_EQ(resumed.exitValue(), whole.exitValue());
    EXPECT_EQ(resumed.errorCode(), whole.errorCode());
}

} // namespace

// ---- exhaustive: every pause point of a control-dense program ---------

TEST(Snapshot, EveryPausePointOfBranchyProgramIsInvisible)
{
    // Taken and not-taken branches, annulled slots, loads in the branch
    // shadow, and a store loop: every pipeline state a pause can land
    // in, within a few hundred cycles.
    const char *src = R"(
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
    )";
    Program prog = assemble(src);

    Machine whole(prog, Memory(1 << 16), HardwareConfig{}, nullptr);
    ASSERT_EQ(whole.run(prog.symbol("main")), StopReason::Halted);
    const uint64_t total = whole.stats().total;
    ASSERT_GT(total, 50u);

    for (uint64_t pause = 1; pause < total; ++pause) {
        Machine first(prog, Memory(1 << 16), HardwareConfig{}, nullptr);
        StopReason stop = first.run(prog.symbol("main"), pause);
        if (stop == StopReason::Halted) {
            // A budget within one instruction group of the total lets
            // the final halt slip in; nothing left to split.
            ASSERT_TRUE(first.stats() == whole.stats()) << pause;
            continue;
        }
        ASSERT_EQ(stop, StopReason::CycleLimit) << pause;

        MachineSnapshot snap = first.snapshot();
        Machine resumed(prog, Memory(1 << 16), HardwareConfig{}, nullptr);
        resumed.restore(snap);
        ASSERT_EQ(resumed.resume(kDefaultMaxCycles), StopReason::Halted)
            << pause;
        ASSERT_TRUE(resumed.stats() == whole.stats())
            << "diverged after pause at " << pause;
        ASSERT_EQ(resumed.output(), whole.output()) << pause;
        ASSERT_EQ(resumed.exitValue(), whole.exitValue()) << pause;
    }
}

// ---- property: seeded pause points across the whole suite -------------

TEST(Snapshot, SeededPausePointsAcrossAllProgramsAndConfigs)
{
    const CompilerOptions configs[2] = {baselineOptions(Checking::Off),
                                        checkedHwOpts()};
    FaultRng rng(0x534E4150); // "SNAP"
    for (const auto &p : benchmarkPrograms()) {
        for (const CompilerOptions &base : configs) {
            CompilerOptions opts = base;
            opts.heapBytes = p.heapBytes;
            CompiledUnit unit = compileUnit(p.source, opts);

            // Golden length bounds the pause points.
            Machine probe(unit.prog, unit.memory, unit.opts.hw,
                          unit.scheme.get());
            setupMachine(probe, unit);
            ASSERT_EQ(probe.run(unit.entry, p.maxCycles),
                      StopReason::Halted)
                << p.name;
            uint64_t total = probe.stats().total;

            for (int i = 0; i < 2; ++i) {
                uint64_t pause = 1 + rng.below(total - 1);
                SCOPED_TRACE(p.name + " pause " +
                             std::to_string(pause));
                expectPauseInvisible(unit, pause, p.maxCycles);
            }
        }
    }
}

// ---- serialization contract -------------------------------------------

TEST(Snapshot, SerializationIsDeterministicAndValidated)
{
    CompiledUnit unit =
        compileUnit("(print (+ 1 2))", baselineOptions(Checking::Off));
    Machine m(unit.prog, unit.memory, unit.opts.hw, unit.scheme.get());
    ASSERT_EQ(m.run(unit.entry, 50), StopReason::CycleLimit);

    MachineSnapshot snap = m.snapshot();
    std::string a = snap.serialize();
    std::string b = m.snapshot().serialize();
    EXPECT_EQ(a, b) << "equal state must serialize to equal bytes";

    MachineSnapshot out;
    EXPECT_TRUE(MachineSnapshot::deserialize(a, &out));
    EXPECT_TRUE(out == snap);

    // Truncation, corruption, and garbage are rejected, not crashed on.
    EXPECT_FALSE(MachineSnapshot::deserialize("", &out));
    EXPECT_FALSE(MachineSnapshot::deserialize("MXSNAP01", &out));
    EXPECT_FALSE(
        MachineSnapshot::deserialize(a.substr(0, a.size() - 3), &out));
    std::string wrongMagic = a;
    wrongMagic[0] = 'X';
    EXPECT_FALSE(MachineSnapshot::deserialize(wrongMagic, &out));
    std::string trailing = a + "x";
    EXPECT_FALSE(MachineSnapshot::deserialize(trailing, &out));

    // Hostile counts are checked against the bytes left, so one whose
    // sum with the read position wraps is rejected, not allocated.
    auto le64 = [](uint64_t v) {
        std::string s;
        for (int i = 0; i < 8; ++i)
            s += static_cast<char>((v >> (8 * i)) & 0xff);
        return s;
    };
    ASSERT_TRUE(snap.memTagLocks.empty());
    const size_t lockCountAt = a.size() - 8;
    const size_t wordCountAt = lockCountAt - 4 * snap.memory.size() - 8;
    std::string hugeMemory = a;
    hugeMemory.replace(wordCountAt, 8, le64((uint64_t{1} << 62) + 4));
    EXPECT_FALSE(MachineSnapshot::deserialize(hugeMemory, &out));
    std::string wrappedLocks = a; // position + count == 1 (mod 2^64)
    wrappedLocks.replace(lockCountAt, 8, le64(uint64_t{1} - a.size()));
    EXPECT_FALSE(MachineSnapshot::deserialize(wrappedLocks, &out));
    MachineSnapshot named = snap;
    named.output = "QQQQ";
    std::string rewound = named.serialize(); // output length wraps to 0
    const size_t outputAt = rewound.find("QQQQ");
    ASSERT_NE(outputAt, std::string::npos);
    rewound.replace(outputAt - 8, 8, le64(uint64_t{0} - outputAt));
    EXPECT_FALSE(MachineSnapshot::deserialize(rewound, &out));
}

TEST(Snapshot, RestoreRejectsMismatchedImageSize)
{
    CompiledUnit unit =
        compileUnit("(print 7)", baselineOptions(Checking::Off));
    Machine m(unit.prog, unit.memory, unit.opts.hw, unit.scheme.get());
    ASSERT_EQ(m.run(unit.entry, 20), StopReason::CycleLimit);
    MachineSnapshot snap = m.snapshot();
    snap.memory = ZeroedArray<uint32_t>(snap.memory.size() / 2, snap.memory);
    Machine other(unit.prog, unit.memory, unit.opts.hw,
                  unit.scheme.get());
    EXPECT_THROW(other.restore(snap), MxlError);
}

// ---- the Engine seam --------------------------------------------------

TEST(Snapshot, EnginePauseWithIdentityHookIsInvisible)
{
    const char *src =
        "(de build (n) (if (lessp n 1) nil (cons n (build (sub1 n)))))"
        "(print (length (build 60)))";
    Engine eng(2);

    RunRequest plain;
    plain.source = src;
    plain.opts = baselineOptions(Checking::Full);
    RunReport base = eng.run(plain);
    ASSERT_TRUE(base.ok()) << base.status.message;
    EXPECT_FALSE(base.result.snapshotTaken);

    RunRequest paused = plain;
    paused.hooks.pauseAtCycle = base.result.stats.total / 2;
    bool hookRan = false;
    uint64_t hookCycle = 0;
    paused.hooks.snapshotHook = [&](MachineSnapshot &snap,
                              const CompiledUnit &) {
        hookRan = true;
        hookCycle = snap.stats.total;
    };
    RunReport rep = eng.run(paused);
    ASSERT_TRUE(rep.ok()) << rep.status.message;
    EXPECT_TRUE(hookRan);
    EXPECT_TRUE(rep.result.snapshotTaken);
    EXPECT_GE(hookCycle, paused.hooks.pauseAtCycle);
    EXPECT_TRUE(rep.result.stats == base.result.stats);
    EXPECT_EQ(rep.result.output, base.result.output);
}

TEST(Snapshot, EnginePauseAfterHaltNeverFiresHook)
{
    RunRequest req;
    req.source = "(print 11)";
    req.opts = baselineOptions(Checking::Off);
    req.hooks.pauseAtCycle = 1u << 30; // far past the program's halt
    bool hookRan = false;
    req.hooks.snapshotHook = [&](MachineSnapshot &, const CompiledUnit &) {
        hookRan = true;
    };
    Engine eng(1);
    RunReport rep = eng.run(req);
    ASSERT_TRUE(rep.ok());
    EXPECT_FALSE(hookRan);
    EXPECT_FALSE(rep.result.snapshotTaken);
}

TEST(Snapshot, EngineHookMutationPerturbsTheRun)
{
    const char *src =
        "(de build (n) (if (lessp n 1) nil (cons n (build (sub1 n)))))"
        "(print (length (build 80)))";
    RunRequest req;
    req.source = src;
    req.opts = baselineOptions(Checking::Off);
    Engine eng(1);
    RunReport base = eng.run(req);
    ASSERT_TRUE(base.ok());

    // Zero the whole live heap at the pause: the run must observably
    // diverge (wrong output, error, or crash) yet stay a classified
    // simulation outcome — never a host failure.
    RunRequest mutated = req;
    mutated.hooks.pauseAtCycle = base.result.stats.total / 2;
    mutated.hooks.snapshotHook = [](MachineSnapshot &snap,
                              const CompiledUnit &unit) {
        uint32_t lo =
            snap.memory[unit.layout.cellAddr(Cell::FromLo) / 4] / 4;
        uint32_t hi = snap.regs[mxl::abi::hp] / 4;
        for (uint32_t i = lo; i < hi && i < snap.memory.size(); ++i)
            snap.memory[i] = 0;
    };
    RunReport rep = eng.run(mutated);
    EXPECT_TRUE(rep.result.snapshotTaken);
    bool diverged = !rep.status.ok() ||
                    rep.result.stop != StopReason::Halted ||
                    rep.result.output != base.result.output;
    EXPECT_TRUE(diverged);
}
