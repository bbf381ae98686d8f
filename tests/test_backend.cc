/**
 * The translated backend's equivalence contract (src/exec/): for every
 * benchmark program, under every Table 2 hardware configuration and
 * both checking levels, the threaded executor must be byte-identical
 * to the reference interpreter — CycleStats, output, stop reason,
 * error code, exit value, fault index, and GC cells — and so must the
 * check-elimination and check-placement rewrites of every program,
 * which the Engine runs translated. On top of the
 * differential matrix this suite pins the trap paths (the software
 * Addt/Subt overflow fallback, handled and unhandled), cycle-limit
 * stops at every cycle of short runs, computed jumps into the middle of
 * a block, the per-PC profile, the Engine's two-tier Auto policy
 * (backend stamping, the fallback counter, pause/resume equivalence
 * across the tier drop), and the translator's refusal diagnostics.
 */

#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "analysis/checkelim.h"
#include "analysis/checkplace.h"
#include "compiler/unit.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/run.h"
#include "exec/texec.h"
#include "isa/assembler.h"
#include "machine/snapshot.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "programs/programs.h"
#include "support/format.h"
#include "support/json.h"
#include "support/panic.h"

using namespace mxl;

namespace {

const char *const kLoop =
    "(de tri (n) (if (lessp n 1) 0 (+ n (tri (sub1 n)))))"
    "(print (tri 40))";

RunRequest
request(const char *source, Checking checking)
{
    RunRequest req;
    req.source = source;
    req.opts = baselineOptions(checking);
    return req;
}

/**
 * Field-by-field comparison of the two backends' results. Everything
 * both backends define is compared; the seam-only fields (profile,
 * snapshotTaken, timedOut) are owned by the caller's expectations.
 */
::testing::AssertionResult
sameResult(const RunResult &a, const RunResult &b)
{
    static_assert(std::is_trivially_copyable_v<CycleStats>);
    if (std::memcmp(&a.stats, &b.stats, sizeof(CycleStats)) != 0)
        return ::testing::AssertionFailure()
               << "CycleStats differ: total " << a.stats.total << " vs "
               << b.stats.total << ", instructions "
               << a.stats.instructions << " vs " << b.stats.instructions;
    if (a.output != b.output)
        return ::testing::AssertionFailure()
               << "output differs (" << a.output.size() << " vs "
               << b.output.size() << " bytes)";
    if (a.stop != b.stop)
        return ::testing::AssertionFailure()
               << "stop " << int(a.stop) << " vs " << int(b.stop);
    if (a.errorCode != b.errorCode)
        return ::testing::AssertionFailure()
               << "errorCode " << a.errorCode << " vs " << b.errorCode;
    if (a.exitValue != b.exitValue)
        return ::testing::AssertionFailure()
               << "exitValue " << a.exitValue << " vs " << b.exitValue;
    if (a.faultIndex != b.faultIndex)
        return ::testing::AssertionFailure()
               << "faultIndex " << a.faultIndex << " vs " << b.faultIndex;
    if (a.gcCount != b.gcCount || a.heapUsed != b.heapUsed)
        return ::testing::AssertionFailure()
               << "GC cells differ: " << a.gcCount << "/" << a.heapUsed
               << " vs " << b.gcCount << "/" << b.heapUsed;
    return ::testing::AssertionSuccess();
}

/** Interpreter-vs-translated differential for one compiled cell;
 *  @p reference (optional) receives the interpreter's result. */
::testing::AssertionResult
differential(const CompiledUnit &unit, uint64_t maxCycles,
             RunResult *reference = nullptr)
{
    auto tr = translateUnit(unit);
    if (!tr.unit)
        return ::testing::AssertionFailure()
               << "translation refused: " << tr.note;
    // The ops array is 32-byte aligned, so no op straddles a line.
    if (reinterpret_cast<uintptr_t>(tr.unit->ops.data()) % 32 != 0)
        return ::testing::AssertionFailure() << "ops array misaligned";
    RunControls rc;
    rc.maxCycles = maxCycles;
    RunResult a = runUnitOn(unit, unit.memory, rc);
    TranslatedControls tc;
    tc.maxCycles = maxCycles;
    RunResult b = runTranslated(unit, *tr.unit, unit.memory, tc);
    ::testing::AssertionResult same = sameResult(a, b);
    if (reference)
        *reference = std::move(a);
    return same;
}

/** The interpreter's RunResult for machine @p m, stopped with @p stop,
 *  assembled the way runUnitOn() assembles it. */
RunResult
resultOf(const Machine &m, const CompiledUnit &unit, StopReason stop)
{
    RunResult r;
    r.stats = m.stats();
    r.output = m.output();
    r.stop = stop;
    r.errorCode = m.errorCode();
    r.exitValue = m.exitValue();
    r.faultIndex = m.faultIndex();
    r.gcCount = m.memory().load(unit.layout.cellAddr(Cell::GcCount));
    r.heapUsed = m.memory().load(unit.layout.cellAddr(Cell::HeapUsed));
    return r;
}

/**
 * Interpreter-vs-translated at every cycle limit in [@p from, @p to].
 * The interpreter side is one machine resumed a cycle at a time: a
 * pause is cycle-invisible (Machine::resume), so its stop at limit L is
 * a fresh run's stop at L — which the fresh differential runs at both
 * ends re-check. The translated side is a fresh run per limit.
 */
::testing::AssertionResult
sameAtEveryLimit(const CompiledUnit &unit, uint64_t from, uint64_t to)
{
    auto tr = translateUnit(unit);
    if (!tr.unit)
        return ::testing::AssertionFailure()
               << "translation refused: " << tr.note;
    // Each translated run starts from a fresh image holding the live
    // prefix, the way the engine expands its cached units: copying the
    // full image would scan all of it per limit.
    uint32_t live = unit.layout.staticLimit / 4;
    while (live > 0 && unit.memory.word(live - 1) == 0)
        --live;
    const Memory prefix(live * 4, unit.memory);
    Machine m(unit.prog, unit.memory, unit.opts.hw, unit.scheme.get());
    if (unit.opts.hw.genericArith && unit.arithTrap >= 0)
        m.setTrapHandler(TrapKind::ArithFail, unit.arithTrap);
    if (unit.opts.hw.checkedMemory != CheckedMem::None &&
        unit.tagTrap >= 0)
        m.setTrapHandler(TrapKind::TagMismatch, unit.tagTrap);
    StopReason stop = m.run(unit.entry, from);
    for (uint64_t limit = from; limit <= to; ++limit) {
        if (limit > from && stop == StopReason::CycleLimit)
            stop = m.resume(limit);
        TranslatedControls tc;
        tc.maxCycles = limit;
        ::testing::AssertionResult same = sameResult(
            resultOf(m, unit, stop),
            runTranslated(unit, *tr.unit,
                          Memory(unit.layout.memBytes, prefix), tc));
        if (!same)
            return same << " at limit " << limit;
    }
    for (uint64_t limit : {from, to})
        if (::testing::AssertionResult same = differential(unit, limit);
            !same)
            return same << " (fresh run) at limit " << limit;
    return ::testing::AssertionSuccess();
}

/** Total cycles of @p unit run to completion on the interpreter. */
uint64_t
totalCycles(const CompiledUnit &unit)
{
    RunResult r = runUnitOn(unit, unit.memory, kDefaultMaxCycles);
    EXPECT_EQ(r.stop, StopReason::Halted);
    return r.stats.total;
}

} // namespace

// ---------------------------------------------------------------------
// The differential matrix: ten programs × (2 baselines + Table 2 rows)
// × both checking levels. One test per program so failures name the
// program and ctest can parallelize the matrix.
// ---------------------------------------------------------------------

class BackendDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(BackendDifferential, ByteIdenticalAcrossConfigs)
{
    const auto &bp = benchmarkPrograms()[size_t(GetParam())];
    std::vector<CompilerOptions> configs;
    configs.push_back(baselineOptions(Checking::Off));
    configs.push_back(baselineOptions(Checking::Full));
    for (const auto &cfg : table2Configs()) {
        configs.push_back(cfg.withChecking(Checking::Off));
        configs.push_back(cfg.withChecking(Checking::Full));
    }
    ASSERT_GE(configs.size(), 16u);
    for (size_t i = 0; i < configs.size(); ++i) {
        CompilerOptions opts = configs[i];
        opts.heapBytes = bp.heapBytes;
        CompiledUnit unit = compileUnit(bp.source, opts);
        EXPECT_TRUE(differential(unit, bp.maxCycles))
            << bp.name << " config #" << i;
    }
}

TEST_P(BackendDifferential, RewrittenUnitsByteIdentical)
{
    // The check-elimination and check-placement rewrites of each
    // program at baseline Full are differential inputs too, and the
    // engine runs them on the translated backend under Auto.
    const auto &bp = benchmarkPrograms()[size_t(GetParam())];
    CompilerOptions opts = baselineOptions(Checking::Full);
    opts.heapBytes = bp.heapBytes;
    auto golden =
        std::make_shared<const CompiledUnit>(compileUnit(bp.source, opts));
    using Transform = std::shared_ptr<const CompiledUnit> (*)(
        std::shared_ptr<const CompiledUnit>);
    const std::pair<const char *, Transform> rungs[] = {
        {"elim",
         [](std::shared_ptr<const CompiledUnit> u) {
             return checkElimTransform(u);
         }},
        {"placed",
         [](std::shared_ptr<const CompiledUnit> u) {
             return checkPlaceTransform(u);
         }},
    };
    Engine eng(1);
    for (const auto &[rung, transform] : rungs) {
        RunResult reference;
        EXPECT_TRUE(differential(*transform(golden), bp.maxCycles,
                                 &reference))
            << bp.name << " " << rung;

        RunRequest req;
        req.source = bp.source;
        req.opts = opts;
        req.exec.maxCycles = bp.maxCycles;
        req.hooks.unitTransform = transform;
        RunReport rep = eng.run(req);
        ASSERT_TRUE(rep.ok()) << bp.name << " " << rung << ": "
                              << rep.status.message;
        EXPECT_EQ(rep.backend, Backend::Translated) << bp.name << " " << rung;
        EXPECT_FALSE(rep.backendFellBack)
            << bp.name << " " << rung << ": " << rep.backendNote;
        EXPECT_TRUE(sameResult(rep.result, reference))
            << bp.name << " " << rung;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrograms, BackendDifferential, ::testing::Range(0, 10),
    [](const ::testing::TestParamInfo<int> &info) {
        return benchmarkPrograms()[size_t(info.param)].name;
    });

TEST(Backend, BenchmarkSuiteHasTenPrograms)
{
    // Keeps the Range(0, 10) instantiation honest.
    EXPECT_EQ(benchmarkPrograms().size(), 10u);
}

// ---------------------------------------------------------------------
// Trap paths. The generic-arithmetic hardware latches the operands and
// vectors to the software bignum fallback; Addt and Subt report
// different trap operation codes (abi::scratch = 1 vs 2), so both
// directions get their own overflow.
// ---------------------------------------------------------------------

TEST(Backend, OverflowTrapPathsMatch)
{
    const char *const sources[] = {
        "(print (+ 40000000 40000000))",  // Addt overflow
        "(print (- -40000000 40000000))", // Subt overflow
        "(print (+ (- -40000000 40000000) (+ 40000000 40000000)))",
    };
    for (const char *src : sources)
        for (ArithMode mode :
             {ArithMode::InlineBiased, ArithMode::ForceDispatch}) {
            CompilerOptions opts;
            opts.scheme = SchemeKind::High5;
            opts.checking = Checking::Full;
            opts.arithMode = mode;
            opts.hw.genericArith = true;
            CompiledUnit unit = compileUnit(src, opts);
            EXPECT_TRUE(differential(unit, kDefaultMaxCycles))
                << src << " mode " << int(mode);
        }
}

TEST(Backend, UnhandledTrapEncodingMatches)
{
    // With handler installation off, the hardware trap must stop the
    // run with the interpreter's exact unhandled-trap error encoding.
    CompilerOptions opts;
    opts.scheme = SchemeKind::High5;
    opts.checking = Checking::Full;
    opts.hw.genericArith = true;
    CompiledUnit unit = compileUnit("(print (+ 40000000 40000000))", opts);
    auto tr = translateUnit(unit);
    ASSERT_TRUE(tr.unit) << tr.note;
    RunControls rc;
    rc.installUnitTrapHandlers = false;
    RunResult a = runUnitOn(unit, unit.memory, rc);
    TranslatedControls tc;
    tc.installTrapHandlers = false;
    RunResult b = runTranslated(unit, *tr.unit, unit.memory, tc);
    EXPECT_EQ(a.stop, StopReason::Errored);
    EXPECT_NE(a.errorCode, 0);
    EXPECT_TRUE(sameResult(a, b));
}

TEST(Backend, CycleLimitStopsAreIdentical)
{
    // A cycle guard must fire on the same cycle in both backends. Block
    // mode charges a whole block at its entry, so the executor must
    // fall back to per-step accounting wherever the budget could run
    // out inside a block — a fused pair, a control group's delay slots
    // or squash cycles. Stop everywhere: at every limit of short runs
    // (straight-line code, delay slots, squashes, trap, handler and
    // return), at 2,000 consecutive limits deep into one benchmark
    // program per tag-scheme family, and at the deadline's chunk ends.
    for (Checking checking : {Checking::Off, Checking::Full}) {
        CompiledUnit unit = compileUnit(kLoop, baselineOptions(checking));
        EXPECT_TRUE(sameAtEveryLimit(unit, 0, totalCycles(unit) + 2))
            << "kLoop checking " << int(checking);
    }

    CompilerOptions arith;
    arith.scheme = SchemeKind::High5;
    arith.checking = Checking::Full;
    arith.hw.genericArith = true;
    CompiledUnit overflow = compileUnit(
        "(print (+ (- -40000000 40000000) (+ 40000000 40000000)))", arith);
    EXPECT_TRUE(sameAtEveryLimit(overflow, 0, totalCycles(overflow) + 2))
        << "Addt/Subt overflow";

    const auto &bp = benchmarkPrograms()[3]; // rat: arithmetic-heavy
    CompilerOptions high = table2Configs().back().opts; // all hardware
    high.checking = Checking::Full;
    CompilerOptions low = lowTagSoftwareOptions(Checking::Full,
                                                SchemeKind::Low2);
    low.hw.genericArith = true;
    for (CompilerOptions opts : {high, low}) {
        opts.heapBytes = bp.heapBytes;
        CompiledUnit unit = compileUnit(bp.source, opts);
        EXPECT_TRUE(sameAtEveryLimit(unit, 400'003, 402'002))
            << bp.name << " scheme " << int(opts.scheme);
    }

    // With a deadline the budget advances in 1M-cycle chunks; a run of
    // over 3M cycles crosses several chunk ends.
    const auto &trav = benchmarkPrograms()[9];
    CompilerOptions opts = baselineOptions(Checking::Full);
    opts.heapBytes = trav.heapBytes;
    CompiledUnit unit = compileUnit(trav.source, opts);
    auto tr = translateUnit(unit);
    ASSERT_TRUE(tr.unit) << tr.note;
    RunControls rc;
    rc.deadlineSeconds = 60;
    RunResult a = runUnitOn(unit, unit.memory, rc);
    TranslatedControls tc;
    tc.deadlineSeconds = 60;
    RunResult b = runTranslated(unit, *tr.unit, unit.memory, tc);
    EXPECT_GE(a.stats.total, 3'000'000u);
    EXPECT_EQ(a.stop, StopReason::Halted);
    EXPECT_FALSE(b.timedOut);
    EXPECT_TRUE(sameResult(a, b)) << "deadline chunks";
}

/** @p unit with its program replaced by the assembled @p text, entered
 *  at index 0, with the given trap handlers. */
void
replaceProgram(CompiledUnit &unit, const std::string &text,
               const char *arithHandler = nullptr,
               const char *tagHandler = nullptr)
{
    unit.prog = assemble(text);
    unit.entry = 0;
    unit.arithTrap = arithHandler ? unit.prog.symbol(arithHandler) : -1;
    unit.tagTrap = tagHandler ? unit.prog.symbol(tagHandler) : -1;
}

TEST(Backend, MidBlockEntriesMatch)
{
    // No compiled program jumps into the middle of a block, so a
    // hand-assembled one does: two computed calls land on `land`,
    // which follows a load inside the block `body` starts, once right
    // after a delay-slot load of the register it reads (an interlock
    // stall at the landing op) and once with none; a direct call runs
    // the same ops from the block's leader, which stalls on a slot's
    // load too; an Addt traps to a handler that returns to the op
    // after it; an Ldt traps with its load undone, so the handler that
    // reads its register does not stall; and the halt stops the run
    // before the two ops after it in its block.
    CompilerOptions opts = baselineOptions(Checking::Off);
    opts.hw.genericArith = true;
    opts.hw.checkedMemory = CheckedMem::All;
    CompiledUnit unit = compileUnit(kLoop, opts);
    const uint32_t data = unit.layout.cellAddr(Cell::GcCount);
    replaceProgram(unit, strcat(R"(
        li   r12, )", data, R"(
        li   r16, 100
        st   r16, 0(r12)
        li   r16, 200
        st   r16, 4(r12)
        li   r11, 112           ; byte address of land (index 28)
        li   r18, 1073741825    ; tag 8, and not a fixnum in any scheme
        jalr r31, r11
        li   r13, 5
        ld   r14, 0(r12)        ; land reads r14 next: one stall
        sys  putfixraw, r15
        jalr r31, r11
        li   r13, 9
        noop
        sys  putfixraw, r15
        jal  r31, body
        noop
        ld   r14, 0(r12)        ; body reads r14 next: one stall
        sys  putfixraw, r15
        addt r17, r18, r18      ; traps; the handler returns here + 1
        sys  putfixraw, r17
        ldt  r19, 0(r18), 3     ; traps; the handler returns here + 1
        sys  putfixraw, r19
        sys  halt, r0
        addi r15, r15, 1        ; the halted block's tail
        noop
    body:
        add  r14, r14, r13
        ld   r14, 4(r12)
    land:
        add  r15, r14, r13
        addi r15, r15, 1
        jr   r31
        noop
        noop
    arith:
        li   r17, 42
        jr   r20
        noop
        noop
    tag:
        add  r19, r19, r17
        jr   r20
        noop
        noop
    )"),
                   "arith", "tag");
    ASSERT_EQ(unit.prog.symbol("land"), 28);

    RunResult reference;
    ASSERT_TRUE(differential(unit, kDefaultMaxCycles, &reference));
    EXPECT_EQ(reference.stop, StopReason::Halted);
    EXPECT_EQ(reference.output, "1061102104242");
    EXPECT_EQ(reference.stats.loadStalls, 3u);
    EXPECT_TRUE(sameAtEveryLimit(unit, 0, reference.stats.total + 2));
}

TEST(Backend, StopsInsideABlockMatch)
{
    // A block is charged whole at its entry, so a stop inside it must
    // take back the ops after the stopping one: here an illegal access
    // in a delay slot, a divide by zero and an error call, each with
    // ops left in its block.
    const char *const programs[] = {
        R"(
        li   r12, 2147483632    ; past the end of the image
        j    done
        ld   r14, 0(r12)        ; slot 1 stops the run
        addi r15, r15, 1
    done:
        sys  halt, r0
        )",
        R"(
        li   r13, 0
        div  r15, r14, r13
        addi r15, r15, 1
        sys  halt, r0
        )",
        R"(
        li   r16, 7
        sys  error, r16
        addi r15, r15, 1
        sys  halt, r0
        )",
    };
    for (const char *text : programs) {
        CompiledUnit unit =
            compileUnit(kLoop, baselineOptions(Checking::Off));
        replaceProgram(unit, text);
        RunResult reference;
        ASSERT_TRUE(differential(unit, kDefaultMaxCycles, &reference))
            << text;
        EXPECT_NE(reference.stop, StopReason::Halted) << text;
        EXPECT_TRUE(sameAtEveryLimit(unit, 0, reference.stats.total + 2))
            << text;
    }
}

TEST(Backend, ProfilesMatchTheInterpreter)
{
    // The translated backend fills the per-PC profile from its run-end
    // fold: element for element the interpreter's histogram.
    Engine eng(1);
    for (const auto &bp : benchmarkPrograms()) {
        RunRequest req;
        req.source = bp.source;
        req.opts = baselineOptions(Checking::Full);
        req.opts.heapBytes = bp.heapBytes;
        req.exec.maxCycles = bp.maxCycles;
        req.hooks.collectProfile = true;
        req.exec.backend = Backend::Interpreter;
        RunReport i = eng.run(req);
        req.exec.backend = Backend::Translated;
        RunReport t = eng.run(req);
        ASSERT_TRUE(i.ok() && t.ok()) << bp.name;
        ASSERT_TRUE(i.result.profile && t.result.profile) << bp.name;
        EXPECT_EQ(t.backend, Backend::Translated);
        EXPECT_TRUE(sameResult(i.result, t.result)) << bp.name;
        EXPECT_EQ(t.result.profile->execCount, i.result.profile->execCount)
            << bp.name;
        EXPECT_EQ(t.result.profile->cycles, i.result.profile->cycles)
            << bp.name;
    }
}

// ---------------------------------------------------------------------
// The Engine's two-tier policy.
// ---------------------------------------------------------------------

TEST(Backend, EngineStampsBackendAndTiersMatch)
{
    Engine eng(1);
    RunRequest req = request(kLoop, Checking::Full); // default: Auto
    RunReport t = eng.run(req);
    ASSERT_TRUE(t.ok()) << t.status.message;
    EXPECT_EQ(t.backend, Backend::Translated);
    EXPECT_FALSE(t.backendFellBack);

    req.exec.backend = Backend::Interpreter;
    RunReport i = eng.run(req);
    ASSERT_TRUE(i.ok());
    EXPECT_EQ(i.backend, Backend::Interpreter);
    EXPECT_TRUE(sameResult(t.result, i.result));

    req.exec.backend = Backend::Translated;
    RunReport e = eng.run(req);
    ASSERT_TRUE(e.ok());
    EXPECT_EQ(e.backend, Backend::Translated);
    EXPECT_TRUE(sameResult(t.result, e.result));
}

TEST(Backend, AutoFallbackStampsAndCounts)
{
    Engine eng(1);
    Counter &fallbacks = eng.metrics().counter("engine.backend.fallbacks");
    uint64_t before = fallbacks.value();

    RunRequest req = request(kLoop, Checking::Full);
    req.hooks.machineSetup = [](Machine &, const CompiledUnit &) {
    }; // interpreter-only seam
    req.hooks.collectProfile = true;
    RunReport rep = eng.run(req);
    ASSERT_TRUE(rep.ok()) << rep.status.message;
    EXPECT_EQ(rep.backend, Backend::Interpreter);
    EXPECT_TRUE(rep.backendFellBack);
    EXPECT_FALSE(rep.backendNote.empty());
    EXPECT_EQ(fallbacks.value(), before + 1);
    ASSERT_TRUE(rep.result.profile); // the hook was honored
    EXPECT_EQ(rep.result.profile->totalCycles(), rep.result.stats.total);
}

TEST(Backend, ExplicitTranslatedRefusesInterpreterSeams)
{
    Engine eng(1);
    RunRequest req = request(kLoop, Checking::Off);
    req.exec.backend = Backend::Translated;
    req.hooks.machineSetup = [](Machine &, const CompiledUnit &) {};
    req.hooks.collectProfile = true;
    RunReport rep = eng.run(req);
    EXPECT_FALSE(rep.ok());
    EXPECT_EQ(rep.status.code, RunStatus::Code::InternalError);
    EXPECT_NE(rep.status.message.find("translated backend unavailable"),
              std::string::npos)
        << rep.status.message;
}

TEST(Backend, FallbackPreservesPauseResumeSemantics)
{
    // A pause/snapshot request drops the cell to the interpreter tier;
    // the resulting run must still be byte-identical to the translated
    // run of the same cell — the tier fallback composes with PR-5's
    // pause-is-invisible invariant.
    Engine eng(1);
    RunRequest plain = request(kLoop, Checking::Full);
    RunReport t = eng.run(plain);
    ASSERT_TRUE(t.ok());
    ASSERT_EQ(t.backend, Backend::Translated);

    RunRequest paused = plain;
    paused.hooks.pauseAtCycle = 2000;
    bool hooked = false;
    paused.hooks.snapshotHook = [&](MachineSnapshot &,
                                    const CompiledUnit &) { hooked = true; };
    RunReport p = eng.run(paused);
    ASSERT_TRUE(p.ok()) << p.status.message;
    EXPECT_EQ(p.backend, Backend::Interpreter);
    EXPECT_TRUE(p.backendFellBack);
    EXPECT_TRUE(hooked);
    EXPECT_TRUE(p.result.snapshotTaken);
    EXPECT_TRUE(sameResult(t.result, p.result));
}

TEST(Backend, TiersShareOneEntryAndOneTranslation)
{
    // The cache key carries no backend: Interpreter, Auto and
    // Translated requests share one compiled entry, and the unit is
    // translated once, on the first request that wants it.
    Engine eng(1);
    Counter &translateUs = eng.metrics().counter("engine.translate_micros");
    TraceRecorder rec;
    eng.setTrace(&rec);
    auto translations = [&rec] {
        Json events = rec.toJson();
        size_t n = 0;
        for (size_t i = 0; i < events.size(); ++i)
            n += events.at(i).find("name")->str() == "translate";
        return n;
    };

    RunRequest req = request(kLoop, Checking::Off);
    req.exec.backend = Backend::Interpreter;
    RunReport i = eng.run(req);
    ASSERT_TRUE(i.ok()) << i.status.message;
    EXPECT_EQ(translations(), 0u); // the interpreter needs none
    EXPECT_EQ(translateUs.value(), 0u);

    req.exec.backend = Backend::Auto;
    RunReport a = eng.run(req);
    ASSERT_TRUE(a.ok()) << a.status.message;
    EXPECT_TRUE(a.cacheHit);
    EXPECT_EQ(a.backend, Backend::Translated);
    EXPECT_EQ(translations(), 1u);
    const uint64_t once = translateUs.value();

    for (Backend b : {Backend::Translated, Backend::Interpreter,
                      Backend::Auto}) {
        req.exec.backend = b;
        RunReport r = eng.run(req);
        ASSERT_TRUE(r.ok()) << backendName(b) << ": " << r.status.message;
        EXPECT_TRUE(r.cacheHit) << backendName(b);
        EXPECT_TRUE(sameResult(i.result, r.result)) << backendName(b);
    }
    eng.setTrace(nullptr);
    EXPECT_EQ(translations(), 1u);
    EXPECT_EQ(translateUs.value(), once);
    auto cs = eng.cacheStats();
    EXPECT_EQ(cs.entries, 1u);
    EXPECT_EQ(cs.misses, 1u);
    EXPECT_EQ(cs.hits, 4u);
}

TEST(Backend, RefusedTransformedUnitNamesTheRefusal)
{
    // A transformed unit the translator refuses falls back like a
    // refused cached unit: the translator's note is the backendNote.
    Engine eng(1);
    Counter &fallbacks = eng.metrics().counter("engine.backend.fallbacks");
    RunRequest req = request(kLoop, Checking::Off);
    req.hooks.unitTransform = [](std::shared_ptr<const CompiledUnit> u) {
        auto copy = std::make_shared<CompiledUnit>(cloneUnit(*u));
        copy->opts.hw.memTagging = true; // interpreter-only hardware
        return std::shared_ptr<const CompiledUnit>(std::move(copy));
    };
    RunReport rep = eng.run(req);
    ASSERT_TRUE(rep.status.ok()) << rep.status.message;
    EXPECT_EQ(rep.backend, Backend::Interpreter);
    EXPECT_TRUE(rep.backendFellBack);
    EXPECT_NE(rep.backendNote.find("memory-tagging"), std::string::npos)
        << rep.backendNote;
    EXPECT_EQ(fallbacks.value(), 1u);

    req.exec.backend = Backend::Translated;
    RunReport pinned = eng.run(req);
    EXPECT_EQ(pinned.status.code, RunStatus::Code::InternalError);
    EXPECT_NE(pinned.status.message.find("memory-tagging"),
              std::string::npos)
        << pinned.status.message;
}

TEST(Backend, GridMixesBackendsDeterministically)
{
    // One grid with Auto, pinned-interpreter, and fallback cells: the
    // reports must carry per-cell backend stamps and identical stats.
    Engine eng(2);
    std::vector<RunRequest> reqs(3, request(kLoop, Checking::Full));
    reqs[1].exec.backend = Backend::Interpreter;
    reqs[2].hooks.machineSetup = [](Machine &, const CompiledUnit &) {};
    reqs[2].hooks.collectProfile = true;
    auto reps = eng.runGrid(reqs);
    ASSERT_EQ(reps.size(), 3u);
    for (const auto &r : reps)
        ASSERT_TRUE(r.ok()) << r.status.message;
    EXPECT_EQ(reps[0].backend, Backend::Translated);
    EXPECT_EQ(reps[1].backend, Backend::Interpreter);
    EXPECT_EQ(reps[2].backend, Backend::Interpreter);
    EXPECT_TRUE(reps[2].backendFellBack);
    EXPECT_TRUE(sameResult(reps[0].result, reps[1].result));
    EXPECT_TRUE(sameResult(reps[0].result, reps[2].result));
}

// ---------------------------------------------------------------------
// Translator refusals: diagnosed, never mistranslated.
// ---------------------------------------------------------------------

TEST(Backend, RefusalsAreDiagnosed)
{
    // CompiledUnit is move-only; compile one per mutation.
    CompiledUnit empty =
        compileUnit(kLoop, baselineOptions(Checking::Off));
    empty.prog.code.clear();
    auto r1 = translateUnit(empty);
    EXPECT_EQ(r1.unit, nullptr);
    EXPECT_NE(r1.note.find("empty"), std::string::npos) << r1.note;

    CompiledUnit bad = compileUnit(kLoop, baselineOptions(Checking::Off));
    bad.entry = int(bad.prog.code.size()) + 7;
    auto r2 = translateUnit(bad);
    EXPECT_EQ(r2.unit, nullptr);
    EXPECT_NE(r2.note.find("entry"), std::string::npos) << r2.note;
}

TEST(Backend, DeadlineExpiresUnderTranslatedBackend)
{
    // The translated executor shares the interpreter's chunked
    // wall-clock deadline (kDeadlineChunkCycles in both run loops): a
    // pinned-Translated spin must time out there, not fall back, and
    // come back with the same Timeout encoding the interpreter uses.
    Engine eng(1);
    RunRequest spin;
    spin.source = "(setq i 0) (while t (setq i (add1 i)))";
    spin.opts = baselineOptions(Checking::Off);
    spin.exec.backend = Backend::Translated;
    spin.exec.deadlineSeconds = 0.2;
    spin.exec.maxCycles = ~0ull; // the deadline, not the budget, stops it
    RunReport rep = eng.run(spin);
    EXPECT_EQ(rep.backend, Backend::Translated);
    EXPECT_FALSE(rep.backendFellBack);
    EXPECT_EQ(rep.status.code, RunStatus::Code::Timeout);
    EXPECT_TRUE(rep.result.timedOut);
    EXPECT_EQ(rep.result.stop, StopReason::CycleLimit);
    EXPECT_EQ(eng.metrics().counter("engine.timeouts").value(), 1u);

    // The engine is not wedged: the same source under a generous
    // deadline completes normally on the translated tier.
    RunRequest fine = spin;
    fine.source = kLoop;
    fine.exec.maxCycles = kDefaultMaxCycles;
    fine.exec.deadlineSeconds = 60;
    RunReport ok = eng.run(fine);
    EXPECT_TRUE(ok.ok());
    EXPECT_EQ(ok.backend, Backend::Translated);
    EXPECT_FALSE(ok.result.timedOut);
}

TEST(Backend, BackendNamesAreStable)
{
    EXPECT_STREQ(backendName(Backend::Auto), "auto");
    EXPECT_STREQ(backendName(Backend::Interpreter), "interpreter");
    EXPECT_STREQ(backendName(Backend::Translated), "translated");
}
