/**
 * Tests for the load-time tag-discipline verifier (analysis/verify.h)
 * and its two enforcement points: the link() gate
 * (CompilerOptions::verifyLinked) and the Engine's re-proof of every
 * Hooks::unitTransform result (Hooks::verifyTransformed).
 *
 * The negative cases are the heart of the suite: four hand-assembled
 * units, each violating the tag discipline in a different way, must be
 * rejected with four *distinct* structured codes — the verifier is the
 * trusted base, so its diagnostics have to say why a proof failed, not
 * just that one did. The matrix case then proves the compiler's own
 * output passes the gate in every configuration of the study, and the
 * engine case proves a buggy (untrusted) rewriter cannot smuggle an
 * unguarded access past the gate into a simulation.
 */

#include <gtest/gtest.h>

#include <set>

#include "analysis/checkplace.h"
#include "analysis/verify.h"
#include "compiler/asm_buffer.h"
#include "compiler/linker.h"
#include "compiler/unit.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "isa/assembler.h"
#include "obs/trace.h"
#include "programs/programs.h"
#include "support/json.h"
#include "support/panic.h"

namespace mxl {
namespace {

// High5: 5 tag bits at the top of the word, pair tag 9, shift 27.
constexpr int kShift = 27;
constexpr int kPair = 9;

CompilerOptions
fullOpts()
{
    CompilerOptions o;
    o.scheme = SchemeKind::High5;
    o.checking = Checking::Full;
    return o;
}

/** Stamp the check idiom at @p extract (Srli) / @p extract+1 (Bnei). */
void
stampCheck(Program &p, int extract)
{
    p.code[static_cast<size_t>(extract)].ann =
        Annotation(Purpose::TagExtract, CheckCat::List, true);
    p.code[static_cast<size_t>(extract) + 1].ann =
        Annotation(Purpose::TagCheck, CheckCat::List, true);
}

/** Stamp the Ld/St at @p pc as a protected list access. */
void
stampAccess(Program &p, int pc)
{
    p.code[static_cast<size_t>(pc)].ann =
        Annotation(Purpose::Useful, CheckCat::List, true);
}

VerifyResult
verify(Program &p, const CompilerOptions &opts)
{
    auto scheme = makeScheme(opts.scheme);
    return verifyProgram(p, *scheme, opts);
}

// ------------------------------------------------------------ positives

TEST(Verify, AcceptsGuardedAccess)
{
    Program p = assemble(R"(
        f:
            srli r10, r3, 27
            bnei r10, 9, err
            noop
            noop
            ld r4, 0(r3)
            sys halt, r0
        err:
            sys error, r0
    )");
    stampCheck(p, 0);
    stampAccess(p, 4);
    VerifyResult r = verify(p, fullOpts());
    EXPECT_TRUE(r.ok()) << r.render();
    EXPECT_EQ(r.accessesProven, 1);
}

TEST(Verify, AcceptsHardwareBranchGuard)
{
    // hw.branchOnTag idiom: Bntag jumps to the error path unless the
    // tag matches, so the fall edge proves the base directly.
    Program p = assemble(R"(
        f:
            bntag r3, 9, err
            noop
            noop
            ld r4, 0(r3)
            sys halt, r0
        err:
            sys error, r0
    )");
    p.code[0].ann = Annotation(Purpose::TagCheck, CheckCat::List, true);
    stampAccess(p, 3);
    CompilerOptions o = fullOpts();
    o.hw.branchOnTag = true;
    VerifyResult r = verify(p, o);
    EXPECT_TRUE(r.ok()) << r.render();
    EXPECT_EQ(r.accessesProven, 1);
}

TEST(Verify, CountsCheckedMemoryAsTrusted)
{
    Program p = assemble(R"(
        f:
            ldt r4, 0(r3), 9
            sys halt, r0
    )");
    p.code[0].ann = Annotation(Purpose::Useful, CheckCat::List, true);
    VerifyResult r = verify(p, fullOpts());
    EXPECT_TRUE(r.ok()) << r.render();
    EXPECT_EQ(r.accessesTrusted, 1);
    EXPECT_EQ(r.accessesProven, 0);
}

TEST(Verify, CheckingOffIsStructuralOnly)
{
    // With no checks emitted there is nothing to prove: only the
    // delay-group structure is enforced.
    Program p = assemble(R"(
        f:
            ld r4, 0(r3)
            sys halt, r0
    )");
    stampAccess(p, 0);
    CompilerOptions o = fullOpts();
    o.checking = Checking::Off;
    EXPECT_TRUE(verify(p, o).ok());
}

// ------------------------------------------------------------ negatives
//
// Each unit violates the discipline differently and must come back with
// its own code (the acceptance checklist's "distinct diagnostics").

TEST(Verify, RejectsUnguardedAccess)
{
    Program p = assemble(R"(
        f:
            ld r4, 0(r3)
            sys halt, r0
    )");
    stampAccess(p, 0);
    VerifyResult r = verify(p, fullOpts());
    EXPECT_EQ(r.code, VerifyCode::UnguardedAccess);
    EXPECT_EQ(r.pc, 0);
    EXPECT_NE(r.detail.find("no tag guard"), std::string::npos)
        << r.render();
}

TEST(Verify, RejectsGuardOnWrongRegister)
{
    // The check proves r5; the access dereferences r3.
    Program p = assemble(R"(
        f:
            srli r10, r5, 27
            bnei r10, 9, err
            noop
            noop
            ld r4, 0(r3)
            sys halt, r0
        err:
            sys error, r0
    )");
    stampCheck(p, 0);
    stampAccess(p, 4);
    VerifyResult r = verify(p, fullOpts());
    EXPECT_EQ(r.code, VerifyCode::GuardWrongRegister);
    EXPECT_EQ(r.pc, 4);
    EXPECT_NE(r.detail.find("wrong register"), std::string::npos)
        << r.render();
}

TEST(Verify, RejectsGuardClobberedInDelaySlot)
{
    // The base is re-written in the check's own delay slot, after the
    // branch condition was computed but before the protected access.
    Program p = assemble(R"(
        f:
            srli r10, r3, 27
            bnei r10, 9, err
            add r3, r6, r7
            noop
            ld r4, 0(r3)
            sys halt, r0
        err:
            sys error, r0
    )");
    stampCheck(p, 0);
    stampAccess(p, 4);
    VerifyResult r = verify(p, fullOpts());
    EXPECT_EQ(r.code, VerifyCode::GuardClobbered);
    EXPECT_EQ(r.pc, 4);
    EXPECT_NE(r.detail.find("overwritten"), std::string::npos)
        << r.render();
}

TEST(Verify, RejectsNonDominatingGuard)
{
    // One path runs the check, the other skips it: the access's guard
    // no longer dominates it — the hoist-gone-wrong shape.
    Program p = assemble(R"(
        f:
            beq r6, r7, skip
            noop
            noop
            srli r10, r3, 27
            bnei r10, 9, err
            noop
            noop
        skip:
            ld r4, 0(r3)
            sys halt, r0
        err:
            sys error, r0
    )");
    stampCheck(p, 3);
    stampAccess(p, 7);
    VerifyResult r = verify(p, fullOpts());
    EXPECT_EQ(r.code, VerifyCode::GuardNotDominating);
    EXPECT_EQ(r.pc, 7);
    EXPECT_NE(r.detail.find("every path"), std::string::npos)
        << r.render();
}

TEST(Verify, NegativeDiagnosticsAreDistinct)
{
    // The four negative cases above must map to four different codes —
    // a rejection names the failure mode, not just the failure.
    const std::set<VerifyCode> codes = {
        VerifyCode::UnguardedAccess, VerifyCode::GuardWrongRegister,
        VerifyCode::GuardClobbered, VerifyCode::GuardNotDominating};
    EXPECT_EQ(codes.size(), 4u);
    std::set<std::string> names;
    for (VerifyCode c : codes)
        names.insert(verifyCodeName(c));
    EXPECT_EQ(names.size(), 4u);
}

TEST(Verify, RejectsMalformedStructure)
{
    // Truncated delay group: the branch's second slot is past the end.
    Program p = assemble(R"(
        f:
            beq r1, r2, f
            noop
    )");
    EXPECT_EQ(verify(p, fullOpts()).code, VerifyCode::MalformedUnit);

    // Branch target inside another group's delay slot.
    Program q = assemble(R"(
        f:
            beq r1, r2, g
            noop
            noop
            sys halt, r0
        g:
            noop
            noop
    )");
    q.code[0].target = 2; // retarget into f's own slot
    EXPECT_EQ(verify(q, fullOpts()).code, VerifyCode::MalformedUnit);
}

// ------------------------------------------------------- the link gate

TEST(Verify, LinkerGateRejectsUnguardedBuffer)
{
    AsmBuffer buf;
    buf.defineSymbol("f");
    buf.ld(4, 3, 0, Annotation(Purpose::Useful, CheckCat::List, true));
    buf.sys(SysCode::Halt, abi::zero, Annotation(Purpose::Useful));

    CompilerOptions o = fullOpts();
    auto scheme = makeScheme(o.scheme);
    const LinkVerify gate{scheme.get(), &o};
    EXPECT_THROW(link(buf, /*requireAnnotations=*/false, &gate), MxlError);
    // Without the gate the same buffer links fine.
    EXPECT_NO_THROW(link(buf));
}

TEST(Verify, CompilerOutputPassesLinkGateEverywhere)
{
    // The acceptance matrix: every configuration of the study compiles
    // with the verifier gating link(), i.e. the compiler never emits an
    // unguarded list access. Covers schemes x checking x hardware rows
    // x arithmetic modes x overlapChecks on a source that exercises
    // list traversal, allocation, and arithmetic.
    const std::string src =
        "(de len (l n) (if (atom l) n (len (cdr l) (+ n 1))))"
        "(len (cons 1 (quote (2 3 4))) 0)";

    std::vector<CompilerOptions> cells;
    for (SchemeKind k : {SchemeKind::High5, SchemeKind::High6,
                         SchemeKind::Low2, SchemeKind::Low3}) {
        CompilerOptions o;
        o.scheme = k;
        cells.push_back(o);
        if (makeScheme(k)->sumCheckSound()) {
            o.arithMode = ArithMode::SumCheck;
            cells.push_back(o);
        }
        o.arithMode = ArithMode::ForceDispatch;
        cells.push_back(o);
    }
    for (const Table2Config &row : table2Configs())
        cells.push_back(row.opts);

    size_t verified = 0;
    for (CompilerOptions o : cells) {
        for (Checking c : {Checking::Off, Checking::Full}) {
            for (bool overlap : {false, true}) {
                o.checking = c;
                o.overlapChecks = overlap;
                o.verifyLinked = true;
                CompiledUnit unit;
                ASSERT_NO_THROW(unit = compileUnit(src, o))
                    << o.describe() << " overlap=" << overlap;
                VerifyResult r = verifyUnit(unit);
                EXPECT_TRUE(r.ok())
                    << o.describe() << ": " << r.render();
                ++verified;
            }
        }
    }
    EXPECT_GE(verified, 40u);
}

TEST(Verify, BenchmarkProgramsPassLinkGate)
{
    CompilerOptions o = baselineOptions(Checking::Full);
    o.verifyLinked = true;
    for (const auto &bp : benchmarkPrograms()) {
        o.heapBytes = bp.heapBytes;
        CompiledUnit unit;
        ASSERT_NO_THROW(unit = compileUnit(bp.source, o)) << bp.name;
        VerifyResult r = verifyUnit(unit);
        EXPECT_TRUE(r.ok()) << bp.name << ": " << r.render();
        EXPECT_GT(r.accessesProven, 0) << bp.name;
    }
}

// ----------------------------------------------------- the engine gate

/** Clone @p unit and blunt every full-checking list tag-check branch
 *  into a Noop: the buggy-rewriter stand-in. */
std::shared_ptr<const CompiledUnit>
bluntListChecks(std::shared_ptr<const CompiledUnit> unit)
{
    auto copy = std::make_shared<CompiledUnit>(cloneUnit(*unit));
    for (auto &q : copy->prog.code) {
        if (isCondBranch(q.op) && q.ann.purpose == Purpose::TagCheck &&
            q.ann.fromChecking && q.ann.cat == CheckCat::List) {
            q = Instruction{};
            q.ann = Annotation(Purpose::Useful);
        }
    }
    return copy;
}

TEST(Verify, EngineRejectsUnsoundTransform)
{
    Engine eng;
    RunRequest req;
    req.source = "(car (quote (1 2)))";
    req.opts = baselineOptions(Checking::Full);
    req.hooks.unitTransform = bluntListChecks;

    RunReport rep = eng.run(req);
    EXPECT_EQ(rep.status.code, RunStatus::Code::InternalError);
    EXPECT_NE(rep.status.message.find("rejected"), std::string::npos)
        << rep.status.message;

    // The same broken unit runs "fine" with the gate off (its data
    // happens to be well-typed) — the verifier, not the run, is what
    // catches the missing guard.
    req.hooks.verifyTransformed = false;
    RunReport loose = eng.run(req);
    EXPECT_TRUE(loose.ok()) << loose.status.message;
}

/** Spans named @p name in @p rec (the engine's "verify"/"translate"). */
size_t
spanCount(const TraceRecorder &rec, const char *name)
{
    Json events = rec.toJson();
    size_t n = 0;
    for (size_t i = 0; i < events.size(); ++i)
        n += events.at(i).find("name")->str() == name;
    return n;
}

RunRequest
carRequest()
{
    RunRequest req;
    req.source = "(car (quote (1 2)))";
    req.opts = baselineOptions(Checking::Full);
    return req;
}

/** A transform that returns one unsound object on every call: the
 *  blunted rewrite of the first unit it sees. */
decltype(Hooks::unitTransform)
bluntOnce()
{
    auto bad = std::make_shared<std::shared_ptr<const CompiledUnit>>();
    return [bad](std::shared_ptr<const CompiledUnit> u) {
        if (!*bad)
            *bad = bluntListChecks(u);
        return *bad;
    };
}

TEST(Verify, RejectedUnitIsRejectedOnEveryCall)
{
    // The engine verifies the one unsound object once, and the cached
    // verdict rejects every gated run of it.
    Engine eng;
    TraceRecorder rec;
    eng.setTrace(&rec);
    RunRequest req = carRequest();
    req.hooks.unitTransform = bluntOnce();
    for (int i = 0; i < 3; ++i) {
        RunReport rep = eng.run(req);
        EXPECT_EQ(rep.status.code, RunStatus::Code::InternalError) << i;
        EXPECT_NE(rep.status.message.find("rejected"), std::string::npos)
            << rep.status.message;
    }
    eng.setTrace(nullptr);
    EXPECT_EQ(spanCount(rec, "verify"), 1u);
    EXPECT_EQ(spanCount(rec, "translate"), 0u); // never reached a tier
}

TEST(Verify, FreshUnitPerCallIsVerifiedEachCall)
{
    // A transform that builds a new unit on every call gets no memo
    // hits: each output is verified (and translated) on its own.
    Engine eng;
    TraceRecorder rec;
    eng.setTrace(&rec);
    RunRequest req = carRequest();
    req.hooks.unitTransform = [](std::shared_ptr<const CompiledUnit> u) {
        return std::make_shared<const CompiledUnit>(cloneUnit(*u));
    };
    for (int i = 0; i < 3; ++i) {
        RunReport rep = eng.run(req);
        EXPECT_TRUE(rep.ok()) << rep.status.message;
        EXPECT_EQ(rep.backend, Backend::Translated);
    }
    eng.setTrace(nullptr);
    EXPECT_EQ(spanCount(rec, "verify"), 3u);
    EXPECT_EQ(spanCount(rec, "translate"), 3u);
}

TEST(Verify, UngatedRunLeavesNoVerdict)
{
    // A gate-off run of an object records no verdict, so the first
    // gated run of that same object still verifies it — and rejects.
    Engine eng;
    TraceRecorder rec;
    eng.setTrace(&rec);
    RunRequest req = carRequest();
    req.hooks.unitTransform = bluntOnce();
    req.hooks.verifyTransformed = false;
    RunReport loose = eng.run(req);
    EXPECT_TRUE(loose.ok()) << loose.status.message;
    EXPECT_EQ(spanCount(rec, "verify"), 0u);

    req.hooks.verifyTransformed = true;
    RunReport gated = eng.run(req);
    EXPECT_EQ(gated.status.code, RunStatus::Code::InternalError);
    EXPECT_NE(gated.status.message.find("rejected"), std::string::npos)
        << gated.status.message;
    eng.setTrace(nullptr);
    EXPECT_EQ(spanCount(rec, "verify"), 1u);
}

TEST(Verify, EngineAcceptsSoundTransform)
{
    Engine eng;
    RunRequest req;
    req.source = "(car (quote (1 2)))";
    req.opts = baselineOptions(Checking::Full);
    PlaceStats st;
    req.hooks.unitTransform =
        [&st](std::shared_ptr<const CompiledUnit> unit) {
            return checkPlaceTransform(unit, &st);
        };
    RunReport rep = eng.run(req);
    EXPECT_TRUE(rep.ok()) << rep.status.message;
}

} // namespace
} // namespace mxl
