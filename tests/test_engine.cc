/**
 * mxl::Engine: compiled-unit cache accounting, deterministic parallel
 * grids (byte-identical CycleStats vs the serial path), non-throwing
 * compile-error reporting, LRU eviction, and a concurrent stress test
 * written to be clean under ThreadSanitizer (-DMXL_SANITIZE=thread).
 */

#include <algorithm>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <type_traits>

#include <gtest/gtest.h>

#include "analysis/checkplace.h"
#include "compiler/unit.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/run.h"
#include "obs/trace.h"
#include "programs/programs.h"
#include "support/json.h"
#include "support/panic.h"

using namespace mxl;

namespace {

const char *const kLoop =
    "(de tri (n) (if (lessp n 1) 0 (+ n (tri (sub1 n)))))"
    "(print (tri 40))";

const char *const kLists =
    "(de build (n) (if (lessp n 1) nil (cons n (build (sub1 n)))))"
    "(print (length (build 50)))";

RunRequest
request(const char *source, Checking checking,
        SchemeKind scheme = SchemeKind::High5)
{
    RunRequest req;
    req.source = source;
    req.opts = baselineOptions(checking);
    req.opts.scheme = scheme;
    return req;
}

static_assert(std::is_trivially_copyable_v<CycleStats>,
              "CycleStats must stay memcmp-comparable");

bool
sameStats(const CycleStats &a, const CycleStats &b)
{
    return std::memcmp(&a, &b, sizeof(CycleStats)) == 0;
}

} // namespace

TEST(Engine, RunProducesSameResultAsDirectPath)
{
    Engine eng(2);
    RunRequest req = request(kLoop, Checking::Full);
    RunReport rep = eng.run(req);
    ASSERT_TRUE(rep.ok()) << rep.status.message;

    CompiledUnit unit = compileUnit(req.source, req.opts);
    RunResult direct = runUnit(unit);
    EXPECT_TRUE(sameStats(rep.result.stats, direct.stats));
    EXPECT_EQ(rep.result.output, direct.output);
    EXPECT_EQ(rep.result.output, "820\n");
}

TEST(Engine, CacheHitAndMissAccounting)
{
    Engine eng(2);
    RunRequest req = request(kLoop, Checking::Off);

    RunReport first = eng.run(req);
    ASSERT_TRUE(first.ok());
    EXPECT_FALSE(first.cacheHit);

    RunReport second = eng.run(req);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.cacheHit);
    EXPECT_TRUE(sameStats(first.result.stats, second.result.stats));

    auto cs = eng.cacheStats();
    EXPECT_EQ(cs.hits, 1u);
    EXPECT_EQ(cs.misses, 1u);
    EXPECT_EQ(cs.entries, 1u);

    // A different configuration of the same source is a distinct unit.
    RunReport other = eng.run(request(kLoop, Checking::Full));
    ASSERT_TRUE(other.ok());
    EXPECT_FALSE(other.cacheHit);
    EXPECT_EQ(eng.cacheStats().entries, 2u);
}

TEST(Engine, EveryRepeatedPairHitsTheCache)
{
    Engine eng(2);
    std::vector<RunRequest> grid;
    for (Checking chk : {Checking::Off, Checking::Full})
        for (const char *src : {kLoop, kLists})
            grid.push_back(request(src, chk));
    std::vector<RunRequest> twice = grid;
    twice.insert(twice.end(), grid.begin(), grid.end());

    auto reports = eng.runGrid(twice);
    ASSERT_EQ(reports.size(), twice.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        ASSERT_TRUE(reports[i + grid.size()].ok());
        EXPECT_TRUE(sameStats(reports[i].result.stats,
                              reports[i + grid.size()].result.stats));
    }
    auto cs = eng.cacheStats();
    EXPECT_EQ(cs.misses, grid.size());
    EXPECT_GE(cs.hits, grid.size()); // ≥1 observed hit per repeated pair
}

TEST(Engine, GridIsDeterministicAndOrdered)
{
    // Serial baseline via the direct (non-engine) path.
    std::vector<RunRequest> grid;
    grid.push_back(request(kLoop, Checking::Off));
    grid.push_back(request(kLoop, Checking::Full));
    grid.push_back(request(kLists, Checking::Off, SchemeKind::Low3));
    grid.push_back(request(kLists, Checking::Full, SchemeKind::Low2));
    for (size_t i = 0; i < grid.size(); ++i)
        grid[i].label = "cell" + std::to_string(i);

    std::vector<RunResult> serial;
    for (const auto &req : grid)
        serial.push_back(runUnit(compileUnit(req.source, req.opts),
                                 req.exec.maxCycles));

    Engine eng(4);
    auto reports = eng.runGrid(grid);
    ASSERT_EQ(reports.size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(reports[i].label, "cell" + std::to_string(i));
        ASSERT_TRUE(reports[i].ok()) << reports[i].status.message;
        EXPECT_TRUE(sameStats(reports[i].result.stats, serial[i].stats))
            << "cell " << i << " diverged from serial execution";
        EXPECT_EQ(reports[i].result.output, serial[i].output);
    }
}

TEST(Engine, ConcurrentGridSharesNoMutableState)
{
    // Two workers hammer two shared cached units from many grid cells;
    // run under -DMXL_SANITIZE=thread to let TSan check the claim.
    Engine eng(2);
    std::vector<RunRequest> grid;
    for (int i = 0; i < 8; ++i)
        grid.push_back(request(i % 2 ? kLoop : kLists, Checking::Full));

    auto first = eng.runGrid(grid);
    auto second = eng.runGrid(grid);
    ASSERT_EQ(first.size(), grid.size());
    for (size_t i = 0; i < grid.size(); ++i) {
        ASSERT_TRUE(first[i].ok());
        ASSERT_TRUE(second[i].ok());
        EXPECT_TRUE(sameStats(first[i].result.stats,
                              second[i].result.stats));
    }
    // 2 distinct units; every other cell is a hit.
    EXPECT_EQ(eng.cacheStats().entries, 2u);
    EXPECT_EQ(eng.cacheStats().misses, 2u);
}

TEST(Engine, CompileErrorsAreReportedNotThrown)
{
    Engine eng(2);
    RunRequest bad = request("(undefined-fn 1)", Checking::Off);
    RunReport rep;
    EXPECT_NO_THROW(rep = eng.run(bad));
    EXPECT_FALSE(rep.ok());
    EXPECT_EQ(rep.status.code, RunStatus::Code::CompileError);
    EXPECT_NE(rep.status.message.find("undefined-fn"), std::string::npos);
    // The failed compile is cached too: same diagnostic, now a hit.
    RunReport again = eng.run(bad);
    EXPECT_TRUE(again.cacheHit);
    EXPECT_EQ(again.status.code, RunStatus::Code::CompileError);
    EXPECT_EQ(again.status.message, rep.status.message);
}

TEST(Engine, LayoutsThatWrapDoNotFit)
{
    // Layouts whose regions pass the 32-bit address space, a heap that
    // wraps past the image, a heap base that wraps to 0, an image whose
    // word count wraps to 0, and a static area too small for the root
    // list, fail the compile with the layout diagnostic.
    Engine eng(1);
    const auto layout = [](uint32_t mem, uint32_t stat, uint32_t heap) {
        CompilerOptions o = baselineOptions(Checking::Off);
        o.memBytes = mem;
        o.staticBytes = stat;
        o.heapBytes = heap;
        return o;
    };
    const CompilerOptions dflt;
    const CompilerOptions layouts[] = {
        layout(dflt.memBytes, dflt.staticBytes, 1u << 31),
        layout(dflt.memBytes, dflt.staticBytes, 0x7FFFF000u),
        layout(dflt.memBytes, 0xFFFFFFF9u, dflt.heapBytes),
        layout(0xFFFFFFFFu, dflt.staticBytes, dflt.heapBytes),
        layout(dflt.memBytes, 0x1000u, dflt.heapBytes),
    };
    for (const CompilerOptions &opts : layouts) {
        RunRequest req;
        req.source = "(print (cons 1 2))";
        req.opts = opts;
        RunReport rep = eng.run(req);
        SCOPED_TRACE(opts.describe());
        EXPECT_EQ(rep.status.code, RunStatus::Code::CompileError)
            << rep.status.message;
        EXPECT_NE(rep.status.message.find("memory layout does not fit"),
                  std::string::npos)
            << rep.status.message;
    }
}

TEST(Engine, GridSurvivesMixedGoodAndBadCells)
{
    Engine eng(2);
    std::vector<RunRequest> grid;
    grid.push_back(request(kLoop, Checking::Off));
    grid.push_back(request("(de f (a) a) (f 1 2)", Checking::Off));
    grid.push_back(request(kLists, Checking::Off));
    auto reports = eng.runGrid(grid);
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_TRUE(reports[0].ok());
    EXPECT_EQ(reports[1].status.code, RunStatus::Code::CompileError);
    EXPECT_TRUE(reports[2].ok());
}

TEST(Engine, ThrowingHookFailsOnlyItsCell)
{
    // A caller's hook that throws something other than MxlError fails
    // its own cell with InternalError; the rest of the grid finishes.
    Engine eng(2);
    std::vector<RunRequest> grid(3, request(kLoop, Checking::Off));
    grid[1].hooks.imageMutator = [](Memory &, const CompiledUnit &) {
        throw std::runtime_error("hook boom");
    };
    std::vector<RunReport> reports;
    ASSERT_NO_THROW(reports = eng.runGrid(grid));
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_TRUE(reports[0].ok()) << reports[0].status.message;
    EXPECT_EQ(reports[1].status.code, RunStatus::Code::InternalError);
    EXPECT_EQ(reports[1].status.message, "hook boom");
    EXPECT_TRUE(reports[2].ok()) << reports[2].status.message;
}

TEST(Engine, RunErrorsLandInResultNotStatus)
{
    Engine eng(1);
    RunReport rep = eng.run(request("(car 5)", Checking::Full));
    EXPECT_TRUE(rep.status.ok());            // compiled fine
    EXPECT_EQ(rep.result.stop, StopReason::Errored);

    RunRequest limited = request(kLoop, Checking::Off);
    limited.exec.maxCycles = 100;
    rep = eng.run(limited);
    EXPECT_TRUE(rep.status.ok());
    EXPECT_EQ(rep.result.stop, StopReason::CycleLimit);
}

TEST(Engine, LegacyWrapperTranslatesErrorsBack)
{
    // compileAndRun throws on compile errors (historical contract)...
    EXPECT_THROW(compileAndRun("(undefined-fn 1)",
                               baselineOptions(Checking::Off)),
                 MxlError);
    // ...but encodes run errors in the result.
    auto r = compileAndRun("(car 5)", baselineOptions(Checking::Full),
                           10'000'000);
    EXPECT_EQ(r.stop, StopReason::Errored);
}

TEST(Engine, LruEvictionRespectsCapacity)
{
    Engine eng(1, /*cacheCapacity=*/1);
    eng.run(request(kLoop, Checking::Off));
    eng.run(request(kLists, Checking::Off)); // evicts kLoop
    eng.run(request(kLoop, Checking::Off));  // miss again
    auto cs = eng.cacheStats();
    EXPECT_EQ(cs.entries, 1u);
    EXPECT_EQ(cs.misses, 3u);
    EXPECT_EQ(cs.hits, 0u);
}

TEST(Engine, ByteBoundEvictsWhenImagesOutgrowTheLimit)
{
    // A byte limit far below two compiled images: the second compile
    // must evict the first even though the entry-count capacity (256)
    // is nowhere near exhausted.
    Engine eng(1, /*cacheCapacity=*/256, /*cacheMaxBytes=*/1);
    eng.run(request(kLoop, Checking::Off));
    auto one = eng.cacheStats();
    // The most recent unit always survives, even oversized — otherwise
    // a large image could never be cached at all.
    EXPECT_EQ(one.entries, 1u);
    EXPECT_GT(one.bytes, one.byteLimit);
    EXPECT_EQ(one.byteLimit, 1u);
    EXPECT_EQ(one.evictions, 0u);

    eng.run(request(kLists, Checking::Off));
    auto two = eng.cacheStats();
    EXPECT_EQ(two.entries, 1u);
    EXPECT_EQ(two.evictions, 1u);

    // kLoop was evicted: rerunning it is a miss, not a hit.
    eng.run(request(kLoop, Checking::Off));
    auto three = eng.cacheStats();
    EXPECT_EQ(three.hits, 0u);
    EXPECT_EQ(three.misses, 3u);
    EXPECT_EQ(three.evictions, 2u);
}

TEST(Engine, GenerousByteBoundKeepsBothEntries)
{
    Engine eng(1, /*cacheCapacity=*/256,
               /*cacheMaxBytes=*/Engine::kDefaultCacheBytes);
    eng.run(request(kLoop, Checking::Off));
    eng.run(request(kLists, Checking::Off));
    eng.run(request(kLoop, Checking::Off)); // hit
    auto cs = eng.cacheStats();
    EXPECT_EQ(cs.entries, 2u);
    EXPECT_EQ(cs.hits, 1u);
    EXPECT_EQ(cs.misses, 2u);
    EXPECT_EQ(cs.evictions, 0u);
    EXPECT_GT(cs.bytes, 0u);
    EXPECT_LE(cs.bytes, cs.byteLimit);
}

TEST(Engine, ClearCacheResetsByteAccounting)
{
    Engine eng(1);
    eng.run(request(kLoop, Checking::Off));
    ASSERT_GT(eng.cacheStats().bytes, 0u);
    eng.clearCache();
    auto cs = eng.cacheStats();
    EXPECT_EQ(cs.entries, 0u);
    EXPECT_EQ(cs.bytes, 0u);
    // Re-populating after a clear accounts bytes afresh.
    eng.run(request(kLoop, Checking::Off));
    EXPECT_GT(eng.cacheStats().bytes, 0u);
}

TEST(Engine, CompileOutcomeExposesCachedUnit)
{
    Engine eng(1);
    auto opts = baselineOptions(Checking::Off);
    auto c = eng.compile(kLoop, opts);
    ASSERT_TRUE(c.status.ok()) << c.status.message;
    ASSERT_NE(c.unit, nullptr);
    EXPECT_FALSE(c.cacheHit);
    EXPECT_GT(c.unit->procedures, 0);
    EXPECT_GT(c.unit->objectWords, 0);
    // The cached image is trimmed well below the full address space.
    EXPECT_LT(c.unit->memory.size(), c.unit->layout.memBytes);

    // A run of the same cell reuses the compilation.
    RunReport rep = eng.run(request(kLoop, Checking::Off));
    EXPECT_TRUE(rep.cacheHit);
    EXPECT_TRUE(rep.ok());
}

TEST(Engine, WallTimeAndThreadCountAreReported)
{
    Engine eng(3);
    EXPECT_EQ(eng.threadCount(), 3u);
    RunReport rep = eng.run(request(kLoop, Checking::Off));
    EXPECT_GT(rep.wallSeconds, 0.0);
}

TEST(Engine, DeadlineSurfacesTimeout)
{
    Engine eng(1);
    RunRequest spin =
        request("(setq i 0) (while t (setq i (add1 i)))", Checking::Off);
    spin.exec.deadlineSeconds = 0.2;
    RunReport rep = eng.run(spin);
    EXPECT_EQ(rep.status.code, RunStatus::Code::Timeout);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(rep.result.timedOut);
    EXPECT_EQ(rep.result.stop, StopReason::CycleLimit);
    EXPECT_NE(rep.status.message.find("deadline"), std::string::npos);
}

TEST(Engine, DeadlineRunThatFinishesIsCycleIdentical)
{
    // The deadline machinery chunks execution through Machine::resume;
    // a run that beats its deadline must be indistinguishable from a
    // deadline-free run.
    Engine eng(1);
    RunReport plain = eng.run(request(kLoop, Checking::Full));
    RunRequest limited = request(kLoop, Checking::Full);
    limited.exec.deadlineSeconds = 30;
    RunReport rep = eng.run(limited);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(rep.ok());
    EXPECT_FALSE(rep.result.timedOut);
    EXPECT_TRUE(sameStats(plain.result.stats, rep.result.stats));
    EXPECT_EQ(plain.result.output, rep.result.output);
}

TEST(Engine, GridOfExpiringCellsCancelsEveryCellAndFreesWorkers)
{
    // Mid-runGrid cancellation: more spinning cells than workers, each
    // with a short deadline. Every cell must come back Timeout (no
    // cell is silently dropped, none runs forever), and the pool must
    // come out of it reusable — a wedged worker would hang the next
    // grid.
    Engine eng(2);
    const char *spin = "(setq i 0) (while t (setq i (add1 i)))";
    std::vector<RunRequest> reqs;
    for (int i = 0; i < 5; ++i) {
        RunRequest r = request(spin, Checking::Off);
        r.label = "spin" + std::to_string(i);
        r.exec.deadlineSeconds = 0.15;
        reqs.push_back(std::move(r));
    }
    std::vector<RunReport> reports = eng.runGrid(reqs);
    ASSERT_EQ(reports.size(), reqs.size());
    for (size_t i = 0; i < reports.size(); ++i) {
        EXPECT_EQ(reports[i].status.code, RunStatus::Code::Timeout)
            << "cell " << i;
        EXPECT_TRUE(reports[i].result.timedOut) << "cell " << i;
        EXPECT_EQ(reports[i].label, reqs[i].label);
    }
    EXPECT_EQ(eng.metrics().counter("engine.timeouts").value(),
              reqs.size());

    // The workers survived the cancellations: a normal grid on the
    // same engine completes with correct results.
    std::vector<RunRequest> after(3, request(kLoop, Checking::Off));
    std::vector<RunReport> ok = eng.runGrid(after);
    ASSERT_EQ(ok.size(), 3u);
    for (const RunReport &rep : ok)
        EXPECT_TRUE(rep.ok());
}

TEST(Engine, NestedRunGridFromWorkerIsRefused)
{
    // runGrid() from one of the engine's own workers (reachable through
    // the progress callback, which runs on the worker that completed
    // the cell) must fail fast instead of self-deadlocking. Run under
    // -DMXL_SANITIZE=thread to check the guard's publication too.
    Engine eng(2);
    std::vector<RunRequest> outer;
    outer.push_back(request(kLoop, Checking::Off));
    std::vector<RunRequest> inner;
    inner.push_back(request(kLists, Checking::Off));
    inner[0].label = "nested";

    std::vector<RunReport> nested;
    auto reports = eng.runGrid(outer, [&](size_t, const RunReport &) {
        nested = eng.runGrid(inner);
    });
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_TRUE(reports[0].ok());
    ASSERT_EQ(nested.size(), 1u);
    EXPECT_EQ(nested[0].status.code, RunStatus::Code::InternalError);
    EXPECT_EQ(nested[0].label, "nested");
    EXPECT_NE(nested[0].status.message.find("worker"), std::string::npos);

    // A separate engine is the documented escape hatch.
    Engine other(1);
    auto viaOther = other.runGrid(inner);
    ASSERT_EQ(viaOther.size(), 1u);
    EXPECT_TRUE(viaOther[0].ok()) << viaOther[0].status.message;
}

TEST(Engine, ProgressReportsEveryCell)
{
    Engine eng(2);
    std::vector<RunRequest> grid;
    for (int i = 0; i < 6; ++i)
        grid.push_back(request(i % 2 ? kLoop : kLists, Checking::Off));

    std::mutex mu;
    std::vector<size_t> seen;
    auto reports = eng.runGrid(grid, [&](size_t i, const RunReport &rep) {
        std::lock_guard<std::mutex> lk(mu);
        EXPECT_TRUE(rep.status.ok());
        seen.push_back(i);
    });
    ASSERT_EQ(reports.size(), grid.size());
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), grid.size());
    for (size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i);
}

TEST(Engine, TrapHandlerInstallationIsControllable)
{
    // (+ 1 'a) under genericArith hardware traps in addt. With the
    // unit's software fallback installed (default) the trap vectors to
    // the generic-arithmetic slow path, which raises a Lisp-level type
    // error; without it, the run stops with the documented
    // unhandled-trap encoding.
    RunRequest req = request("(print (+ 1 (quote a)))", Checking::Full);
    req.opts.hw.genericArith = true;

    Engine eng(1);
    RunReport handled = eng.run(req);
    ASSERT_TRUE(handled.status.ok()) << handled.status.message;
    EXPECT_EQ(handled.result.stop, StopReason::Errored);
    EXPECT_FALSE(isUnhandledTrapCode(handled.result.errorCode));

    req.exec.installTrapHandlers = false;
    RunReport bare = eng.run(req);
    ASSERT_TRUE(bare.status.ok()) << bare.status.message;
    EXPECT_EQ(bare.result.stop, StopReason::Errored);
    ASSERT_TRUE(isUnhandledTrapCode(bare.result.errorCode));
    EXPECT_EQ(unhandledTrapKind(bare.result.errorCode),
              TrapKind::ArithFail);
    EXPECT_EQ(unhandledTrapIndex(bare.result.errorCode),
              bare.result.faultIndex);
    // Same compiled unit served both runs (hooks are not cache keys).
    EXPECT_TRUE(bare.cacheHit);
}

TEST(Engine, ConcurrentPlacedCellsRewriteAndVerifyOnce)
{
    // Forty placed cells of one cached unit on four workers: the
    // adapter rewrites the unit once, and the engine verifies and
    // translates that one output once, however the first uses race.
    // Run under -DMXL_SANITIZE=thread to check the memos' publication.
    Engine eng(4);
    TraceRecorder rec;
    std::mutex mu;
    std::set<const CompiledUnit *> outputs;
    std::vector<RunRequest> grid(40, request(kLists, Checking::Full));
    for (RunRequest &r : grid)
        r.hooks.unitTransform = [&](std::shared_ptr<const CompiledUnit> u) {
            auto out = checkPlaceTransform(u);
            std::lock_guard<std::mutex> lk(mu);
            outputs.insert(out.get());
            return out;
        };
    eng.setTrace(&rec);
    std::vector<RunReport> reports = eng.runGrid(grid);
    eng.setTrace(nullptr);

    ASSERT_EQ(reports.size(), grid.size());
    for (const RunReport &rep : reports) {
        ASSERT_TRUE(rep.ok()) << rep.status.message;
        EXPECT_EQ(rep.backend, Backend::Translated);
        EXPECT_FALSE(rep.backendFellBack) << rep.backendNote;
        EXPECT_TRUE(sameStats(rep.result.stats, reports[0].result.stats));
    }
    EXPECT_EQ(outputs.size(), 1u);
    size_t verifies = 0, translates = 0;
    Json events = rec.toJson();
    for (size_t i = 0; i < events.size(); ++i) {
        const std::string &name = events.at(i).find("name")->str();
        verifies += name == "verify";
        translates += name == "translate";
    }
    EXPECT_EQ(verifies, 1u);
    EXPECT_EQ(translates, 1u);
    EXPECT_GT(eng.metrics().counter("engine.verify_micros").value(), 0u);
    EXPECT_EQ(eng.metrics().counter("engine.backend.fallbacks").value(), 0u);
}

TEST(Engine, CachedPrefixFollowedByZerosIsTheCompiledImage)
{
    // compileUnit writes only the static area, so the engine's trim
    // scans [0, staticLimit) alone; this pins both halves of that
    // bound on every program under every scheme.
    Engine eng(1);
    for (const BenchmarkProgram &bp : benchmarkPrograms())
        for (SchemeKind k : {SchemeKind::High5, SchemeKind::High6,
                             SchemeKind::Low2, SchemeKind::Low3}) {
            SCOPED_TRACE(bp.name + "/" + schemeKindName(k));
            CompilerOptions opts = baselineOptions(Checking::Full);
            opts.scheme = k;
            opts.heapBytes = bp.heapBytes;
            const CompiledUnit full = compileUnit(bp.source, opts);
            const uint32_t words = full.memory.size() / 4;
            uint32_t above = 0;
            for (uint32_t i = (full.layout.staticLimit + 3) / 4; i < words;
                 ++i)
                above += full.memory.word(i) != 0;
            EXPECT_EQ(above, 0u) << "nonzero words at or above staticLimit";

            Engine::CompileOutcome c = eng.compile(bp.source, opts);
            ASSERT_TRUE(c.status.ok()) << c.status.message;
            const Memory &prefix = c.unit->memory;
            const uint32_t live = prefix.size() / 4;
            ASSERT_LE(live, words);
            uint32_t diffs = 0;
            for (uint32_t i = 0; i < words; ++i)
                diffs += (i < live ? prefix.word(i) : 0) != full.memory.word(i);
            EXPECT_EQ(diffs, 0u);
        }
}

TEST(Engine, ImageSetupIsTimedAndSpanned)
{
    Engine eng(1);
    TraceRecorder rec;
    eng.setTrace(&rec);
    RunRequest req = request(kLists, Checking::Full);
    req.label = "imaged";
    bool mutated = false;
    req.hooks.imageMutator = [&](Memory &, const CompiledUnit &) {
        mutated = true;
    };
    const Counter &image = eng.metrics().counter("engine.image_micros");
    const Histogram &cells = eng.metrics().histogram("engine.cell_micros");
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(eng.run(req).ok());
    eng.setTrace(nullptr);

    EXPECT_TRUE(mutated);
    EXPECT_GT(image.value(), 0u);
    EXPECT_LE(image.value(), cells.sum());
    size_t spans = 0;
    Json events = rec.toJson();
    for (size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        if (e.find("name")->str() != "image")
            continue;
        ++spans;
        EXPECT_EQ(e.find("args")->find("label")->str(), "imaged");
    }
    EXPECT_EQ(spans, 3u);
}
