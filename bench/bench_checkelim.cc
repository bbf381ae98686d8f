/**
 * Check placement vs elimination vs baseline: a three-rung ladder.
 *
 * PR 5's tag-flow analyzer proved some full-checking branches
 * redundant and deleted them (analysis/checkelim.h). The placement
 * engine (analysis/checkplace.h) goes further: it hoists
 * loop-invariant checks to preheaders, lets the slot fact flowing
 * around the back edge make the in-loop copies provably redundant,
 * then removes cross-block dead extract feeders and error paths
 * orphaned by deleted checks. This harness measures all three rungs
 * per benchmark program in the paper's software-checked baseline
 * configuration (High5 tags, Checking::Full, no hardware):
 *
 *   baseline — the golden unit as compiled;
 *   elim     — redundant-check elimination only (PR 5's transform);
 *   place    — the full placement engine (hoist + eliminate + sink).
 *
 * Soundness is checked three ways, not assumed: every transformed run
 * must produce byte-identical output, the same exit value, and the
 * same stop reason as its golden run; every placement-transformed
 * unit must be accepted by the independent load-time verifier
 * (analysis/verify.h) — the engine also verifies transformed units on
 * its own, so a verifier rejection fails the run outright; and each
 * unit is linted with finding counts exported through the metrics
 * registry as mxlint.<program>.{errors,warnings,infos}.
 *
 * Self-gates (the bench fails if placement regresses):
 *   - >=1 loop-invariant hoist on at least 4 of the ten programs;
 *   - total place cycles strictly below total elim cycles;
 *   - verifier accepts every transformed unit;
 *   - the elim and place rungs ran on the translated backend (the
 *     default Auto policy applies to rewritten units too).
 *
 * Results land in BENCH_checkelim.json: one grid cell per program
 * with per-rung cycles, hoist counts, and verifier-proven check
 * counts; tools/bench_diff --checks gates on provenChecks and the
 * place-rung cycle totals.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/checkelim.h"
#include "analysis/checkplace.h"
#include "analysis/lint.h"
#include "analysis/verify.h"
#include "bench_export.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "programs/programs.h"
#include "support/json.h"

using namespace mxl;

int
main()
{
    Engine eng;
    CompilerOptions base = baselineOptions(Checking::Full);

    Json grid = Json::array();
    bool allIdentical = true, allReduced = true, lintClean = true;
    bool allVerified = true, allTranslated = true;
    int programsWithHoists = 0;
    uint64_t goldenTotal = 0, elimTotal = 0, placeTotal = 0;

    // backend: the tier each rung ran on, golden/elim/place
    // (T = translated, I = interpreter).
    std::printf("%-8s %9s %6s %6s %12s %12s %12s %7s %7s\n", "program",
                "checks", "hoist", "sunk", "golden", "elim", "place",
                "place%", "backend");
    for (const auto &bp : benchmarkPrograms()) {
        RunRequest req;
        req.source = bp.source;
        req.opts = base;
        req.opts.heapBytes = bp.heapBytes;
        req.exec.maxCycles = bp.maxCycles;
        req.label = bp.name;

        // Lint the cached unit; export finding counts as metrics.
        Engine::CompileOutcome c = eng.compile(req.source, req.opts);
        if (!c.status.ok()) {
            std::printf("FAIL  %s does not compile: %s\n",
                        bp.name.c_str(), c.status.message.c_str());
            return 1;
        }
        LintReport lint = lintUnit(*c.unit);
        const std::string m = "mxlint." + bp.name + ".";
        eng.metrics().counter(m + "errors").inc(
            static_cast<uint64_t>(lint.errors));
        eng.metrics().counter(m + "warnings").inc(
            static_cast<uint64_t>(lint.warnings));
        eng.metrics().counter(m + "infos").inc(
            static_cast<uint64_t>(lint.infos));
        if (lint.errors != 0) {
            lintClean = false;
            std::fputs(lint.render().c_str(), stdout);
        }

        RunReport golden = eng.run(req);
        if (!golden.status.ok()) {
            std::printf("FAIL  %s golden run: %s\n", bp.name.c_str(),
                        golden.status.message.c_str());
            return 1;
        }

        // Rung 2: elimination only.
        ElimStats est;
        RunRequest elim = req;
        elim.hooks.unitTransform =
            [&est](std::shared_ptr<const CompiledUnit> unit) {
                return checkElimTransform(unit, &est);
            };
        RunReport elimRun = eng.run(elim);
        if (!elimRun.status.ok()) {
            std::printf("FAIL  %s elim run: %s\n", bp.name.c_str(),
                        elimRun.status.message.c_str());
            return 1;
        }

        // Rung 3: full placement. Keep the transformed unit so the
        // independent verifier's verdict can be reported here too (the
        // engine already gates on it internally).
        PlaceStats pst;
        std::shared_ptr<const CompiledUnit> placed;
        RunRequest place = req;
        place.hooks.unitTransform =
            [&pst, &placed](std::shared_ptr<const CompiledUnit> unit) {
                placed = checkPlaceTransform(unit, &pst);
                return placed;
            };
        RunReport placeRun = eng.run(place);
        if (!placeRun.status.ok()) {
            std::printf("FAIL  %s place run: %s\n", bp.name.c_str(),
                        placeRun.status.message.c_str());
            return 1;
        }
        VerifyResult ver = placed ? verifyUnit(*placed) : VerifyResult{};
        if (!ver.ok()) {
            allVerified = false;
            std::printf("FAIL  %s verifier: %s\n", bp.name.c_str(),
                        ver.render().c_str());
        }

        // The rewritten rungs run under the default Auto policy, so
        // they should land on the translated backend like golden.
        auto tier = [](const RunReport &r) {
            return r.backend == Backend::Translated ? 'T' : 'I';
        };
        const std::string backends{tier(golden), '/', tier(elimRun), '/',
                                   tier(placeRun)};
        for (const RunReport *r : {&elimRun, &placeRun})
            if (r->backend != Backend::Translated || r->backendFellBack) {
                allTranslated = false;
                std::printf("FAIL  %s %s rung ran on the %s: %s\n",
                            bp.name.c_str(), r == &elimRun ? "elim" : "place",
                            backendName(r->backend), r->backendNote.c_str());
            }

        const bool identical =
            elimRun.result.output == golden.result.output &&
            elimRun.result.exitValue == golden.result.exitValue &&
            elimRun.result.stop == golden.result.stop &&
            placeRun.result.output == golden.result.output &&
            placeRun.result.exitValue == golden.result.exitValue &&
            placeRun.result.stop == golden.result.stop;
        if (!identical)
            allIdentical = false;

        const uint64_t gCycles = golden.result.stats.total;
        const uint64_t eCycles = elimRun.result.stats.total;
        const uint64_t pCycles = placeRun.result.stats.total;
        if (pCycles >= gCycles)
            allReduced = false;
        if (pst.hoisted > 0)
            ++programsWithHoists;
        goldenTotal += gCycles;
        elimTotal += eCycles;
        placeTotal += pCycles;

        const size_t codeSize = c.unit->prog.code.size();
        const double placePct =
            gCycles ? 100.0 * (static_cast<double>(gCycles) -
                               static_cast<double>(pCycles)) /
                          static_cast<double>(gCycles)
                    : 0.0;
        std::printf(
            "%-8s %4d/%4d %6d %6d %12llu %12llu %12llu %6.2f%% %7s%s\n",
            bp.name.c_str(), pst.elim.checksEliminated,
            pst.elim.checksConsidered, pst.hoisted, pst.sunkInstructions,
            static_cast<unsigned long long>(gCycles),
            static_cast<unsigned long long>(eCycles),
            static_cast<unsigned long long>(pCycles), placePct,
            backends.c_str(), identical ? "" : "  OUTPUT DIFFERS");

        Json cell = Json::object();
        cell.set("program", bp.name);
        // label + stats.total: the shape obs/bench_compare.h pairs on,
        // so bench_diff tracks the place-rung cycle counts over time.
        cell.set("label", bp.name);
        Json stats = Json::object();
        stats.set("total", static_cast<int64_t>(pCycles));
        cell.set("stats", std::move(stats));
        cell.set("checksConsidered", pst.elim.checksConsidered);
        cell.set("checksEliminated", pst.elim.checksEliminated);
        cell.set("instructionsRemoved", pst.elim.instructionsRemoved);
        cell.set("extractsRemoved", pst.elim.extractsRemoved);
        cell.set("padsRemoved", pst.elim.padsRemoved);
        cell.set("loopsFound", pst.loopsFound);
        cell.set("hoistCandidates", pst.hoistCandidates);
        cell.set("hoists", pst.hoisted);
        cell.set("hoistInstructions", pst.hoistInstructions);
        cell.set("feedersRemoved", pst.feedersRemoved);
        cell.set("sunkInstructions", pst.sunkInstructions);
        cell.set("provenChecks", ver.accessesProven);
        cell.set("verifierAccepts", ver.ok());
        cell.set("codeSize", static_cast<int64_t>(codeSize));
        cell.set("goldenCycles", static_cast<int64_t>(gCycles));
        cell.set("elimCycles", static_cast<int64_t>(eCycles));
        cell.set("placeCycles", static_cast<int64_t>(pCycles));
        cell.set("optimizedCycles", static_cast<int64_t>(pCycles));
        cell.set("cycleReductionPct", placePct);
        cell.set("outputIdentical", identical);
        cell.set("goldenBackend", backendName(golden.backend));
        cell.set("elimBackend", backendName(elimRun.backend));
        cell.set("placeBackend", backendName(placeRun.backend));
        cell.set("lintErrors", lint.errors);
        cell.set("lintWarnings", lint.warnings);
        grid.push(std::move(cell));
    }

    auto pct = [](uint64_t golden, uint64_t opt) {
        return golden ? 100.0 * (static_cast<double>(golden) -
                                 static_cast<double>(opt)) /
                            static_cast<double>(golden)
                      : 0.0;
    };
    const double elimPct = pct(goldenTotal, elimTotal);
    const double placePct = pct(goldenTotal, placeTotal);
    std::printf("total cycle reduction: elim %.2f%%, place %.2f%%\n",
                elimPct, placePct);

    const bool enoughHoists = programsWithHoists >= 4;
    const bool beatsElim = placeTotal < elimTotal;
    std::printf("%s  transformed output byte-identical to golden on all "
                "programs\n",
                allIdentical ? "PASS" : "FAIL");
    std::printf("%s  placement uses fewer simulated cycles than baseline "
                "on all programs\n",
                allReduced ? "PASS" : "FAIL");
    std::printf("%s  >=1 loop-invariant hoist on >=4 programs (%d/10)\n",
                enoughHoists ? "PASS" : "FAIL", programsWithHoists);
    std::printf("%s  placement beats elimination-only in total cycles\n",
                beatsElim ? "PASS" : "FAIL");
    std::printf("%s  independent verifier accepts every transformed "
                "unit\n",
                allVerified ? "PASS" : "FAIL");
    std::printf("%s  mxlint reports zero errors on every unit\n",
                lintClean ? "PASS" : "FAIL");
    std::printf("%s  rewritten rungs ran translated\n",
                allTranslated ? "PASS" : "FAIL");

    bool wrote = writeBenchJson("checkelim",
                                benchDoc("checkelim", std::move(grid),
                                         &eng));
    return (allIdentical && allReduced && enoughHoists && beatsElim &&
            allVerified && lintClean && allTranslated && wrote)
               ? 0
               : 1;
}
