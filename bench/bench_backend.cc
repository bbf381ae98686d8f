/**
 * Wall-clock comparison of the two execution backends on the ten
 * benchmark programs. Two measurements, kept deliberately separate:
 *
 *  - run phase: the executors proper, with the per-run image copy
 *    hoisted outside the timed region and best-of-N timing (the host
 *    is noisy; the simulation is deterministic). This is the number
 *    the translated backend's design targets.
 *  - engine path: an Engine grid of the same cells on both backends,
 *    warm cache, per-cell wall time as the engine reports it — which
 *    includes re-expanding the cached image for every run, so the
 *    ratio is lower. Both numbers are real; they answer different
 *    questions.
 *
 * Every per-program pair is checked for zero cycle delta — a single
 * diverging cycle count fails the bench (the backend test suite proves
 * the full byte-identity contract; this keeps the artifact honest).
 * Results land in BENCH_backend.json, whose "backends" rows carry each
 * pair's two cycle counts; `bench_diff BENCH_backend.json
 * BENCH_backend.json` re-checks their equality on the written artifact.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_export.h"
#include "compiler/unit.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/run.h"
#include "exec/texec.h"
#include "programs/programs.h"
#include "support/format.h"
#include "support/table.h"

using namespace mxl;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

constexpr int kReps = 3; ///< best-of-N per timed cell

} // namespace

int
main()
{
    std::printf("backend benchmark: interpreter vs translated "
                "(full checking, baseline hardware)\n\n");

    int failures = 0;
    Json runPhase = Json::array();
    double interpTotal = 0, transTotal = 0;
    uint64_t cyclesTotal = 0;

    TextTable t;
    t.addRow({"program", "cycles", "interp c/s", "trans c/s", "speedup"});
    for (const auto &bp : benchmarkPrograms()) {
        CompilerOptions opts = baselineOptions(Checking::Full);
        opts.heapBytes = bp.heapBytes;
        CompiledUnit unit = compileUnit(bp.source, opts);
        auto tr = translateUnit(unit);
        if (!tr.unit) {
            std::printf("FAIL  %s: translation refused: %s\n",
                        bp.name.c_str(), tr.note.c_str());
            ++failures;
            continue;
        }

        // Image copies hoisted: each rep gets a pristine copy made
        // outside the timed region and moved into the run.
        RunControls rc;
        rc.maxCycles = bp.maxCycles;
        TranslatedControls tc;
        tc.maxCycles = bp.maxCycles;
        RunResult ri, rt;
        double ti = 1e99, tt = 1e99;
        for (int rep = 0; rep < kReps; ++rep) {
            Memory img = unit.memory;
            double t0 = now();
            ri = runUnitOn(unit, std::move(img), rc);
            ti = std::min(ti, now() - t0);
            img = unit.memory;
            t0 = now();
            rt = runTranslated(unit, *tr.unit, std::move(img), tc);
            tt = std::min(tt, now() - t0);
        }

        if (ri.stats.total != rt.stats.total ||
            ri.stats.instructions != rt.stats.instructions) {
            std::printf("FAIL  %s: cycle divergence (%llu vs %llu)\n",
                        bp.name.c_str(),
                        (unsigned long long)ri.stats.total,
                        (unsigned long long)rt.stats.total);
            ++failures;
            continue;
        }

        interpTotal += ti;
        transTotal += tt;
        cyclesTotal += ri.stats.total;
        double ci = double(ri.stats.total) / ti;
        double ct = double(rt.stats.total) / tt;
        t.addRow({bp.name, strcat(ri.stats.total),
                  strcat(uint64_t(ci / 1e6), "M"),
                  strcat(uint64_t(ct / 1e6), "M"),
                  strcat(fixed(ti / tt, 2), "x")});

        Json cell = Json::object();
        cell.set("program", bp.name);
        cell.set("cycles", ri.stats.total);
        cell.set("interpSeconds", ti);
        cell.set("translatedSeconds", tt);
        cell.set("speedup", ti / tt);
        runPhase.push(std::move(cell));
    }
    t.addRule();
    double aggregate = interpTotal / transTotal;
    t.addRow({"aggregate", strcat(cyclesTotal),
              strcat(uint64_t(cyclesTotal / interpTotal / 1e6), "M"),
              strcat(uint64_t(cyclesTotal / transTotal / 1e6), "M"),
              strcat(fixed(aggregate, 2), "x")});
    std::printf("%s\n", t.render().c_str());
    std::printf("run-phase aggregate: %.2fx (image copies hoisted, "
                "best of %d)\n\n",
                aggregate, kReps);

    // ---- engine path: the same cells through Engine::runGrid ----
    Engine eng;
    std::vector<RunRequest> reqs;
    for (const auto &bp : benchmarkPrograms())
        for (Backend b : {Backend::Interpreter, Backend::Translated}) {
            RunRequest req;
            req.source = bp.source;
            req.opts = baselineOptions(Checking::Full);
            req.opts.heapBytes = bp.heapBytes;
            req.exec.maxCycles = bp.maxCycles;
            req.exec.backend = b;
            req.label = strcat(bp.name, "/", backendName(b));
            reqs.push_back(std::move(req));
        }
    std::vector<RunReport> reports = eng.runGrid(reqs); // warm
    for (int rep = 0; rep < kReps - 1; ++rep) {
        std::vector<RunReport> pass = eng.runGrid(reqs);
        for (size_t i = 0; i < pass.size(); ++i)
            if (pass[i].wallSeconds < reports[i].wallSeconds)
                reports[i] = std::move(pass[i]);
    }
    double engInterp = 0, engTrans = 0;
    for (size_t i = 0; i < reports.size(); i += 2) {
        if (!reports[i].ok() || !reports[i + 1].ok()) {
            std::printf("FAIL  %s: engine cell failed\n",
                        reports[i].label.c_str());
            ++failures;
            continue;
        }
        if (reports[i].result.stats.total !=
            reports[i + 1].result.stats.total) {
            std::printf("FAIL  %s: engine-path cycle divergence\n",
                        reports[i].label.c_str());
            ++failures;
        }
        engInterp += reports[i].wallSeconds;
        engTrans += reports[i + 1].wallSeconds;
    }
    std::printf("engine-path aggregate: %.2fx (includes per-run image "
                "expansion)\n",
                engInterp / engTrans);
    std::printf("zero-cycle-delta check: %s\n\n",
                failures == 0 ? "PASS (all pairs identical)" : "FAIL");

    Json doc = backendBenchDoc("backend", reqs, reports, eng);
    doc.set("runPhase", std::move(runPhase));
    Json agg = Json::object();
    agg.set("runPhaseSpeedup", aggregate);
    agg.set("enginePathSpeedup", engInterp / engTrans);
    agg.set("interpSeconds", interpTotal);
    agg.set("translatedSeconds", transTotal);
    agg.set("reps", int64_t(kReps));
    doc.set("aggregate", std::move(agg));

    return writeBenchJson("backend", doc) && failures == 0 ? 0 : 1;
}
