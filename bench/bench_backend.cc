/**
 * Wall-clock comparison of the two execution backends on the ten
 * benchmark programs: an Engine grid of every program on both backends,
 * warm cache, best-of-N per-cell wall time as the engine reports it
 * (the host is noisy; the simulation is deterministic). A cell's wall
 * time covers the cache lookup, the image setup and the run; images are
 * lazily zeroed, so the run is almost all of it.
 *
 * Every per-program pair is checked for zero cycle and instruction
 * delta — a single diverging count fails the bench (the backend test
 * suite proves the full byte-identity contract; this keeps the artifact
 * honest). Results land in BENCH_backend.json, whose "backends" rows
 * carry each pair's two cycle counts; `bench_diff BENCH_backend.json
 * BENCH_backend.json` re-checks their equality on the written artifact.
 */

#include <cstdio>

#include "bench_export.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/report.h"
#include "programs/programs.h"
#include "support/format.h"
#include "support/table.h"

using namespace mxl;

namespace {

constexpr int kReps = 3; ///< best-of-N per timed cell

} // namespace

int
main()
{
    std::printf("backend benchmark: interpreter vs translated "
                "(full checking, baseline hardware)\n\n");

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

    int failures = 0;
    double interpTotal = 0, transTotal = 0;
    uint64_t cyclesTotal = 0;
    TextTable t;
    t.addRow({"program", "cycles", "interp c/s", "trans c/s", "speedup"});
    for (size_t i = 0; i < reports.size(); i += 2) {
        const RunReport &ri = reports[i], &rt = reports[i + 1];
        const std::string name = ri.label.substr(0, ri.label.rfind('/'));
        if (!ri.ok() || !rt.ok()) {
            std::printf("FAIL  %s: engine cell failed\n", name.c_str());
            ++failures;
            continue;
        }
        const CycleStats &si = ri.result.stats, &st = rt.result.stats;
        if (si.total != st.total || si.instructions != st.instructions) {
            std::printf("FAIL  %s: cycle divergence (%llu vs %llu cycles, "
                        "%llu vs %llu instructions)\n",
                        name.c_str(), (unsigned long long)si.total,
                        (unsigned long long)st.total,
                        (unsigned long long)si.instructions,
                        (unsigned long long)st.instructions);
            ++failures;
            continue;
        }
        const double ti = ri.wallSeconds, tt = rt.wallSeconds;
        interpTotal += ti;
        transTotal += tt;
        cyclesTotal += si.total;
        t.addRow({name, strcat(si.total),
                  strcat(uint64_t(double(si.total) / ti / 1e6), "M"),
                  strcat(uint64_t(double(st.total) / tt / 1e6), "M"),
                  strcat(fixed(ti / tt, 2), "x")});
    }
    t.addRule();
    const double speedup = interpTotal / transTotal;
    t.addRow({"aggregate", strcat(cyclesTotal),
              strcat(uint64_t(cyclesTotal / interpTotal / 1e6), "M"),
              strcat(uint64_t(cyclesTotal / transTotal / 1e6), "M"),
              strcat(fixed(speedup, 2), "x")});
    std::printf("%s\n", t.render().c_str());
    std::printf("aggregate: %.2fx (engine cell wall time, best of %d)\n",
                speedup, kReps);
    std::printf("zero-cycle-delta check: %s\n\n",
                failures == 0 ? "PASS (all pairs identical)" : "FAIL");

    Json doc = backendBenchDoc("backend", reqs, reports, eng);
    Json agg = Json::object();
    agg.set("speedup", speedup);
    agg.set("reps", int64_t(kReps));
    doc.set("aggregate", std::move(agg));

    return writeBenchJson("backend", doc) && failures == 0 ? 0 : 1;
}
