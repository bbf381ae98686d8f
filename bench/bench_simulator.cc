/**
 * Substrate benchmark: mxlisp's own performance, not the paper's
 * numbers. The representative workloads of the old google-benchmark
 * harness (dispatch-bound fib, GC churn at a tight and a roomy heap)
 * are now one Engine grid, each cell pinned to the interpreter and to
 * the translated backend (ExecPolicy::backend), so the harness also
 * reports the substrate-level speedup of the threaded executor and
 * checks the two backends agree on every simulated cycle. Compilation
 * speed is measured separately against the engine's cold/warm cache.
 *
 * The measurement lands in BENCH_simulator.json (round-trip validated
 * by bench_export.h), one gridJson cell per (workload, backend).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "bench_export.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/report.h"
#include "support/format.h"
#include "support/table.h"

using namespace mxl;

namespace {

struct Workload
{
    const char *name;
    const char *source;
    uint32_t heapBytes; ///< 0 = default
    Checking checking;
};

const Workload kWorkloads[] = {
    {"fib25/off",
     "(de fib (n) (if (lessp n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
     "(print (fib 25))",
     0, Checking::Off},
    {"fib25/full",
     "(de fib (n) (if (lessp n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
     "(print (fib 25))",
     0, Checking::Full},
    {"gc/8k",
     "(de iota (n) (if (zerop n) nil (cons n (iota (sub1 n)))))"
     "(let ((i 0)) (while (lessp i 2000) (iota 40) (setq i (add1 i))))"
     "(print 'done)",
     8 << 10, Checking::Off},
    {"gc/64k",
     "(de iota (n) (if (zerop n) nil (cons n (iota (sub1 n)))))"
     "(let ((i 0)) (while (lessp i 2000) (iota 40) (setq i (add1 i))))"
     "(print 'done)",
     64 << 10, Checking::Off},
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main()
{
    std::printf("substrate benchmark: simulator dispatch, GC cost, "
                "compile speed\n");
    std::printf("(engine path; per-cell wall time includes the per-run "
                "image expansion)\n\n");

    Engine eng;

    // One grid: every workload on both backends, pinned explicitly so
    // each cell's tier is part of the measurement, not a policy choice.
    std::vector<RunRequest> reqs;
    for (const Workload &w : kWorkloads)
        for (Backend b : {Backend::Interpreter, Backend::Translated}) {
            RunRequest req;
            req.source = w.source;
            req.opts = baselineOptions(w.checking);
            if (w.heapBytes)
                req.opts.heapBytes = w.heapBytes;
            req.exec.backend = b;
            req.label = strcat(w.name, "/", backendName(b));
            reqs.push_back(std::move(req));
        }

    // Warm pass compiles + translates every cell; then best-of-3 timed
    // passes (the host is noisy, the simulation deterministic).
    std::vector<RunReport> reports = eng.runGrid(reqs);
    for (int rep = 0; rep < 3; ++rep) {
        std::vector<RunReport> pass = eng.runGrid(reqs);
        for (size_t i = 0; i < pass.size(); ++i)
            if (pass[i].wallSeconds < reports[i].wallSeconds)
                reports[i] = std::move(pass[i]);
    }

    int failures = 0;
    TextTable t;
    t.addRow({"workload", "backend", "cycles", "collections",
              "sim cycles/s", "speedup"});
    for (size_t i = 0; i < reports.size(); i += 2) {
        const RunReport &interp = reports[i];
        const RunReport &trans = reports[i + 1];
        for (const RunReport *r : {&interp, &trans}) {
            if (!r->ok()) {
                std::printf("FAIL  %s: %s\n", r->label.c_str(),
                            r->status.message.c_str());
                ++failures;
                continue;
            }
            double cps = double(r->result.stats.total) / r->wallSeconds;
            t.addRow({r->label.substr(0, r->label.rfind('/')),
                      backendName(r->backend),
                      strcat(r->result.stats.total),
                      strcat(r->result.gcCount),
                      strcat(uint64_t(cps / 1e6), "M"),
                      r == &trans
                          ? strcat(fixed(interp.wallSeconds /
                                             trans.wallSeconds,
                                         2),
                                   "x")
                          : std::string("-")});
        }
        // The substrate contract: both backends simulate the exact
        // same cycle count (the backend suite proves full equality;
        // this keeps the bench honest about what it compares).
        if (interp.ok() && trans.ok() &&
            interp.result.stats.total != trans.result.stats.total) {
            std::printf("FAIL  %s: cycle divergence between backends\n",
                        interp.label.c_str());
            ++failures;
        }
    }
    std::printf("%s\n", t.render().c_str());

    // Compile speed, cold vs warm cache (the old BM_CompileUnit).
    {
        const std::string src = kWorkloads[0].source;
        CompilerOptions opts = baselineOptions(Checking::Full);
        double cold = now();
        Engine fresh(1);
        auto c = fresh.compile(src, opts);
        cold = now() - cold;
        double warm = now();
        auto c2 = fresh.compile(src, opts);
        warm = now() - warm;
        if (!c.status.ok() || !c2.status.ok() || !c2.cacheHit)
            ++failures;
        std::printf("compile: cold %.1fms, warm (cache hit) %.3fms\n\n",
                    cold * 1e3, warm * 1e3);
    }

    return writeBenchJson("simulator",
                          backendBenchDoc("simulator", reqs, reports, eng)) &&
                   failures == 0
               ? 0
               : 1;
}
