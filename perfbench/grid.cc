/**
 * @file
 * The in-process workloads: paper_grid (the paper's 160-cell Table 2
 * space through Engine::runGrid, Backend::Auto, warm cache) and
 * check_ladder (the ten programs at Full checking x {golden, elim,
 * placed}, the rewrites applied through Hooks::unitTransform).
 *
 * Both share one shape: set up a fresh Engine by compiling every
 * distinct unit (timed several times for setup_s), then run whole
 * seed-shuffled passes until the time budget is spent. Every report is
 * checked against the reference file after the timed region. The
 * traced run alternates untraced and traced passes; only the traced
 * ones carry hooks, spans and the per-cell ledger.
 *
 * Untraced check_ladder cells rewrite as bench_checkelim does:
 * checkElimTransform / checkPlaceTransform as the unitTransform, with
 * the engine's load-time verifier gate left on. Traced cells split the
 * same work into cloneUnit, the rewrite and verifyUnit inside the hook,
 * each under its own span, and turn the engine's gate off so the unit
 * is verified once.
 */

#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <unistd.h>

#include "analysis/checkelim.h"
#include "analysis/checkplace.h"
#include "analysis/verify.h"
#include "serve/wire.h"

using namespace mxl;

namespace perfbench {

namespace {

const char *const kRungs[3] = {"golden", "elim", "placed"};

/** The engine's "run" span durations (µs), keyed by args.label. */
std::map<std::string, uint64_t>
runSpanMicros(const TraceRecorder &rec)
{
    std::map<std::string, uint64_t> out;
    Json events = rec.toJson();
    for (size_t i = 0; i < events.size(); ++i) {
        const Json &e = events.at(i);
        const Json *name = e.find("name");
        const Json *args = e.find("args");
        const Json *label = args ? args->find("label") : nullptr;
        if (name && name->str() == "run" && label)
            out[label->str()] += e.find("dur")->asUint();
    }
    return out;
}

/** Per-cell marks written from the engine worker that ran the cell. */
struct Marks
{
    uint64_t transformStart = 0, transformEnd = 0; ///< µs, recorder clock
    uint64_t imageReady = 0;
    uint64_t cloneUs = 0, rewriteUs = 0, verifyUs = 0;
    int checksRemoved = 0, hoisted = 0;
    bool rewritten = false; ///< elim or placed rung
    bool placed = false;
    uint64_t cellEnd = 0;
    double wallSeconds = 0;
    int tid = 0;
};

struct Cell
{
    RunRequest req;
    int rung = 0; ///< check_ladder: index into kRungs
};

using UnitTransform = std::function<std::shared_ptr<const CompiledUnit>(
    std::shared_ptr<const CompiledUnit>)>;

/** The rewriting hook of an elim/placed rung, as bench_checkelim sets
 *  it; the engine verifies its output. */
UnitTransform
libraryTransform(int rung)
{
    if (rung == 1)
        return [](std::shared_ptr<const CompiledUnit> u) {
            return checkElimTransform(u, nullptr);
        };
    return [](std::shared_ptr<const CompiledUnit> u) {
        return checkPlaceTransform(u, nullptr);
    };
}

/** The traced hook of an elim/placed rung: clone, rewrite and verify,
 *  each spanned and timed into @p m. */
UnitTransform
tracedTransform(int rung, Marks *m, TraceRecorder *rec, std::string label)
{
    return [rung, m, rec, label](std::shared_ptr<const CompiledUnit> in)
               -> std::shared_ptr<const CompiledUnit> {
        const int tid = Engine::currentWorkerId();
        uint64_t t0 = rec->nowMicros();
        auto unit = std::make_shared<CompiledUnit>(cloneUnit(*in));
        uint64_t t1 = rec->nowMicros();
        int removed = 0, hoisted = 0;
        if (rung == 1) {
            removed = eliminateRedundantChecks(*unit).checksEliminated;
        } else {
            PlaceStats ps = placeChecks(*unit);
            removed = ps.elim.checksEliminated;
            hoisted = ps.hoisted;
        }
        uint64_t t2 = rec->nowMicros();
        bool ok = verifyUnit(*unit).ok();
        uint64_t t3 = rec->nowMicros();
        rec->complete("cloneUnit", "analysis", tid, t0, t1 - t0, label);
        rec->complete(rung == 1 ? "eliminateRedundantChecks" : "placeChecks",
                      "analysis", tid, t1, t2 - t1, label);
        rec->complete("verifyUnit", "analysis", tid, t2, t3 - t2, label);
        m->transformStart = t0;
        m->transformEnd = t3;
        m->cloneUs = t1 - t0;
        m->rewriteUs = t2 - t1;
        m->verifyUs = t3 - t2;
        m->checksRemoved = removed;
        m->hoisted = hoisted;
        m->rewritten = true;
        m->placed = rung == 2;
        // A rejected rewrite fails the cell (null unit: InternalError).
        return ok ? unit : nullptr;
    };
}

std::vector<Cell>
passCells(const std::string &workload)
{
    std::vector<Cell> cells;
    if (workload == "paper_grid") {
        for (RunRequest &r : paperGridCells())
            cells.push_back({std::move(r), 0});
        return cells;
    }
    for (const RunRequest &u : ladderUnits())
        for (int rung = 0; rung < 3; ++rung) {
            Cell c{u, rung};
            c.req.label = u.label + "/" + kRungs[rung];
            cells.push_back(std::move(c));
        }
    return cells;
}

std::vector<RunRequest>
distinctUnits(const std::string &workload)
{
    return workload == "paper_grid" ? paperGridCells() : ladderUnits();
}

/** Compile every distinct unit into @p eng through the cache, on every
 *  CPU: only the timed passes are held to kWorkers. */
void
warm(Engine &eng, const std::vector<RunRequest> &units, TraceRecorder *rec)
{
    parallelFor(units.size(), hostThreads(), [&](size_t i, int tid) {
        uint64_t t0 = rec ? rec->nowMicros() : 0;
        eng.compile(units[i].source, units[i].opts);
        if (rec)
            rec->complete("Engine::compile", "core", tid, t0,
                          rec->nowMicros() - t0, units[i].label);
    });
}

struct Pass
{
    double wall = 0;
    std::vector<RunReport> reports;
    std::vector<std::string> labels; ///< reference labels, report order
};

class GridRunner
{
  public:
    GridRunner(const Options &o, const Reference &ref, Outcome &out)
        : o_(o), ref_(ref), out_(out), cells_(passCells(o.workload)),
          rng_(o.seed)
    {
    }

    void run();

  private:
    Pass pass(Engine &eng, std::mt19937_64 &rng, TraceRecorder *rec,
              std::vector<Marks> *marks);
    void check(const Pass &p);
    void traced(Engine &eng);

    const Options &o_;
    const Reference &ref_;
    Outcome &out_;
    std::vector<Cell> cells_;
    std::mt19937_64 rng_;
    size_t passIndex_ = 0;
    CycleTotals firstPass_;
    bool havePass_ = false;
};

Pass
GridRunner::pass(Engine &eng, std::mt19937_64 &rng, TraceRecorder *rec,
                 std::vector<Marks> *marks)
{
    std::vector<Cell> order = cells_;
    shuffle(order, rng);
    // Traced passes run one at a time; only they need unique labels.
    const std::string tag = marks ? "#" + std::to_string(passIndex_++) : "";
    Pass p;
    std::vector<RunRequest> reqs;
    if (marks)
        marks->assign(order.size(), Marks{});
    for (size_t i = 0; i < order.size(); ++i) {
        RunRequest r = order[i].req;
        p.labels.push_back(r.label);
        Marks *m = marks ? &(*marks)[i] : nullptr;
        if (m)
            r.label += tag; // unique per traced cell: keys its run span
        if (order[i].rung > 0 && m) {
            r.hooks.unitTransform =
                tracedTransform(order[i].rung, m, rec, r.label);
            r.hooks.verifyTransformed = false; // verified in the hook
        } else if (order[i].rung > 0) {
            r.hooks.unitTransform = libraryTransform(order[i].rung);
        }
        if (m)
            r.hooks.imageMutator = [m, rec](Memory &, const CompiledUnit &) {
                m->imageReady = rec->nowMicros();
            };
        reqs.push_back(std::move(r));
    }
    Engine::GridProgress progress;
    if (marks)
        progress = [marks, rec](size_t i, const RunReport &rep) {
            Marks &m = (*marks)[i];
            m.cellEnd = rec->nowMicros();
            m.wallSeconds = rep.wallSeconds;
            m.tid = Engine::currentWorkerId();
        };
    const double t0 = nowSeconds();
    p.reports = eng.runGrid(reqs, progress);
    p.wall = nowSeconds() - t0;
    return p;
}

void
GridRunner::check(const Pass &p)
{
    CycleTotals totals;
    for (size_t i = 0; i < p.reports.size(); ++i) {
        const RunReport &rep = p.reports[i];
        ++out_.attempted;
        const Expected *want = ref_.find(p.labels[i]);
        std::string why = !rep.status.ok() ? rep.status.message
                          : !want          ? "no reference entry"
                                           : compareFull(*want, rep.result);
        // Every rung must print exactly what the golden unit prints.
        const Expected *golden =
            ref_.find(p.labels[i].substr(0, p.labels[i].rfind('/')) +
                      "/golden");
        if (why.empty() && o_.workload == "check_ladder" &&
            (!golden || golden->outputHash != want->outputHash))
            why = "rung output differs from golden";
        if (!why.empty()) {
            ++out_.failed;
            out_.note(p.labels[i] + ": " + why);
        }
        totals.add(rep.result.stats);
    }
    if (!havePass_) {
        firstPass_ = totals;
        havePass_ = true;
    } else if (totals.total != firstPass_.total) {
        out_.note("simulated cycles differ between passes");
        ++out_.failed;
    }
}

void
GridRunner::run()
{
    const std::vector<RunRequest> units = distinctUnits(o_.workload);

    if (o_.trace) {
        Engine eng(kWorkers);
        traced(eng);
        return;
    }

    // setup_s: cold start to ready, several times, the fastest
    // reported (see fastestRepeats); the last engine stays up for the
    // measured passes.
    std::vector<double> setups;
    std::unique_ptr<Engine> eng;
    while (moreSetups(setups)) {
        eng.reset();
        const double t0 = nowSeconds();
        eng = std::make_unique<Engine>(kWorkers);
        warm(*eng, units, nullptr);
        setups.push_back(nowSeconds() - t0);
    }

    // Whole passes, back to back, every pass the same cells in a new
    // order.
    std::vector<Pass> passes;
    std::vector<double> rates;
    const double t0 = nowSeconds();
    do {
        passes.push_back(pass(*eng, rng_, nullptr, nullptr));
        rates.push_back(double(cells_.size()) / passes.back().wall);
    } while (nowSeconds() - t0 < o_.seconds);
    const double wall = nowSeconds() - t0;

    std::map<std::string, std::vector<double>> repeats;
    for (const Pass &p : passes) {
        for (size_t i = 0; i < p.reports.size(); ++i)
            repeats[p.labels[i]].push_back(p.reports[i].wallSeconds * 1e3);
        check(p);
    }
    const std::vector<double> cellMs = fastestRepeats(repeats);
    double cellMsSum = 0;
    for (double ms : cellMs)
        cellMsSum += ms;

    MetricSink &s = out_.metrics;
    s.add("setup_s", *std::min_element(setups.begin(), setups.end()), "s");
    s.add("ops_per_s", 1e3 * double(cellMs.size()) / cellMsSum, "1/s");
    s.add("op_ms_p50", percentile(cellMs, 0.50), "ms");
    s.add("op_ms_p90", percentile(cellMs, 0.90), "ms");
    s.add("peak_rss_mb", peakRssMb(getpid()), "MiB");
    s.add("sim_cycles", double(firstPass_.total), "cycles");
    s.add("tag_cycles_pct", firstPass_.tagPct(), "%");
    std::fprintf(stderr,
                 "perfbench: %s: %zu passes of %zu cells in %.2f s (pass "
                 "rates %.2f..%.2f /s, median %.2f), %zu distinct cells, "
                 "%zu setups (median %.3f s)\n",
                 o_.workload.c_str(), passes.size(), cells_.size(), wall,
                 *std::min_element(rates.begin(), rates.end()),
                 *std::max_element(rates.begin(), rates.end()), median(rates),
                 cellMs.size(), setups.size(), median(setups));
}

void
GridRunner::traced(Engine &eng)
{
    const std::vector<RunRequest> units = distinctUnits(o_.workload);
    TraceRecorder rec;
    const PipelineProfile prof = profilePipeline(units, rec);
    warm(eng, units, &rec);

    // Alternate untraced and traced passes: the wall-time ratio of the
    // two kinds is the tracing overhead.
    std::vector<double> plainWalls, tracedWalls;
    std::vector<CellLedger> ledger;
    std::vector<Marks> allMarks;
    std::vector<RunReport> tracedReports;
    Json before, after;
    uint64_t cellUs = 0, compileUs = 0, runUs = 0, runs = 0, hits = 0,
             lookups = 0, fallbacks = 0, busyUs = 0;
    double measured = 0;
    while (measured < o_.seconds || tracedWalls.size() < 2) {
        Pass plain = pass(eng, rng_, nullptr, nullptr);
        plainWalls.push_back(plain.wall);
        check(plain);

        std::vector<Marks> marks;
        before = eng.metrics().snapshot();
        eng.setTrace(&rec);
        Pass p = pass(eng, rng_, &rec, &marks);
        eng.setTrace(nullptr);
        after = eng.metrics().snapshot();
        tracedWalls.push_back(p.wall);
        measured += plain.wall + p.wall;
        check(p);

        auto hist = [](const Json &s, const char *name) -> uint64_t {
            const Json *h = s.find("histograms")->find(name);
            return h ? h->find("sum")->asUint() : 0;
        };
        cellUs += hist(after, "engine.cell_micros") -
                  hist(before, "engine.cell_micros");
        compileUs += counterDelta(before, after, "engine.compile_micros");
        runUs += counterDelta(before, after, "engine.run_micros");
        runs += counterDelta(before, after, "engine.runs");
        hits += counterDelta(before, after, "engine.cache.hits");
        lookups += counterDelta(before, after, "engine.cache.hits") +
                   counterDelta(before, after, "engine.cache.misses");
        fallbacks += counterDelta(before, after, "engine.backend.fallbacks");
        for (unsigned w = 1; w <= eng.threadCount(); ++w)
            busyUs += counterDelta(before, after,
                                   "engine.worker." + std::to_string(w) +
                                       ".busy_micros");
        for (size_t i = 0; i < p.reports.size(); ++i) {
            allMarks.push_back(marks[i]);
            tracedReports.push_back(std::move(p.reports[i]));
        }
    }

    // The ledger: each cell's wall split over the layers that ran it.
    const uint64_t tLedger = rec.nowMicros();
    auto runSpans = runSpanMicros(rec);
    double analysisUs = 0, cloneUs = 0, elimUs = 0, placeUs = 0,
           verifyUs = 0;
    size_t elimN = 0, placeN = 0, rewrites = 0, violations = 0;
    int removed = 0, hoisted = 0;
    double execMs = 0, machMs = 0;
    uint64_t execCycles = 0, machCycles = 0;
    size_t execN = 0, machN = 0;
    for (size_t i = 0; i < allMarks.size(); ++i) {
        const Marks &m = allMarks[i];
        const RunReport &rep = tracedReports[i];
        CellLedger c;
        c.wallMs = m.wallSeconds * 1e3;
        // The cell's start is inferred from the progress callback, which
        // can run a little after the engine stopped its clock. So the
        // lookup segment is computed signed: when the lookup was shorter
        // than that delay it goes negative, and the remainder keeps the
        // delay.
        const double startUs = double(m.cellEnd) - m.wallSeconds * 1e6;
        const uint64_t first = m.rewritten ? m.transformStart : m.imageReady;
        const double imageUs =
            m.rewritten ? double(m.imageReady - m.transformEnd) : 0.0;
        c.coreMs = (double(first) - startUs + imageUs) / 1e3;
        c.analysisMs = double(m.cloneUs + m.rewriteUs + m.verifyUs) / 1e3;
        c.runMs = double(runSpans[rep.label]) / 1e3;
        c.interpreter = rep.backend == Backend::Interpreter;
        const uint64_t start =
            static_cast<uint64_t>(std::clamp(startUs, 0.0, double(first)));
        rec.complete("cell", "perfbench", m.tid, start,
                     m.cellEnd - start, rep.label);
        rec.complete(m.rewritten ? "cacheLookup" : "cacheLookup+expandImage",
                     "core", m.tid, start, first - start, rep.label);
        if (m.rewritten)
            rec.complete("expandImage", "core", m.tid, m.transformEnd,
                         m.imageReady - m.transformEnd, rep.label);
        if (!withinTolerance(c, kCellShare, kCellFloorMs))
            ++violations;
        ledger.push_back(c);
        analysisUs += double(m.cloneUs + m.rewriteUs + m.verifyUs);
        if (m.rewritten) {
            ++rewrites;
            cloneUs += double(m.cloneUs);
            verifyUs += double(m.verifyUs);
            (m.placed ? placeUs : elimUs) += double(m.rewriteUs);
            ++(m.placed ? placeN : elimN);
        }
        if (c.interpreter) {
            machMs += c.runMs;
            machCycles += rep.result.stats.total;
            ++machN;
        } else {
            execMs += c.runMs;
            execCycles += rep.result.stats.total;
            ++execN;
        }
    }
    // Rewrite counts of one pass (each pass rewrites the same units).
    for (size_t i = 0; i < cells_.size() && i < allMarks.size(); ++i) {
        removed += allMarks[i].checksRemoved;
        hoisted += allMarks[i].hoisted;
    }
    rec.complete("ledger", "obs", 0, tLedger, rec.nowMicros() - tLedger);

    std::vector<std::string> layers{"sexpr", "compiler", "exec", "core",
                                    "obs", "perfbench"};
    if (machN)
        layers.push_back("machine");
    if (rewrites)
        layers.push_back("analysis");
    std::string err;
    if (!writeCheckedTrace(rec, o_.outDir + "/trace_" + o_.workload + ".json",
                           layers, &err)) {
        out_.note(err);
        ++out_.failed;
    }

    const double n = double(ledger.size());
    double unattributed = 0;
    for (const CellLedger &c : ledger)
        unattributed += c.unattributed();
    auto per = [](double x, size_t k) { return k ? x / double(k) : 0.0; };

    MetricSink &s = out_.metrics;
    s.add("sexpr.read_ms", prof.readMs, "ms");
    s.add("compiler.compile_ms", prof.compileMs, "ms");
    s.add("compiler.object_words", double(prof.objectWords), "words");
    s.add("exec.translate_ms", prof.translateMs, "ms");
    s.add("exec.refusals", double(prof.refusals), "count");
    s.add("exec.run_ms", per(execMs, execN), "ms");
    s.add("exec.ns_per_cycle", execCycles ? execMs * 1e6 / execCycles : 0,
          "ns");
    s.add("machine.run_ms", per(machMs, machN), "ms");
    s.add("machine.ns_per_cycle",
          machCycles ? machMs * 1e6 / machCycles : 0, "ns");
    addCycleMetrics(s, firstPass_);
    s.add("analysis.clone_ms", per(cloneUs, rewrites) / 1e3, "ms");
    s.add("analysis.verify_ms", per(verifyUs, rewrites) / 1e3, "ms");
    s.add("analysis.elim_ms", per(elimUs, elimN) / 1e3, "ms");
    s.add("analysis.place_ms", per(placeUs, placeN) / 1e3, "ms");
    s.add("analysis.checks_removed", removed, "count");
    s.add("analysis.hoisted", hoisted, "count");
    s.add("core.image_ms",
          runs ? (double(cellUs) - double(compileUs) - double(runUs) -
                  analysisUs) / double(runs) / 1e3
               : 0,
          "ms");
    s.add("core.cache_hit_ratio", lookups ? double(hits) / lookups : 0,
          "ratio");
    double tracedWall = 0;
    for (double w : tracedWalls)
        tracedWall += w;
    s.add("core.worker_busy_frac",
          double(busyUs) / (1e6 * eng.threadCount() * tracedWall), "ratio");
    s.add("core.fallbacks", double(fallbacks) / double(tracedWalls.size()),
          "count");
    addServeMetrics(s, ServeLayer{});
    s.add("core.unattributed_ms", n ? unattributed / n : 0, "ms");
    s.add("obs.sum_check_violations", double(violations), "count");
    s.add("obs.trace_overhead_pct",
          100.0 * (median(tracedWalls) / median(plainWalls) - 1.0), "%");
    if (violations)
        std::fprintf(stderr,
                     "perfbench: SUM CHECK FLAGGED: %zu of %zu cells outside "
                     "tolerance\n",
                     violations, ledger.size());
}

} // namespace

void
runGridWorkload(const Options &o, const Reference &ref, Outcome &out)
{
    GridRunner(o, ref, out).run();
}

bool
makeReference(const std::string &path)
{
    // Every distinct cell, on the reference interpreter.
    std::vector<RunRequest> reqs;
    for (const std::string w : {"paper_grid", "check_ladder"})
        for (Cell &c : passCells(w)) {
            if (c.rung > 0)
                c.req.hooks.unitTransform = libraryTransform(c.rung);
            reqs.push_back(std::move(c.req));
        }
    for (const DeckCell &d : servedDeck()) {
        WireCell wc;
        std::string err;
        if (!parseCell(d.cell, &wc, &err)) {
            std::fprintf(stderr, "perfbench: deck cell %s: %s\n",
                         d.label.c_str(), err.c_str());
            return false;
        }
        reqs.push_back(std::move(wc.request));
    }
    for (RunRequest &r : reqs)
        r.exec.backend = Backend::Interpreter;

    Engine eng(hostThreads());
    std::vector<RunReport> reps = eng.runGrid(reqs);
    Json cells = Json::object();
    for (const RunReport &rep : reps) {
        if (!rep.ok()) {
            std::fprintf(stderr, "perfbench: reference cell %s failed: %s\n",
                         rep.label.c_str(), rep.status.message.c_str());
            return false;
        }
        cells.set(rep.label, expectedJson(expectedOf(rep.result)));
    }
    Json doc = Json::object();
    doc.set("about", "perfbench output oracle: every distinct cell of "
                     "every workload run on Backend::Interpreter "
                     "(output FNV-1a 64 hash, stop, error code, exit "
                     "value, full CycleStats). Regenerate with "
                     "perfbench --make-reference PATH.");
    doc.set("cells", std::move(cells));
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string text = doc.dump(1) + "\n";
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) ==
                    text.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace perfbench
