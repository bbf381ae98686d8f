#include "core/report.h"

#include "support/panic.h"

namespace mxl {

const char *const fig1OpNames[fig1Ops] = {
    "insertion", "removal", "extraction", "checking",
};

namespace {

Purpose
fig1Purpose(int i)
{
    switch (i) {
      case 0: return Purpose::TagInsert;
      case 1: return Purpose::TagRemove;
      case 2: return Purpose::TagExtract;
      case 3: return Purpose::TagCheck;
    }
    panic("fig1Purpose");
}

double
pct(uint64_t part, uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

} // namespace

ProgramMeasurement
measureProgram(const BenchmarkProgram &prog, const CompilerOptions &base)
{
    ProgramMeasurement m;
    m.program = prog.name;

    CompilerOptions off = base;
    off.checking = Checking::Off;
    off.heapBytes = prog.heapBytes;
    m.off = compileAndRun(prog.source, off, prog.maxCycles);

    CompilerOptions full = base;
    full.checking = Checking::Full;
    full.heapBytes = prog.heapBytes;
    m.full = compileAndRun(prog.source, full, prog.maxCycles);

    if (!m.off.ok() || !m.full.ok())
        fatal("benchmark ", prog.name, " did not halt cleanly");
    if (m.off.output != m.full.output)
        fatal("benchmark ", prog.name,
              " output differs between checking modes");
    return m;
}

std::vector<ProgramMeasurement>
measureAll(Engine &eng, const CompilerOptions &base)
{
    return measureAll(eng, base, nullptr, nullptr);
}

std::vector<ProgramMeasurement>
measureAll(Engine &eng, const CompilerOptions &base,
           std::vector<RunRequest> *reqsOut,
           std::vector<RunReport> *reportsOut, bool collectProfile)
{
    // One grid of 2×10 cells: all off-runs, then all full-runs.
    CompilerOptions off = base;
    off.checking = Checking::Off;
    CompilerOptions full = base;
    full.checking = Checking::Full;
    std::vector<RunRequest> grid = programGrid(off);
    std::vector<RunRequest> fullGrid = programGrid(full);
    grid.insert(grid.end(), fullGrid.begin(), fullGrid.end());
    // Unique labels per cell, so exported grids pair up by label in
    // tools/bench_diff.
    for (size_t i = 0; i < grid.size(); ++i)
        grid[i].label = (i < grid.size() / 2 ? "off/" : "full/") +
                        grid[i].label;
    if (collectProfile)
        for (RunRequest &req : grid)
            req.hooks.collectProfile = true;

    std::vector<RunReport> reports = eng.runGrid(grid);
    auto results = unwrapReports(reports);
    if (reqsOut)
        *reqsOut = grid;
    if (reportsOut)
        *reportsOut = std::move(reports);
    const auto &progs = benchmarkPrograms();
    std::vector<ProgramMeasurement> out;
    for (size_t i = 0; i < progs.size(); ++i) {
        ProgramMeasurement m;
        m.program = progs[i].name;
        m.off = results[i];
        m.full = results[i + progs.size()];
        if (!m.off.ok() || !m.full.ok())
            fatal("benchmark ", m.program, " did not halt cleanly");
        if (m.off.output != m.full.output)
            fatal("benchmark ", m.program,
                  " output differs between checking modes");
        out.push_back(std::move(m));
    }
    return out;
}

std::vector<ProgramMeasurement>
measureAll(const CompilerOptions &base)
{
    return measureAll(Engine::defaultEngine(), base);
}

std::vector<RunRequest>
programGrid(const CompilerOptions &base)
{
    std::vector<RunRequest> grid;
    for (const auto &p : benchmarkPrograms()) {
        RunRequest req;
        req.source = p.source;
        req.opts = base;
        req.opts.heapBytes = p.heapBytes;
        req.exec.maxCycles = p.maxCycles;
        req.label = p.name;
        grid.push_back(std::move(req));
    }
    return grid;
}

std::vector<RunResult>
runPrograms(Engine &eng, const CompilerOptions &base)
{
    return unwrapReports(eng.runGrid(programGrid(base)));
}

std::vector<RunResult>
unwrapReports(const std::vector<RunReport> &reports)
{
    std::vector<RunResult> out;
    out.reserve(reports.size());
    for (const auto &rep : reports) {
        if (rep.status.code == RunStatus::Code::Timeout)
            fatal("grid cell '", rep.label, "' exceeded its deadline: ",
                  rep.status.message,
                  " (raise ExecPolicy::deadlineSeconds or drop it)");
        if (!rep.status.ok())
            fatal("grid cell '", rep.label, "' failed: ",
                  rep.status.message);
        out.push_back(rep.result);
    }
    return out;
}

Table1Row
table1Row(const ProgramMeasurement &m)
{
    Table1Row r;
    r.program = m.program;
    uint64_t offTotal = m.off.stats.total;
    // The added cost of each checking category, relative to the
    // unchecked execution time (Table 1's columns).
    r.arith = pct(m.full.stats.catChecking(CheckCat::Arith), offTotal);
    r.vector = pct(m.full.stats.catChecking(CheckCat::Vector), offTotal);
    r.list = pct(m.full.stats.catChecking(CheckCat::List), offTotal);
    r.total = pct(m.full.stats.total, offTotal) - 100.0;
    return r;
}

Figure1Bars
figure1Bars(const ProgramMeasurement &m)
{
    Figure1Bars f;
    for (int i = 0; i < fig1Ops; ++i) {
        Purpose p = fig1Purpose(i);
        f.withoutRtc[i] = pct(m.off.stats.purposeTotal(p),
                              m.off.stats.total);
        int pi = static_cast<int>(p);
        f.addedByRtc[i] = pct(m.full.stats.byPurpose[pi][1],
                              m.full.stats.total);
        f.withRtc[i] = pct(m.full.stats.purposeTotal(p),
                           m.full.stats.total);
        f.totalWithout += f.withoutRtc[i];
        f.totalWith += f.withRtc[i];
    }
    return f;
}

Figure1Bars
figure1Average(const std::vector<ProgramMeasurement> &ms)
{
    Figure1Bars avg;
    if (ms.empty())
        return avg;
    for (const auto &m : ms) {
        Figure1Bars f = figure1Bars(m);
        for (int i = 0; i < fig1Ops; ++i) {
            avg.withoutRtc[i] += f.withoutRtc[i];
            avg.addedByRtc[i] += f.addedByRtc[i];
            avg.withRtc[i] += f.withRtc[i];
        }
        avg.totalWithout += f.totalWithout;
        avg.totalWith += f.totalWith;
    }
    double n = static_cast<double>(ms.size());
    for (int i = 0; i < fig1Ops; ++i) {
        avg.withoutRtc[i] /= n;
        avg.addedByRtc[i] /= n;
        avg.withRtc[i] /= n;
    }
    avg.totalWithout /= n;
    avg.totalWith /= n;
    return avg;
}

Figure2Data
figure2Data(const RunResult &base, const RunResult &noMask)
{
    Figure2Data d;
    uint64_t denom = base.stats.total;
    auto delta = [&](uint64_t a, uint64_t b) {
        return 100.0 * (static_cast<double>(a) - static_cast<double>(b)) /
               static_cast<double>(denom ? denom : 1);
    };
    d.andOps = delta(base.stats.andOps, noMask.stats.andOps);
    d.moveOps = delta(base.stats.moveOps, noMask.stats.moveOps);
    d.noops = delta(base.stats.noops + base.stats.loadStalls,
                    noMask.stats.noops + noMask.stats.loadStalls);
    d.squashed = delta(base.stats.squashed, noMask.stats.squashed);
    d.total = delta(base.stats.total, noMask.stats.total);
    return d;
}

Table2Cell
table2Cell(const RunResult &base, const RunResult &cfg)
{
    Table2Cell c;
    uint64_t denom = base.stats.total;
    auto delta = [&](uint64_t a, uint64_t b) {
        return 100.0 * (static_cast<double>(a) - static_cast<double>(b)) /
               static_cast<double>(denom ? denom : 1);
    };
    c.total = delta(base.stats.total, cfg.stats.total);
    c.mask = delta(base.stats.purposeTotal(Purpose::TagRemove),
                   cfg.stats.purposeTotal(Purpose::TagRemove));
    uint64_t baseCheck = base.stats.purposeTotal(Purpose::TagExtract) +
                         base.stats.purposeTotal(Purpose::TagCheck) +
                         base.stats.purposeTotal(Purpose::OtherCheck);
    uint64_t cfgCheck = cfg.stats.purposeTotal(Purpose::TagExtract) +
                        cfg.stats.purposeTotal(Purpose::TagCheck) +
                        cfg.stats.purposeTotal(Purpose::OtherCheck);
    c.check = delta(baseCheck, cfgCheck);
    return c;
}

Json
cycleStatsJson(const CycleStats &s)
{
    Json j = Json::object();
    j.set("total", s.total);
    j.set("instructions", s.instructions);
    Json purposes = Json::object();
    for (int p = 0; p < numPurposes; ++p) {
        if (s.byPurpose[p][0] == 0 && s.byPurpose[p][1] == 0)
            continue;
        Json split = Json::object();
        split.set("base", s.byPurpose[p][0]);
        split.set("checking", s.byPurpose[p][1]);
        purposes.set(purposeName(static_cast<Purpose>(p)),
                     std::move(split));
    }
    j.set("byPurpose", std::move(purposes));
    Json cats = Json::object();
    for (int c = 0; c < numCheckCats; ++c) {
        if (s.byCat[c][0] == 0 && s.byCat[c][1] == 0)
            continue;
        Json split = Json::object();
        split.set("base", s.byCat[c][0]);
        split.set("checking", s.byCat[c][1]);
        cats.set(checkCatName(static_cast<CheckCat>(c)),
                 std::move(split));
    }
    j.set("byCat", std::move(cats));
    j.set("andOps", s.andOps);
    j.set("moveOps", s.moveOps);
    j.set("noops", s.noops);
    j.set("squashed", s.squashed);
    j.set("loadStalls", s.loadStalls);
    j.set("loads", s.loads);
    j.set("stores", s.stores);
    j.set("branches", s.branches);
    return j;
}

Json
compilerOptionsJson(const CompilerOptions &o)
{
    Json j = Json::object();
    j.set("scheme", schemeKindName(o.scheme));
    j.set("checking", o.checking == Checking::Full ? "full" : "off");
    j.set("arithMode", static_cast<int64_t>(o.arithMode));
    j.set("ignoreTagOnMemory", o.hw.ignoreTagOnMemory);
    j.set("branchOnTag", o.hw.branchOnTag);
    j.set("genericArith", o.hw.genericArith);
    j.set("checkedMemory", static_cast<int64_t>(o.hw.checkedMemory));
    j.set("memTagging", o.hw.memTagging);
    j.set("fillDelaySlots", o.fillDelaySlots);
    j.set("overlapChecks", o.overlapChecks);
    j.set("verifyLinked", o.verifyLinked);
    j.set("memBytes", o.memBytes);
    j.set("staticBytes", o.staticBytes);
    j.set("heapBytes", o.heapBytes);
    return j;
}

Json
runReportJson(const RunRequest &req, const RunReport &rep)
{
    Json j = Json::object();
    j.set("label", rep.label);
    j.set("options", compilerOptionsJson(req.opts));
    j.set("statusOk", rep.status.ok());
    if (!rep.status.ok())
        j.set("statusMessage", rep.status.message);
    j.set("stop", static_cast<int64_t>(rep.result.stop));
    j.set("errorCode", rep.result.errorCode);
    j.set("exitValue", rep.result.exitValue);
    j.set("stats", cycleStatsJson(rep.result.stats));
    j.set("wallSeconds", rep.wallSeconds);
    j.set("cacheHit", rep.cacheHit);
    j.set("backend", backendName(rep.backend));
    if (rep.backendFellBack)
        j.set("backendNote", rep.backendNote);
    return j;
}

Json
gridJson(const std::vector<RunRequest> &reqs,
         const std::vector<RunReport> &reports)
{
    MXL_ASSERT(reqs.size() == reports.size(),
               "gridJson: requests and reports must pair up");
    Json arr = Json::array();
    for (size_t i = 0; i < reqs.size(); ++i)
        arr.push(runReportJson(reqs[i], reports[i]));
    return arr;
}

Table2Cell
table2Average(const std::vector<RunResult> &bases,
              const std::vector<RunResult> &cfgs)
{
    MXL_ASSERT(bases.size() == cfgs.size() && !bases.empty(),
               "mismatched measurement sets");
    Table2Cell avg;
    for (size_t i = 0; i < bases.size(); ++i) {
        Table2Cell c = table2Cell(bases[i], cfgs[i]);
        avg.total += c.total;
        avg.check += c.check;
        avg.mask += c.mask;
    }
    double n = static_cast<double>(bases.size());
    avg.total /= n;
    avg.check /= n;
    avg.mask /= n;
    return avg;
}

} // namespace mxl
