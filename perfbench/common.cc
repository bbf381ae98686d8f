#include "common.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <sched.h>

#include "core/experiment.h"
#include "exec/texec.h"
#include "programs/programs.h"
#include "runtime/lisplib.h"
#include "runtime/syslisp.h"
#include "sexpr/reader.h"

using namespace mxl;

namespace perfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(p * double(v.size() + 1), 1.0,
                                  double(v.size())); // 1-based
    const size_t lo = static_cast<size_t>(pos);
    if (lo >= v.size())
        return v.back();
    return v[lo - 1] + (pos - double(lo)) * (v[lo] - v[lo - 1]);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double>
fastestRepeats(const std::map<std::string, std::vector<double>> &repeats)
{
    std::vector<double> out;
    for (const auto &[label, ms] : repeats)
        if (!ms.empty())
            out.push_back(*std::min_element(ms.begin(), ms.end()));
    return out;
}

double
medianWindowRate(const std::vector<double> &ends, double t0, double wall,
                 int windows)
{
    if (!(wall > 0) || windows < 1)
        return 0;
    const double len = wall / windows;
    std::vector<double> rates(static_cast<size_t>(windows), 0.0);
    for (double e : ends) {
        const int w = static_cast<int>((e - t0) / len);
        rates[static_cast<size_t>(std::clamp(w, 0, windows - 1))] += 1;
    }
    for (double &r : rates)
        r /= len;
    return median(rates);
}

void
MetricSink::add(const std::string &name, double value,
                const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

Json
MetricSink::result(bool correct, uint64_t attempted, uint64_t failed) const
{
    Json m = Json::object();
    for (const auto &[name, vu] : metrics_) {
        Json one = Json::object();
        one.set("value", std::isfinite(vu.first) ? vu.first : 0.0);
        one.set("unit", vu.second);
        m.set(name, std::move(one));
    }
    Json r = Json::object();
    r.set("correct", correct);
    r.set("attempted", attempted);
    r.set("failed", failed);
    r.set("metrics", std::move(m));
    return r;
}

double
peakRssMb(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

// ---- oracle --------------------------------------------------------

std::string
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
    return buf;
}

Expected
expectedOf(const RunResult &r)
{
    Expected e;
    e.outputHash = fnv1a(r.output);
    e.outputBytes = r.output.size();
    e.stop = static_cast<int64_t>(r.stop);
    e.errorCode = r.errorCode;
    e.exitValue = r.exitValue;
    e.stats = r.stats;
    return e;
}

namespace {

// CycleStats as a flat array in declaration order; the reference file
// stores it this way.
std::vector<uint64_t>
flatStats(const CycleStats &s)
{
    std::vector<uint64_t> v{s.total, s.instructions};
    for (const auto &p : s.byPurpose)
        v.insert(v.end(), {p[0], p[1]});
    for (const auto &c : s.byCat)
        v.insert(v.end(), {c[0], c[1]});
    v.insert(v.end(), {s.andOps, s.moveOps, s.noops, s.squashed,
                       s.loadStalls, s.loads, s.stores, s.branches});
    return v;
}

bool
unflatStats(const std::vector<uint64_t> &v, CycleStats *s)
{
    if (v.size() != flatStats(CycleStats{}).size())
        return false;
    size_t i = 0;
    s->total = v[i++];
    s->instructions = v[i++];
    for (auto &p : s->byPurpose)
        for (auto &x : p)
            x = v[i++];
    for (auto &c : s->byCat)
        for (auto &x : c)
            x = v[i++];
    for (uint64_t *f : {&s->andOps, &s->moveOps, &s->noops, &s->squashed,
                        &s->loadStalls, &s->loads, &s->stores,
                        &s->branches})
        *f = v[i++];
    return true;
}

} // namespace

Json
expectedJson(const Expected &e)
{
    Json j = Json::object();
    j.set("output", e.outputHash);
    j.set("outputBytes", e.outputBytes);
    j.set("stop", e.stop);
    j.set("errorCode", e.errorCode);
    j.set("exitValue", e.exitValue);
    Json st = Json::array();
    for (uint64_t x : flatStats(e.stats))
        st.push(x);
    j.set("stats", std::move(st));
    return j;
}

bool
Reference::load(const std::string &path, std::string *err)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    Json doc;
    if (!in || !Json::parse(ss.str(), &doc) || !doc.isObject()) {
        *err = "cannot read reference file " + path;
        return false;
    }
    const Json *cells = doc.find("cells");
    if (!cells || !cells->isObject()) {
        *err = "reference file has no 'cells' object";
        return false;
    }
    for (size_t i = 0; i < cells->size(); ++i) {
        const auto &[label, j] = cells->entry(i);
        Expected e;
        const Json *st = j.find("stats");
        std::vector<uint64_t> flat;
        for (size_t k = 0; st && k < st->size(); ++k)
            flat.push_back(st->at(k).asUint());
        const Json *out = j.find("output");
        if (!out || !unflatStats(flat, &e.stats)) {
            *err = "malformed reference cell " + label;
            return false;
        }
        e.outputHash = out->str();
        e.outputBytes = j.find("outputBytes")->asUint();
        e.stop = j.find("stop")->asInt();
        e.errorCode = j.find("errorCode")->asInt();
        e.exitValue = j.find("exitValue")->asUint();
        cells_[label] = e;
    }
    return true;
}

const Expected *
Reference::find(const std::string &label) const
{
    auto it = cells_.find(label);
    return it == cells_.end() ? nullptr : &it->second;
}

std::string
compareFull(const Expected &want, const RunResult &got)
{
    Expected g = expectedOf(got);
    if (g.outputHash != want.outputHash || g.outputBytes != want.outputBytes)
        return "output differs";
    if (g.stop != want.stop || g.errorCode != want.errorCode ||
        g.exitValue != want.exitValue)
        return "stop/error/exit differs";
    if (!(g.stats == want.stats))
        return "CycleStats differ (total " + std::to_string(g.stats.total) +
               " want " + std::to_string(want.stats.total) + ")";
    return "";
}

// ---- cycle attribution ---------------------------------------------

void
CycleTotals::add(const CycleStats &s)
{
    total += s.total;
    for (int p = 0; p < numPurposes; ++p)
        byPurpose[p] += s.purposeTotal(static_cast<Purpose>(p));
    loadStalls += s.loadStalls;
    squashed += s.squashed;
}

uint64_t
CycleTotals::tagCycles() const
{
    return byPurpose[int(Purpose::TagInsert)] +
           byPurpose[int(Purpose::TagRemove)] +
           byPurpose[int(Purpose::TagExtract)] +
           byPurpose[int(Purpose::TagCheck)];
}

double
CycleTotals::tagPct() const
{
    return total ? 100.0 * double(tagCycles()) / double(total) : 0.0;
}

// ---- ledger --------------------------------------------------------

bool
withinTolerance(const CellLedger &c, double share, double floorMs)
{
    const double rest = c.unattributed();
    return rest >= -0.05 && rest <= std::max(share * c.wallMs, floorMs);
}

bool
writeCheckedTrace(const TraceRecorder &rec, const std::string &path,
                  const std::vector<std::string> &layers, std::string *err)
{
    if (!rec.writeFile(path)) {
        *err = "cannot write " + path;
        return false;
    }
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    Json doc;
    if (!Json::parse(ss.str(), &doc) || !doc.isArray()) {
        *err = path + " is not a JSON array";
        return false;
    }
    std::set<std::string> cats;
    for (size_t i = 0; i < doc.size(); ++i) {
        const Json &e = doc.at(i);
        for (const char *k : {"name", "ph", "ts", "pid", "tid"})
            if (!e.find(k)) {
                *err = path + ": event without '" + k + "'";
                return false;
            }
        if (e.find("ph")->str() == "X") {
            // The engine's own spans name their layer by category.
            const Json *cat = e.find("cat");
            const std::string c = cat ? cat->str() : "";
            std::string layer = c.substr(0, c.find('/'));
            if (c == "engine/translated")
                layer = "exec";
            else if (c == "engine/interpreter")
                layer = "machine";
            else if (layer == "engine")
                layer = "core";
            cats.insert(layer);
        }
    }
    for (const std::string &l : layers)
        if (!cats.count(l)) {
            *err = path + ": no span for layer '" + l + "'";
            return false;
        }
    return true;
}

PipelineProfile
profilePipeline(const std::vector<RunRequest> &units, TraceRecorder &rec)
{
    struct One
    {
        uint64_t read = 0, compile = 0, translate = 0, words = 0;
        bool refused = false;
    };
    std::vector<One> per(units.size());
    parallelFor(units.size(), hostThreads(), [&](size_t i, int tid) {
        const RunRequest &u = units[i];
        uint64_t t0 = rec.nowMicros();
        {
            // The reader's share of compileUnit: every text it parses.
            SxArena arena;
            readAll(arena, lispLibSource());
            readAll(arena, gcSource());
            readAll(arena, genericArithSource());
            readAll(arena, u.source);
        }
        uint64_t t1 = rec.nowMicros();
        CompiledUnit unit = compileUnit(u.source, u.opts);
        uint64_t t2 = rec.nowMicros();
        TranslateResult tr = translateUnit(unit);
        uint64_t t3 = rec.nowMicros();
        rec.complete("read", "sexpr", tid, t0, t1 - t0, u.label);
        rec.complete("compileUnit", "compiler", tid, t1, t2 - t1, u.label);
        rec.complete("translateUnit", "exec", tid, t2, t3 - t2, u.label);
        per[i] = {t1 - t0, t2 - t1, t3 - t2,
                  static_cast<uint64_t>(unit.objectWords), !tr.unit};
    });
    PipelineProfile p;
    for (const One &o : per) {
        p.readMs += o.read / 1e3;
        p.compileMs += o.compile / 1e3;
        p.translateMs += o.translate / 1e3;
        p.objectWords += o.words;
        p.refusals += o.refused;
    }
    if (!per.empty()) {
        p.readMs /= double(per.size());
        p.compileMs /= double(per.size());
        p.translateMs /= double(per.size());
    }
    return p;
}

uint64_t
counterDelta(const Json &before, const Json &after, const std::string &name)
{
    auto get = [&](const Json &s) -> uint64_t {
        const Json *c = s.find("counters");
        const Json *v = c ? c->find(name) : nullptr;
        return v ? v->asUint() : 0;
    };
    return get(after) - get(before);
}

// ---- workloads -----------------------------------------------------

std::vector<RunRequest>
paperGridCells()
{
    std::vector<RunRequest> cells;
    const std::vector<Table2Config> rows = table2Configs();
    for (const BenchmarkProgram &bp : benchmarkPrograms())
        for (Checking ck : {Checking::Off, Checking::Full}) {
            std::vector<std::pair<std::string, CompilerOptions>> cfgs{
                {"base", baselineOptions(ck)}};
            for (const Table2Config &r : rows)
                cfgs.push_back({r.id, r.withChecking(ck)});
            for (auto &[id, opts] : cfgs) {
                RunRequest q;
                q.source = bp.source;
                q.opts = opts;
                q.opts.heapBytes = bp.heapBytes;
                q.exec.maxCycles = bp.maxCycles;
                q.label = bp.name + "/" + id + "/" +
                          (ck == Checking::Full ? "full" : "off");
                cells.push_back(std::move(q));
            }
        }
    return cells;
}

std::vector<RunRequest>
ladderUnits()
{
    std::vector<RunRequest> units;
    for (const BenchmarkProgram &bp : benchmarkPrograms()) {
        RunRequest q;
        q.source = bp.source;
        q.opts = baselineOptions(Checking::Full);
        q.opts.heapBytes = bp.heapBytes;
        q.exec.maxCycles = bp.maxCycles;
        q.label = bp.name;
        units.push_back(std::move(q));
    }
    return units;
}

namespace {

// bench_serve's source cells: (print (+ a c)) with a = seq % 7 and c
// the cell's index in its request.
constexpr size_t kAddends = 7, kMaxSourceCells = 3;
constexpr size_t kProgramCell = kAddends * kMaxSourceCells;

} // namespace

std::vector<DeckCell>
servedDeck()
{
    std::vector<DeckCell> deck;
    for (size_t a = 0; a < kAddends; ++a)
        for (size_t c = 0; c < kMaxSourceCells; ++c) {
            const std::string label =
                "add:" + std::to_string(a) + ":" + std::to_string(c);
            Json cell = Json::object();
            cell.set("label", label);
            cell.set("source", "(print (+ " + std::to_string(a) + " " +
                                   std::to_string(c) + "))");
            deck.push_back({label, std::move(cell)});
        }
    Json cell = Json::object();
    cell.set("label", "prog:inter");
    cell.set("program", "inter");
    deck.push_back({"prog:inter", std::move(cell)});
    return deck;
}

std::vector<size_t>
servedRequest(uint64_t seq)
{
    std::vector<size_t> cells;
    for (size_t c = 0; c < 1 + seq % kMaxSourceCells; ++c)
        cells.push_back(seq % kAddends * kMaxSourceCells + c);
    if (seq % 4 == 0)
        cells.push_back(kProgramCell);
    return cells;
}

void
parallelFor(size_t n, unsigned threads,
            const std::function<void(size_t, int)> &fn)
{
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::max(1u, threads); ++t)
        pool.emplace_back([&, t] {
            for (size_t i; (i = next.fetch_add(1)) < n;)
                fn(i, static_cast<int>(t) + 1);
        });
    for (std::thread &t : pool)
        t.join();
}

unsigned
hostThreads()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

} // namespace perfbench
