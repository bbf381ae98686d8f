#include "obs/bench_gate.h"

#include <fnmatch.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "faults/stats.h"
#include "obs/metrics.h"
#include "support/format.h"

namespace mxl {

namespace {

const char *const kKinds[] = {"lower", "higher", "exact", "wilson",
                              "percentile"};

struct Gate
{
    std::string name, rows, key, value;
    GateKind kind;
    std::optional<double> threshold, floor;
};

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    for (std::string part; std::getline(in, part, sep);)
        out.push_back(part);
    return out;
}

/** The value at dotted @p path below @p j (empty path: @p j itself). */
const Json *
at(const Json &j, const std::string &path)
{
    const Json *cur = &j;
    for (const std::string &part : split(path, '.'))
        cur = cur ? cur->find(part) : nullptr;
    return cur;
}

/** "p95" -> 0.95; 0 unless @p value names a quantile in (0, 1]. */
double
quantile(const std::string &value)
{
    double q = 0;
    char extra;
    int n = std::sscanf(value.c_str(), "p%lf%c", &q, &extra);
    return n == 1 && q > 0 && q <= 100 ? q / 100 : 0;
}

using Rows = std::vector<std::pair<std::string, const Json *>>;

Rows
selectRows(const Json &doc, const Gate &g)
{
    Rows out;
    const Json *rows = at(doc, g.rows);
    for (size_t i = 0; rows && i < rows->size(); ++i) {
        if (rows->isObject()) {
            const auto &[name, row] = rows->entry(i);
            if (fnmatch(g.key.c_str(), name.c_str(), 0) == 0)
                out.emplace_back(name, &row);
            continue;
        }
        std::string name;
        bool named = true;
        for (const std::string &k : split(g.key, ',')) {
            const Json *v = rows->at(i).find(k);
            named = named && v && v->isString();
            name += "/" + (named ? v->str() : std::string());
        }
        if (named && !name.empty())
            out.emplace_back(name.substr(1), &rows->at(i));
    }
    return out;
}

/** @p row's unsigned integer field @p f (how counts are written). */
uint64_t
count(const Json &row, const char *f, bool *ok)
{
    const Json *v = row.find(f);
    *ok = *ok && v && v->type() == Json::Type::Uint;
    return *ok ? v->asUint() : 0;
}

struct Stat
{
    double v = 0;
    Interval ci;
    uint64_t skipped = 0;
    std::string text;
};

/** What @p row contributes to gate @p g; nullopt when unreadable. */
std::optional<Stat>
readStat(const Gate &g, const Json &row)
{
    Stat s;
    bool ok = true;
    if (g.kind == GateKind::Wilson) {
        CoverageCell c;
        uint64_t det = count(row, "detected", &ok);
        uint64_t total = count(row, "total", &ok);
        s.skipped = count(row, "skipped", &ok);
        if (!ok || total > INT_MAX || det > total || s.skipped > total - det)
            return std::nullopt;
        c.detected = static_cast<int>(det);
        c.total = static_cast<int>(total);
        c.skipped = static_cast<int>(s.skipped);
        finishCoverageCell(&c);
        s.v = c.coverage;
        s.ci = c.ci;
        auto pc = [](double v) { return percent(100 * v); };
        s.text = strcat(pc(s.v), " [", pc(s.ci.lo), ", ", pc(s.ci.hi),
                        "] skipped ", s.skipped);
    } else if (g.kind == GateKind::Percentile) {
        // mergeDelta() reads count/sum/max/buckets: all must be counts.
        const Json *buckets = row.find("buckets"), *sum = row.find("sum");
        count(row, "count", &ok);
        count(row, "max", &ok);
        ok = ok && buckets && buckets->isObject() &&
             (!sum || sum->type() == Json::Type::Uint);
        for (size_t i = 0; ok && i < buckets->size(); ++i) {
            const auto &[lo, n] = buckets->entry(i);
            ok = !lo.empty() &&
                 lo.find_first_not_of("0123456789") == std::string::npos &&
                 n.type() == Json::Type::Uint;
        }
        if (!ok)
            return std::nullopt;
        Histogram h;
        h.mergeDelta(row);
        s.v = static_cast<double>(h.percentile(quantile(g.value)));
        s.text = Json(s.v).dump();
    } else {
        const Json *v = at(row, g.value);
        if (!v || !(v->isNumber() || v->type() == Json::Type::Bool))
            return std::nullopt;
        s.v = v->isNumber() ? v->asReal() : v->asBool();
        s.text = v->dump();
    }
    return s;
}

/** @p doc's gate records; false with @p err when none or one is
 *  malformed. */
bool
parseGates(const Json &doc, std::vector<Gate> *out, std::string *err)
{
    const Json *gates = doc.find("gates");
    *err = "declares no gates (expected a \"gates\" array in a "
           "BENCH_*.json export)";
    for (size_t i = 0; gates && gates->isArray() && i < gates->size(); ++i) {
        const Json &r = gates->at(i);
        auto str = [&](const char *f) {
            const Json *v = r.find(f);
            return v && v->isString() ? v->str() : std::string();
        };
        auto k = std::find(std::begin(kKinds), std::end(kKinds), str("kind"));
        Gate g{str("name"), str("rows"), str("key"), str("value"),
               static_cast<GateKind>(k - kKinds), {}, {}};
        bool ok = k != std::end(kKinds) &&
                  (g.kind == GateKind::Exact
                       ? split(g.value, ',').size() == 2
                       : g.value.find(',') == std::string::npos) &&
                  (g.kind != GateKind::Percentile || quantile(g.value) > 0);
        for (auto [f, dst] :
             {std::pair{"threshold", &g.threshold}, {"floor", &g.floor}})
            if (const Json *v = r.find(f)) {
                ok = ok && v->isNumber() && std::isfinite(v->asReal()) &&
                     v->asReal() >= 0;
                *dst = v->asReal();
            }
        if (!ok) {
            *err = strcat("gate ", i, " is malformed: ", r.dump());
            return false;
        }
        out->push_back(std::move(g));
    }
    return !out->empty();
}

} // namespace

Json
gateJson(const std::string &name, const std::string &rows,
         const std::string &key, const std::string &value, GateKind kind,
         std::optional<double> threshold, std::optional<double> floor)
{
    Json r = Json::object();
    r.set("name", name).set("rows", rows).set("key", key);
    r.set("value", value).set("kind", kKinds[static_cast<int>(kind)]);
    if (threshold)
        r.set("threshold", *threshold);
    if (floor)
        r.set("floor", *floor);
    return r;
}

GateVerdict
evaluateGates(const Json &before, const Json &after,
              std::optional<double> thresholdPct,
              const std::string &beforeName, const std::string &afterName)
{
    auto failedRow = [](const Json &row) {
        const Json *ok = row.find("statusOk");
        return ok && !ok->asBool(true);
    };
    GateVerdict out;
    std::vector<Gate> gates;
    std::string err;
    if (!parseGates(before, &gates, &err))
        return {2, "", beforeName + " " + err};

    size_t failedGates = 0;
    for (const Gate &g : gates) {
        const Rows b = selectRows(before, g), a = selectRows(after, g);
        if (b.empty() || a.empty())
            return {2, out.report,
                    strcat(b.empty() ? beforeName : afterName, ": gate '",
                           g.name, "' selects no rows (", g.rows, " by ",
                           g.key, ")")};
        auto named = [](const std::string &n) {
            return [&n](const auto &row) { return row.first == n; };
        };
        const double t = g.threshold ? thresholdPct.value_or(*g.threshold)
                                     : 0;
        const std::vector<std::string> pair = split(g.value, ',');
        auto line = [&](const char *status, const std::string &row,
                        const std::string &detail) {
            out.report += strcat(padRight(status, 6), padRight(g.name, 15),
                                 " ", padRight(row, 27), " ", detail, "\n");
        };
        size_t failed = 0;
        for (const auto &[name, brow] : b) {
            if (failedRow(*brow)) {
                line("SKIP", name, "failed in " + beforeName);
                continue;
            }
            std::optional<Stat> bs, as;
            if (g.kind != GateKind::Exact && !(bs = readStat(g, *brow)))
                return {2, out.report,
                        strcat(beforeName, ": gate '", g.name, "' row '",
                               name, "' has no readable ", g.value)};
            auto it = std::find_if(a.begin(), a.end(), named(name));
            const Json *arow = it == a.end() ? nullptr : it->second;
            std::string detail = "no readable " + g.value + " in " +
                                 afterName;
            bool fail = true;
            if (!arow) {
                detail = "missing in " + afterName;
            } else if (failedRow(*arow)) {
                detail = "failed in " + afterName;
            } else if (g.kind == GateKind::Exact) {
                const Json *x = at(*arow, pair[0]), *y = at(*arow, pair[1]);
                fail = !x || !y || x->dump() != y->dump();
                if (x && y)
                    detail = strcat(g.value, ": ", x->dump(),
                                    fail ? " != " : " == ", y->dump());
            } else if ((as = readStat(g, *arow))) {
                const Stat &x = *bs, &y = *as;
                const double f = g.floor.value_or(0);
                fail = g.kind == GateKind::Wilson
                           ? y.ci.hi < x.ci.lo || y.skipped > x.skipped
                       : g.kind == GateKind::Higher
                           ? y.v < x.v * (1 - t / 100) && y.v < x.v - f
                           : y.v > x.v * (1 + t / 100) && y.v > x.v + f;
                const double pct =
                    x.v ? 100 * (y.v - x.v) / x.v : y.v ? 100 : 0;
                detail = strcat(x.text, " -> ", y.text, " (",
                                pct == 0 ? "=" : strcat(pct > 0 ? "+" : "",
                                                        fixed(pct, 2), "%"),
                                ")");
            }
            line(fail ? "FAIL" : "OK", name, detail);
            failed += fail;
        }
        for (const auto &[name, arow] : a)
            if (std::none_of(b.begin(), b.end(), named(name)))
                line("NEW", name, "only in " + afterName + "; not gated");
        failedGates += failed > 0;
        out.report += strcat(
            failed ? "FAIL" : "PASS", "  gate ", g.name, " (",
            kKinds[static_cast<int>(g.kind)],
            g.threshold ? ", threshold " + fixed(t, 2) + "%" : "",
            g.floor ? ", floor " + Json(*g.floor).dump() : "", "): ", failed,
            " of ", b.size(), " row(s) failed\n\n");
    }
    std::vector<Gate> afterGates;
    parseGates(after, &afterGates, &err);
    for (const Gate &n : afterGates)
        if (std::none_of(gates.begin(), gates.end(),
                         [&](const Gate &g) { return g.name == n.name; }))
            out.report += "NEW   gate " + n.name + " only in " + afterName +
                          "; not evaluated\n";
    out.report += strcat(failedGates ? "FAIL" : "PASS", "  ",
                         gates.size() - failedGates, " of ", gates.size(),
                         " gate(s) passed\n");
    out.exitCode = failedGates ? 1 : 0;
    return out;
}

} // namespace mxl
