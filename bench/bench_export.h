/**
 * @file
 * Shared machine-readable export path for the bench harnesses.
 *
 * Every bench binary writes a BENCH_<name>.json document of the shape
 *     { "bench": "<name>", "grid": [...gridJson cells...],
 *       "gates": [...gate records...], ... ,
 *       "metrics": { engine metrics snapshot } }
 * whose "gates" declare what tools/bench_diff checks (obs/bench_gate.h),
 * and every document is validated — dumped, reparsed through
 * support/json.h's own parser, and re-dumped byte-identically — before
 * the harness reports it written, so a malformed artifact fails the
 * bench run instead of surfacing downstream in tools/bench_diff.
 */

#ifndef MXLISP_BENCH_BENCH_EXPORT_H_
#define MXLISP_BENCH_BENCH_EXPORT_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/report.h"
#include "obs/bench_gate.h"
#include "support/json.h"

namespace mxl {

/** Simulated cycles are deterministic per commit, so by default any
 *  increase of a grid cell's count fails. */
inline Json
cycleGate()
{
    return gateJson("cycles", "grid", "label", "stats.total", GateKind::Lower,
                    0.0);
}

/** The standard bench document: name + grid + gates (+ engine
 *  metrics). */
inline Json
benchDoc(const std::string &bench, Json grid, const Engine *eng = nullptr,
         Json gates = Json::array().push(cycleGate()))
{
    Json doc = Json::object();
    doc.set("bench", bench);
    doc.set("grid", std::move(grid));
    doc.set("gates", std::move(gates));
    if (eng)
        doc.set("metrics", eng->metrics().snapshot());
    return doc;
}

/**
 * The document of a bench whose grid pairs each "<stem>/interpreter"
 * report with the "<stem>/translated" one after it: each pair's cycle
 * counts (a failed side left out) share a "backends" row, which an
 * exact gate holds equal.
 */
inline Json
backendBenchDoc(const std::string &bench, const std::vector<RunRequest> &reqs,
                const std::vector<RunReport> &reports, const Engine &eng)
{
    Json pairs = Json::array();
    for (size_t i = 0; i + 1 < reports.size(); i += 2) {
        const std::string &l = reports[i].label;
        Json row = Json::object().set("label", l.substr(0, l.rfind('/')));
        for (const RunReport *r : {&reports[i], &reports[i + 1]})
            if (r->ok())
                row.set(r->label.substr(r->label.rfind('/') + 1),
                        r->result.stats.total);
        pairs.push(std::move(row));
    }
    Json doc = benchDoc(bench, gridJson(reqs, reports), &eng,
                        Json::array().push(cycleGate()).push(gateJson(
                            "backend cycles", "backends", "label",
                            "interpreter,translated", GateKind::Exact)));
    doc.set("backends", std::move(pairs));
    return doc;
}

/**
 * Validate @p doc's parser round-trip and write BENCH_<name>.json.
 * Prints a PASS/FAIL acceptance line either way; false on failure.
 */
inline bool
writeBenchJson(const std::string &name, const Json &doc)
{
    const std::string path = "BENCH_" + name + ".json";
    if (!Json::roundTrips(doc)) {
        std::printf("FAIL  %s does not round-trip through the JSON "
                    "parser\n",
                    path.c_str());
        return false;
    }
    if (!writeJsonFile(path, doc)) {
        std::printf("FAIL  cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("PASS  wrote %s (round-trip validated)\n", path.c_str());
    return true;
}

/**
 * Write a Chrome trace (obs/trace.h) to BENCH_<name>_trace.json after
 * checking it parses back as a trace-event array: every event an
 * object with at least {name, ph, ts, pid, tid}. False on failure.
 */
inline bool
writeBenchTrace(const std::string &name, const TraceRecorder &trace)
{
    const std::string path = "BENCH_" + name + "_trace.json";
    Json events = trace.toJson();
    Json back;
    bool wellFormed =
        Json::parse(events.dump(1), &back) && back.isArray();
    for (size_t i = 0; wellFormed && i < back.size(); ++i) {
        const Json &e = back.at(i);
        wellFormed = e.isObject() && e.find("name") && e.find("ph") &&
                     e.find("ts") && e.find("pid") && e.find("tid");
    }
    if (!wellFormed) {
        std::printf("FAIL  %s is not a well-formed Chrome trace\n",
                    path.c_str());
        return false;
    }
    if (!writeJsonFile(path, events)) {
        std::printf("FAIL  cannot write %s\n", path.c_str());
        return false;
    }
    std::printf("PASS  wrote %s (%zu events, Chrome trace-event "
                "format)\n",
                path.c_str(), static_cast<size_t>(events.size()));
    return true;
}

} // namespace mxl

#endif // MXLISP_BENCH_BENCH_EXPORT_H_
