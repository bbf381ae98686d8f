/**
 * @file
 * The measurement service's wire protocol: requests and responses
 * carried in length-prefixed frames (support/frame.h), and the
 * grid-cell codec.
 *
 * Every message between a client and mxl-served — and between the
 * server and its forked workers — is one frame whose payload is a
 * single-line JSON object (the same compact dump the campaign journal
 * uses, support/json.h).
 *
 * Client requests ("type" selects the verb):
 *
 *   {"type":"grid","id":<string>,"traceId":<string>,
 *    "deadlineMs":<int>,"cells":[CELL...]}
 *       Run a measurement grid. Per-cell results stream back as they
 *       finish; the terminal response is "done" (or "overloaded" /
 *       "error" — every request gets exactly one terminal response).
 *       deadlineMs (optional) propagates into each cell's
 *       ExecPolicy::deadlineSeconds and bounds the whole request.
 *       traceId (optional; ServeClient stamps one via makeTraceId()
 *       when the caller doesn't) names the request in the service
 *       trace: the server threads it through admission, dispatch and
 *       the worker task frames, so every span the request produces —
 *       parent-side and inside the forked worker — carries it
 *       (args.traceId in the merged Perfetto trace, docs/SERVICE.md).
 *   {"type":"health"}
 *       One "health" response: the server's MetricsRegistry snapshot
 *       plus pool/queue state.
 *   {"type":"ping"}    -> {"type":"pong"}
 *
 * Server responses:
 *
 *   {"type":"cell","id":...,"index":i,"report":{...}}   one per cell
 *   {"type":"done","id":...,"cells":n,"failed":m}       terminal
 *   {"type":"overloaded","id":...,"retryAfterMs":n,...} terminal
 *   {"type":"error","id":...,"message":...}             terminal
 *   {"type":"health","metrics":{...},...}
 *
 * A CELL object names one RunRequest:
 *
 *   {"label":...,               echoed in the cell's report
 *    "source":"(print ...)" |   MX-Lisp top-level forms, or
 *    "program":"boyer",         a built-in benchmark by name
 *    "options":{...},           compilerOptionsJson fields (all
 *                               optional; defaults = CompilerOptions)
 *    "maxCycles":n, "deadlineMs":n, "backend":"auto|interpreter|
 *    "translated", "installTrapHandlers":b,
 *    "fault":{"class":...,"seed":...,"pause":...}}  optional fault
 *                               injection (campaign traffic: the
 *                               client classifies against its golden);
 *                               every live-run class (call-arg-type,
 *                               heap-*, stack-*) needs a nonzero pause
 *
 * parseCell() is the single decoder both the server's admission path
 * and the forked workers use, so a cell that admits always parses in
 * the worker too.
 */

#ifndef MXLISP_SERVE_WIRE_H_
#define MXLISP_SERVE_WIRE_H_

#include <cstdint>
#include <string>

#include "core/engine.h"
#include "support/frame.h"
#include "support/json.h"

namespace mxl {

/**
 * A fresh request trace id: "t" + 16 hex digits, unique across
 * processes and calls (per-process random base XOR a golden-ratio
 * stride per call). Stamped by ServeClient on every grid request and
 * by the server for requests that arrive without one.
 */
std::string makeTraceId();

/** Decoded form of one wire CELL object (see file comment). */
struct WireCell
{
    RunRequest request;
    bool hasFault = false; ///< request.hooks carries an armed fault
};

/**
 * Decode a CELL object into a RunRequest (label, source, options,
 * exec policy, optional armed fault). False with @p err set on a
 * malformed cell — unknown program/scheme/class names, missing
 * source, non-object input. Unknown keys are ignored (forward
 * compatibility).
 */
bool parseCell(const Json &cell, WireCell *out, std::string *err);

/**
 * The per-cell report object inside a "cell" response: statusOk,
 * status/stop/errorCode/exitValue, stats totals, backend, wall time.
 * A worker-death report is synthesized with statusOk=false and a
 * "workerDeath" object instead (support/procpool.h).
 */
Json reportToJson(const RunReport &rep);

} // namespace mxl

#endif // MXLISP_SERVE_WIRE_H_
