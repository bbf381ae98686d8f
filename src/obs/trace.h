/**
 * @file
 * Chrome trace-event export: per-worker spans of an engine grid or
 * fault campaign, loadable in chrome://tracing or Perfetto.
 *
 * The recorder collects complete ('X') and instant ('i') events with
 * microsecond timestamps relative to its own epoch and serializes them
 * as the trace-event JSON array format — each event an object with at
 * least {name, ph, ts, pid, tid} — through support/json.h, so the file
 * both loads in the standard viewers and round-trips through our own
 * parser (the bench harnesses' acceptance path relies on this).
 *
 * Lanes: every event carries a *lane*, serialized as the Chrome
 * `pid`. A recorder stamps its current lane (default 1) on each event
 * it records, so recorders living in different processes — the served
 * engine's forked workers — keep their events on distinct Perfetto
 * process tracks after merging, even though their thread ids (engine
 * worker indices, 0..N in every process) collide. setLane() picks the
 * lane, nameLane() attaches a human-readable process_name metadata
 * record, and drainJson()/importJson() move events across the fork
 * boundary: the child drains its recorder into the result-pipe
 * payload, the parent imports the events verbatim (lanes, tids and
 * trace ids intact) into the service-wide recorder. CLOCK_MONOTONIC
 * is system-wide on Linux, so child timestamps recorded against a
 * fork-inherited epoch merge onto the parent timeline directly;
 * alignEpoch() pins two recorders to the same epoch explicitly.
 *
 * Threading: record from any thread; a mutex guards the event vector.
 * Events are sorted by timestamp at serialization time, so completion-
 * order recording from a worker pool still yields a monotone trace.
 * Recording costs a steady_clock read plus a short critical section —
 * fine at grid-cell granularity (events per cell, not per simulated
 * instruction).
 *
 * Attach a recorder to an engine with Engine::setTrace(); see
 * docs/OBSERVABILITY.md for the span vocabulary (compile / run /
 * pause / trial) and how to open a trace in Perfetto.
 */

#ifndef MXLISP_OBS_TRACE_H_
#define MXLISP_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/json.h"

namespace mxl {

class TraceRecorder
{
  public:
    TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    /** Microseconds since this recorder's construction. */
    uint64_t nowMicros() const;

    /**
     * The Perfetto process track (`pid`) stamped on events recorded
     * from now on. Default 1. The serve layer uses 1 for the server
     * process and 2 + worker-slot inside each forked worker, so
     * merged traces render one lane per worker.
     */
    void setLane(int64_t lane);
    int64_t lane() const;

    /** Adopt @p other's epoch so the two recorders share a timeline
     *  (their nowMicros() values become directly comparable). */
    void alignEpoch(const TraceRecorder &other);

    /** Attach a process_name metadata record to @p lane — shown as
     *  the Perfetto track title. */
    void nameLane(int64_t lane, const std::string &name);

    /**
     * A complete ('X') event: a span of @p durMicros starting at
     * @p tsMicros on track @p tid (0 = the calling/inline thread,
     * 1..N = engine workers). @p arg, when nonempty, lands in
     * args.label — the grid cell or trial the span belongs to —
     * and @p traceId in args.traceId (the request the span serves).
     */
    void complete(const std::string &name, const std::string &cat,
                  int tid, uint64_t tsMicros, uint64_t durMicros,
                  const std::string &arg = "",
                  const std::string &traceId = "");

    /** An instant ('i') event at now() on track @p tid. */
    void instant(const std::string &name, const std::string &cat,
                 int tid, const std::string &arg = "",
                 const std::string &traceId = "");

    size_t size() const;

    /**
     * Remove and return every recorded event as a compact JSON array
     * (field names: name/cat/ph/lane/tid/ts/dur/arg/trace, empty
     * strings omitted) — the result-pipe relay format, re-absorbed by
     * importJson(). Events without a trace id get @p fillTraceId:
     * workers run one cell at a time, so everything drained after a
     * cell belongs to that cell's request.
     */
    Json drainJson(const std::string &fillTraceId = "");

    /** Append events produced by another recorder's drainJson(),
     *  keeping their lanes, tids, timestamps and trace ids. */
    void importJson(const Json &events);

    /**
     * The trace as a JSON array of event objects, sorted by
     * (ts, lane, tid), each with name/cat/ph/ts/dur(X only)/pid/tid
     * and optional args (label, traceId). Lane names registered via
     * nameLane() lead the array as process_name 'M' metadata records.
     */
    Json toJson() const;

    /** Serialize to @p path (pretty-printed). False on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct Event
    {
        std::string name;
        std::string cat;
        char ph;
        int64_t lane;
        int tid;
        uint64_t ts;
        uint64_t dur;
        std::string arg;
        std::string trace;
    };

    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;
    int64_t lane_ = 1;
    std::vector<Event> events_;
    std::vector<std::pair<int64_t, std::string>> laneNames_;
};

} // namespace mxl

#endif // MXLISP_OBS_TRACE_H_
