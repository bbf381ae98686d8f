/**
 * @file
 * The crash-isolated process pool: persistent forked workers, one task
 * in flight per worker.
 *
 * Two subsystems run untrusted work here. The measurement service
 * (serve/server.h) executes clients' grid cells, and fault campaigns
 * (faults/campaign.h) execute trials of deliberately corrupted machine
 * state. Both need the same containment, and this pool is the one
 * place it lives:
 *
 *  - N long-lived workers, each fed one task at a time over a socket
 *    pair: the parent writes the task as a frame (support/frame.h) and
 *    polls the result channel for the one result frame;
 *  - because only one task is in flight per worker, a worker that dies
 *    (signal, _exit, OOM kill) indicts exactly the task it was running:
 *    the death is detected by EOF, reaped, and that task reported
 *    through onFailure with the death evidence (signal number, or hang
 *    when the kill was ours) — a task is never silently lost, and the
 *    caller decides whether to re-dispatch it;
 *  - a worker that stops answering past its task's watchdog deadline
 *    is SIGKILLed (evidence: hang) — one stuck task cannot pin a slot;
 *  - dead slots respawn with bounded exponential backoff (a
 *    crash-looping host gets breathing room, a one-off death gets a
 *    fresh worker immediately); respawned workers inherit the parent
 *    engine's compiled-unit cache copy-on-write via childInit
 *    (Engine::postFork), so they come up warm;
 *  - when fork itself fails kMaxSpawnFailures times in a row the
 *    circuit breaker opens (degraded() == true) and stays open: the
 *    caller stops dispatching here and executes tasks in-process —
 *    graceful degradation instead of a spin of doomed forks;
 *  - the parent's writes never raise SIGPIPE, whatever the process's
 *    SIGPIPE disposition: a worker that died idle surfaces as a failed
 *    write, which reaps it.
 *
 * The pool owns no threads. It is driven by the caller's poll loop:
 * collectFds() contributes the worker channels to the poll set,
 * onReadable() consumes results, tick() runs the watchdog/respawn
 * clock, and nextDeadlineMs() bounds the poll timeout; pollOnce() is
 * that loop body for callers without a poll set of their own.
 */

#ifndef MXLISP_SUPPORT_PROCPOOL_H_
#define MXLISP_SUPPORT_PROCPOOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/json.h"

struct pollfd; // <poll.h>

namespace mxl {

/** Consecutive spawn (fork/socketpair) failures before the circuit
 *  breaker opens permanently (WorkerPool::degraded()). */
inline constexpr int kMaxSpawnFailures = 3;

struct WorkerPoolOptions
{
    int workers = 2;

    /** CHILD SIDE: once after fork, before any task (Engine::postFork,
     *  trace-lane setup, metrics baseline). @p slot is the worker's
     *  pool-slot index (0-based) — the lane namespace for its spans. */
    std::function<void(int slot)> childInit;

    /**
     * CHILD SIDE: execute one task. @p cell is the task's JSON object
     * (a wire CELL for the server); @p deadlineSeconds the effective
     * per-task deadline (0 = none); @p traceId the request trace id
     * carried in the task frame (possibly empty). Returns the result
     * payload (JSON text) to stream back. Anything thrown exits the
     * child abnormally — the parent reports the death, never a dropped
     * task.
     */
    std::function<std::string(const Json &cell, double deadlineSeconds,
                              const std::string &traceId)>
        runCell;

    /**
     * CHILD SIDE (optional): after each task, collect the relay
     * payload that rides back with the result — the engine metrics
     * delta since the previous task and the spans recorded during
     * this one. A non-empty returned object is embedded in the result
     * envelope as "aux" and handed to the parent's aux handler; the
     * fork boundary is how it gets home, the result frame is the only
     * scheduled crossing.
     */
    std::function<Json(const std::string &traceId)> childCollect;

    /** Respawn backoff after a worker death: base * 2^(n-1), capped. */
    int backoffBaseMs = 50;
    int backoffCapMs = 2000;

    /** Watchdog slack added to each task's deadline before the worker
     *  is presumed hung and killed. */
    int watchdogGraceMs = 2000;

    /** Watchdog for tasks with no deadline of their own. */
    double defaultTaskSeconds = 300;

    /** Test seam: every spawn fails, as if fork were exhausted. */
    bool disableFork = false;
};

/** Pool observability counters (also mirrored into server metrics). */
struct WorkerPoolStats
{
    int spawns = 0;         ///< workers forked (incl. respawns)
    int respawns = 0;       ///< spawns after the initial complement
    int deaths = 0;         ///< abnormal worker exits
    int hangKills = 0;      ///< workers we killed past a task watchdog
    int spawnFailures = 0;  ///< fork/socketpair failures
    bool breakerOpen = false; ///< degraded(): fork exhausted
};

class WorkerPool
{
  public:
    /** Task @p taskId finished; @p payload is the child's result
     *  (JSON text). */
    using ResultFn =
        std::function<void(uint64_t taskId, const std::string &payload)>;

    /** Task @p taskId's worker died. @p hang: our watchdog kill;
     *  otherwise @p termSignal killed it (0 = plain nonzero exit). */
    using FailureFn =
        std::function<void(uint64_t taskId, bool hang, int termSignal)>;

    /** PARENT SIDE: a result envelope carried an "aux" relay object
     *  (childCollect's return). @p slot is the producing worker's
     *  pool slot. Invoked before the task's ResultFn so merged
     *  metrics are visible when the report is delivered. */
    using AuxFn = std::function<void(int slot, const Json &aux)>;

    WorkerPool(WorkerPoolOptions options, ResultFn onResult,
               FailureFn onFailure, AuxFn onAux = AuxFn());
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Fork the initial worker complement. */
    void start();

    /** Circuit breaker state: true once fork is exhausted —
     *  dispatch() will always refuse. */
    bool degraded() const;

    /** Workers alive and not running a task. */
    int idleWorkers() const;

    /** Workers currently executing a task. */
    int busyWorkers() const;

    /**
     * Hand @p cellJson (compact text of the task's JSON object) to an
     * idle worker. @p deadlineSeconds is the effective task deadline
     * (0 = none; the watchdog then uses defaultTaskSeconds);
     * @p traceId rides in the task frame to the worker. False when no
     * idle worker is available (caller keeps the task queued) or the
     * breaker is open; on success @p slotOut (when non-null) receives
     * the chosen worker's slot index.
     */
    bool dispatch(uint64_t taskId, const std::string &cellJson,
                  double deadlineSeconds,
                  const std::string &traceId = std::string(),
                  int *slotOut = nullptr);

    /** Append the worker result fds to the caller's poll set. */
    void collectFds(std::vector<struct pollfd> &out) const;

    /** Drain any readable worker channels after a poll round. */
    void onReadable();

    /** Watchdog + reap + respawn clock; call once per loop iteration. */
    void tick();

    /** Milliseconds until the nearest watchdog/backoff deadline, or
     *  @p cap when none is sooner. */
    int nextDeadlineMs(int cap) const;

    /** One poll-loop iteration over the pool alone: wait up to
     *  nextDeadlineMs(@p capMs) for results, then onReadable() and
     *  tick(). */
    void pollOnce(int capMs);

    /** Live worker pids (bench chaos: kill them mid-flight). */
    std::vector<int> workerPids() const;

    /**
     * Graceful shutdown: close task channels (idle workers exit on
     * EOF), wait up to @p waitMs for busy workers to finish (results
     * still delivered), then SIGKILL stragglers — their tasks report
     * back through onFailure as hangs. Idempotent.
     */
    void shutdown(int waitMs);

    WorkerPoolStats stats() const { return stats_; }

  private:
    struct Worker;

    bool spawn(Worker &w);
    void reap(Worker &w, bool viaWatchdog);
    void killWorker(Worker &w);

    WorkerPoolOptions options_;
    ResultFn onResult_;
    FailureFn onFailure_;
    AuxFn onAux_;
    std::vector<Worker> workers_;
    WorkerPoolStats stats_;
    int consecutiveSpawnFailures_ = 0;
    bool breakerOpen_ = false;
    bool shutdown_ = false;
};

} // namespace mxl

#endif // MXLISP_SUPPORT_PROCPOOL_H_
