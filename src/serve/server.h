/**
 * @file
 * mxl-served's core: a single-threaded measurement server with
 * crash-isolated execution, admission control, deadline propagation,
 * and graceful degradation.
 *
 * Architecture — one poll() event loop multiplexing:
 *
 *   listeners ──accept──> connections ──frames──> admission queue
 *        (unix socket, optional 127.0.0.1 TCP)        (bounded)
 *                                                        │ dispatch
 *   worker pool (support/procpool.h: watchdogged) <──────┘
 *        │ result / death-evidence frames
 *        └──> per-cell "cell" responses streamed back, then one
 *             terminal "done" — or "overloaded"/"error" at admission.
 *
 * Invariants the tests and bench_serve hold the server to:
 *
 *  - EXACTLY ONE terminal response per request ("done", "overloaded",
 *    or "error"), no matter how many workers die, hang, or how the
 *    server is stopped. Cell results may be lost only by the client's
 *    own disconnect; they are never silently dropped server-side.
 *  - A client deadline ("deadlineMs", request- or cell-level)
 *    propagates into ExecPolicy::deadlineSeconds inside the worker
 *    (the simulator's own chunked wall-clock check) AND arms the
 *    parent-side watchdog at deadline + grace — defense in depth: the
 *    first catches slow simulations, the second catches wedged
 *    workers that can no longer check anything.
 *  - Admission is all-or-nothing per request against a bounded queue;
 *    over-cap requests shed immediately with a backlog-proportional
 *    retry-after hint (serve/admission.h).
 *  - When forking is exhausted the pool's circuit breaker opens and
 *    cells execute in-process on the loop thread: results stay
 *    correct, crash/hang isolation is the documented casualty
 *    (chaos cells are refused rather than honored in this mode).
 *  - requestStop() (or SIGTERM via installSignalHandlers()) starts a
 *    graceful drain: listeners close, new requests get a terminal
 *    "error", queued+running cells finish within drainMs, stragglers
 *    are killed and reported as per-cell timeouts, every open request
 *    still gets its "done", buffers flush, then serve() returns.
 *
 * The loop owns all state; no locks except the tiny mirror that lets
 * other threads read workerPids() and call requestStop() (self-pipe).
 */

#ifndef MXLISP_SERVE_SERVER_H_
#define MXLISP_SERVE_SERVER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/wire.h"
#include "support/procpool.h"

namespace mxl {

struct ServerOptions
{
    /** Unix-domain socket path (always served; required). */
    std::string unixPath;

    /** Optional loopback TCP listener; 0 = off, -1 = ephemeral port
     *  (see Server::boundTcpPort). */
    int tcpPort = 0;

    /** Forked worker complement. */
    int workers = 2;

    /** Admission queue capacity in cells. */
    size_t queueCapacity = 256;

    /** Watchdog for cells that arrive with no deadline at all. */
    double maxCellSeconds = 300;

    /** Graceful-drain bound: queued + in-flight work gets this long
     *  after requestStop() before stragglers become timeouts. */
    int drainMs = 10000;

    /** Honor "__chaos:*" cell labels inside workers (bench/test only:
     *  hang, crash, exit). Refused when degraded. */
    bool enableChaosCells = false;

    /** Test seam: pool forking fails -> circuit breaker -> in-process
     *  execution from the start. */
    bool disableFork = false;

    /** Precompile all built-in benchmark programs before forking so
     *  workers inherit a warm compiled-unit cache copy-on-write. */
    bool warmCache = false;

    /** Pool knobs, forwarded. */
    int backoffBaseMs = 50;
    int backoffCapMs = 2000;
    int watchdogGraceMs = 2000;

    /**
     * Nonempty: record a service trace — parent request/exec spans
     * plus the compile/run spans each forked worker records and
     * relays home — and write the merged Perfetto JSON here when the
     * drain finishes (mxl-served --trace).
     */
    std::string tracePath;

    /** Nonempty: append structured JSONL events here (obs/log.h;
     *  mxl-served --log). */
    std::string eventLogPath;

    /** Requests slower end-to-end than this log a "request.slow"
     *  event (warn). <= 0 disables the check. */
    int slowRequestMs = 1000;
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind listeners and fork the worker pool. False with @p err on
     *  bind/listen failure. */
    bool start(std::string *err);

    /** Run the event loop; returns after a requested stop completes
     *  its drain. */
    void serve();

    /** Thread- and signal-safe stop request (self-pipe write). */
    void requestStop();

    /** Route SIGTERM/SIGINT to requestStop() for this server. */
    void installSignalHandlers();

    /** Ephemeral TCP port actually bound (after start). */
    int boundTcpPort() const { return boundTcpPort_; }

    /** Live worker pids, readable from any thread (bench chaos). */
    std::vector<int> workerPids() const;

    /** The in-process engine (metrics registry, warm cache). */
    Engine &engine() { return engine_; }

  private:
    struct Conn
    {
        int fd = -1;
        FrameReader in;
        std::string out; ///< pending bytes (POLLOUT while nonempty)
    };

    struct Request
    {
        uint64_t key = 0;
        int connFd = -1; ///< -1 once the client disconnects
        std::string id;  ///< client-chosen, echoed in every response
        std::string traceId; ///< client-stamped (or server-minted)
        size_t cells = 0;
        size_t completed = 0;
        size_t failed = 0;
        bool hasDeadline = false;
        std::chrono::steady_clock::time_point deadline{};
        uint64_t receivedMicros = 0; ///< trace_ clock at arrival
    };

    struct Task
    {
        uint64_t requestKey = 0;
        size_t index = 0;
        std::string label;
        std::string traceId;
        std::string cellText; ///< client cell JSON, forwarded verbatim
        double cellDeadlineSeconds = 0; ///< cell-level only; 0 = none
        std::chrono::steady_clock::time_point dispatchedAt{};
        uint64_t queuedMicros = 0;     ///< trace_ clock at admission
        uint64_t dispatchedMicros = 0; ///< trace_ clock at dispatch
        int slot = -1;                 ///< worker slot (-1 = inline)
    };

    WorkerPoolOptions makePoolOptions();
    bool listenUnix(std::string *err);
    bool listenTcp(std::string *err);
    void acceptReady(int listenFd);
    void readConn(int fd);
    void closeConn(int fd);
    void handleFrame(Conn &conn, const std::string &payload);
    void handleGrid(Conn &conn, const Json &j);
    void sendHealth(Conn &conn);
    void queuePayload(int connFd, const std::string &payload);
    void flushConn(Conn &conn);

    /** Dispatch queued cells to idle workers (or inline, degraded). */
    void pump();
    double effectiveDeadlineSeconds(const Task &t, const Request &r,
                                    bool *expired) const;
    std::string execCellInline(const Task &t, double deadlineSeconds);
    void deliverReport(uint64_t taskId, const std::string &reportText,
                       bool synthesized);
    void synthesizeFailure(uint64_t taskId, const std::string &kind,
                           int termSignal, const std::string &message,
                           RunStatus::Code code);
    void finishRequestIfDone(Request &r);
    void beginDrain();
    void finishDrain();
    void refreshPidMirror();
    void writeTraceIfConfigured();

    /** CHILD SIDE (and degraded inline): run one wire cell. */
    std::string runCellPayload(const Json &cell, double deadlineSeconds,
                               bool inWorker,
                               const std::string &traceId);

    ServerOptions options_;
    Engine engine_;
    WorkerPool pool_;
    AdmissionQueue admission_;

    int unixFd_ = -1;
    int tcpFd_ = -1;
    int boundTcpPort_ = 0;
    int stopPipe_[2] = {-1, -1};

    std::map<int, Conn> conns_;
    std::map<uint64_t, Request> requests_;
    std::map<uint64_t, Task> tasks_;
    uint64_t nextRequestKey_ = 1;
    uint64_t nextTaskId_ = 1;

    bool running_ = false;
    bool draining_ = false;
    bool stopped_ = false;
    std::chrono::steady_clock::time_point drainDeadline_{};

    mutable std::mutex pidMutex_;
    std::vector<int> pidMirror_;

    // Observability: the service trace (lane 1 = this process;
    // workerTrace_ is the recorder forked workers record into on lane
    // 2 + slot, drained back over the result channel), the structured
    // event log, and the child-side metrics baseline for delta relays.
    bool traceEnabled_ = false;
    TraceRecorder trace_;
    TraceRecorder workerTrace_;
    Json workerMetricsBaseline_; ///< child-side state only
    EventLog log_;

    // Metrics (engine_'s registry, exported by the health endpoint).
    Counter &mRequests_;
    Counter &mCells_;
    Counter &mShedRequests_;
    Counter &mShedCells_;
    Counter &mInlineCells_;
    Counter &mWorkerDeathCells_;
    Counter &mErrors_;
    Gauge &gQueueDepth_;
    Gauge &gDegraded_;
    Gauge &gConns_;
    Histogram &hAdmissionWait_; ///< request arrival -> admission
    Histogram &hQueue_;         ///< cell admission -> dispatch
    Histogram &hExec_;          ///< cell dispatch -> report
    Histogram &hE2e_;           ///< request arrival -> terminal
};

} // namespace mxl

#endif // MXLISP_SERVE_SERVER_H_
