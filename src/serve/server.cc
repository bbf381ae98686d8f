#include "serve/server.h"

#include "programs/programs.h"
#include "support/format.h"
#include "support/panic.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mxl {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kListenBacklog = 64;

double
secondsUntil(Clock::time_point when)
{
    return std::chrono::duration<double>(when - Clock::now()).count();
}

uint64_t
fieldMs(const Json &o, const char *key)
{
    const Json *v = o.find(key);
    return v && v->isNumber() ? v->asUint(0) : 0;
}

std::string
cellLabel(const Json &cell)
{
    const Json *label = cell.find("label");
    return label && label->isString() ? label->str() : std::string();
}

/** A structured failure report in the same shape reportToJson emits,
 *  so clients parse exactly one report schema. */
std::string
failureReport(const std::string &label, RunStatus::Code code,
              const std::string &message, const std::string &deathKind,
              int termSignal)
{
    Json rep = Json::object();
    rep.set("label", label);
    rep.set("statusOk", false);
    rep.set("statusCode", static_cast<int64_t>(code));
    rep.set("statusMessage", message);
    if (!deathKind.empty()) {
        Json death = Json::object();
        death.set("kind", deathKind);
        death.set("signal", static_cast<int64_t>(termSignal));
        rep.set("workerDeath", std::move(death));
    }
    return rep.dump();
}

int gSignalStopFd = -1;

void
stopSignalHandler(int)
{
    if (gSignalStopFd >= 0) {
        char b = 's';
        [[maybe_unused]] ssize_t n = ::write(gSignalStopFd, &b, 1);
    }
}

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

WorkerPoolOptions
Server::makePoolOptions()
{
    WorkerPoolOptions po;
    po.workers = options_.workers;
    po.backoffBaseMs = options_.backoffBaseMs;
    po.backoffCapMs = options_.backoffCapMs;
    po.watchdogGraceMs = options_.watchdogGraceMs;
    po.defaultTaskSeconds = options_.maxCellSeconds;
    po.disableFork = options_.disableFork;
    po.childInit = [this](int slot) {
        // postFork detaches the parent's trace recorder; the worker
        // records into workerTrace_ instead, on its own lane, and
        // baselines the COW-inherited metrics so deltas relay only
        // what this worker does from here on.
        engine_.postFork();
        if (traceEnabled_) {
            workerTrace_.setLane(2 + slot);
            engine_.setTrace(&workerTrace_);
        }
        workerMetricsBaseline_ = engine_.metrics().snapshot();
    };
    po.runCell = [this](const Json &cell, double deadlineSeconds,
                        const std::string &traceId) {
        return runCellPayload(cell, deadlineSeconds, /*inWorker=*/true,
                              traceId);
    };
    po.childCollect = [this](const std::string &traceId) {
        Json aux = Json::object();
        aux.set("metrics",
                engine_.metrics().deltaJson(&workerMetricsBaseline_));
        if (traceEnabled_)
            aux.set("spans", workerTrace_.drainJson(traceId));
        return aux;
    };
    return po;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      engine_(1), // the loop calls only run() and compile(), never runGrid()
      pool_(makePoolOptions(),
            [this](uint64_t id, const std::string &payload) {
                deliverReport(id, payload, /*synthesized=*/false);
            },
            [this](uint64_t id, bool hang, int termSignal) {
                mWorkerDeathCells_.inc();
                if (log_.enabled()) {
                    Json f = Json::object();
                    f.set("taskId", id);
                    auto ti = tasks_.find(id);
                    if (ti != tasks_.end()) {
                        f.set("label", ti->second.label);
                        f.set("traceId", ti->second.traceId);
                        auto ri = requests_.find(ti->second.requestKey);
                        if (ri != requests_.end())
                            f.set("requestId", ri->second.id);
                    }
                    f.set("kind", hang ? "hang" : "signal");
                    f.set("signal", static_cast<int64_t>(termSignal));
                    log_.event(EventLog::Level::Error, "worker.death",
                               f);
                }
                synthesizeFailure(
                    id, hang ? "hang" : "signal", termSignal,
                    hang ? "worker killed by watchdog (hang)"
                         : strcat("worker died (signal ", termSignal,
                                  ")"),
                    hang ? RunStatus::Code::Timeout
                         : RunStatus::Code::InternalError);
            },
            [this](int slot, const Json &aux) {
                (void)slot;
                if (const Json *m = aux.find("metrics"))
                    engine_.metrics().merge(*m);
                if (const Json *spans = aux.find("spans"))
                    if (traceEnabled_)
                        trace_.importJson(*spans);
            }),
      admission_(options_.queueCapacity, options_.workers),
      mRequests_(engine_.metrics().counter("serve.requests")),
      mCells_(engine_.metrics().counter("serve.cells")),
      mShedRequests_(engine_.metrics().counter("serve.shed.requests")),
      mShedCells_(engine_.metrics().counter("serve.shed.cells")),
      mInlineCells_(engine_.metrics().counter("serve.inline.cells")),
      mWorkerDeathCells_(
          engine_.metrics().counter("serve.worker.death_cells")),
      mErrors_(engine_.metrics().counter("serve.errors")),
      gQueueDepth_(engine_.metrics().gauge("serve.queue.depth")),
      gDegraded_(engine_.metrics().gauge("serve.degraded")),
      gConns_(engine_.metrics().gauge("serve.conns")),
      hAdmissionWait_(
          engine_.metrics().histogram("serve.admission_wait_micros")),
      hQueue_(engine_.metrics().histogram("serve.queue_micros")),
      hExec_(engine_.metrics().histogram("serve.exec_micros")),
      hE2e_(engine_.metrics().histogram("serve.e2e_micros"))
{
    traceEnabled_ = !options_.tracePath.empty();
    // One timeline: worker recorders are COW copies of workerTrace_,
    // so their timestamps land directly on the parent trace's clock.
    workerTrace_.alignEpoch(trace_);
}

Server::~Server()
{
    pool_.shutdown(0);
    for (auto &[fd, conn] : conns_)
        ::close(fd);
    conns_.clear();
    if (unixFd_ >= 0)
        ::close(unixFd_);
    if (tcpFd_ >= 0)
        ::close(tcpFd_);
    if (stopPipe_[0] >= 0)
        ::close(stopPipe_[0]);
    if (stopPipe_[1] >= 0) {
        if (gSignalStopFd == stopPipe_[1])
            gSignalStopFd = -1;
        ::close(stopPipe_[1]);
    }
    if (!options_.unixPath.empty())
        ::unlink(options_.unixPath.c_str());
}

bool
Server::listenUnix(std::string *err)
{
    if (options_.unixPath.empty()) {
        *err = "no unix socket path configured";
        return false;
    }
    sockaddr_un addr{};
    if (options_.unixPath.size() >= sizeof addr.sun_path) {
        *err = strcat("unix socket path too long: ", options_.unixPath);
        return false;
    }
    unixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unixFd_ < 0) {
        *err = strcat("socket: ", std::strerror(errno));
        return false;
    }
    ::unlink(options_.unixPath.c_str()); // stale socket from a crash
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.unixPath.c_str(),
                 sizeof addr.sun_path - 1);
    if (::bind(unixFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(unixFd_, kListenBacklog) != 0) {
        *err = strcat("bind/listen ", options_.unixPath, ": ",
                      std::strerror(errno));
        return false;
    }
    setNonBlocking(unixFd_);
    return true;
}

bool
Server::listenTcp(std::string *err)
{
    if (options_.tcpPort == 0)
        return true;
    tcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcpFd_ < 0) {
        *err = strcat("socket: ", std::strerror(errno));
        return false;
    }
    int one = 1;
    ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(options_.tcpPort > 0
                  ? static_cast<uint16_t>(options_.tcpPort)
                  : 0);
    if (::bind(tcpFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(tcpFd_, kListenBacklog) != 0) {
        *err = strcat("tcp bind/listen: ", std::strerror(errno));
        return false;
    }
    socklen_t len = sizeof addr;
    ::getsockname(tcpFd_, reinterpret_cast<sockaddr *>(&addr), &len);
    boundTcpPort_ = ntohs(addr.sin_port);
    setNonBlocking(tcpFd_);
    return true;
}

bool
Server::start(std::string *err)
{
    ::signal(SIGPIPE, SIG_IGN);
    if (::pipe(stopPipe_) != 0) {
        *err = strcat("pipe: ", std::strerror(errno));
        return false;
    }
    setNonBlocking(stopPipe_[0]);
    if (!listenUnix(err) || !listenTcp(err))
        return false;
    if (!options_.eventLogPath.empty() &&
        !log_.openFile(options_.eventLogPath, err))
        return false;
    if (traceEnabled_) {
        trace_.nameLane(1, "mxl-served");
        for (int slot = 0; slot < options_.workers; ++slot)
            trace_.nameLane(2 + slot, strcat("worker ", slot));
        // Parent-side engine activity (warm-up compiles, degraded
        // inline runs) records on lane 1; workers re-attach their own
        // recorder after postFork's detach.
        engine_.setTrace(&trace_);
    }
    if (options_.warmCache)
        for (const BenchmarkProgram &p : benchmarkPrograms()) {
            CompilerOptions o;
            o.heapBytes = p.heapBytes;
            engine_.compile(p.source, o);
        }
    pool_.start();
    gDegraded_.set(pool_.degraded() ? 1 : 0);
    refreshPidMirror();
    if (log_.enabled()) {
        Json f = Json::object();
        f.set("socket", options_.unixPath);
        f.set("workers", static_cast<int64_t>(options_.workers));
        f.set("queueCapacity",
              static_cast<uint64_t>(options_.queueCapacity));
        f.set("degraded", pool_.degraded());
        log_.event(EventLog::Level::Info, "server.start", f);
    }
    return true;
}

void
Server::requestStop()
{
    if (stopPipe_[1] >= 0) {
        char b = 's';
        [[maybe_unused]] ssize_t n = ::write(stopPipe_[1], &b, 1);
    }
}

void
Server::installSignalHandlers()
{
    gSignalStopFd = stopPipe_[1];
    ::signal(SIGTERM, stopSignalHandler);
    ::signal(SIGINT, stopSignalHandler);
}

void
Server::acceptReady(int listenFd)
{
    for (;;) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            return;
        setNonBlocking(fd);
        Conn conn;
        conn.fd = fd;
        conns_.emplace(fd, std::move(conn));
        gConns_.set(static_cast<int64_t>(conns_.size()));
    }
}

void
Server::closeConn(int fd)
{
    auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    ::close(fd);
    conns_.erase(it);
    gConns_.set(static_cast<int64_t>(conns_.size()));
    // Orphan this connection's open requests: their cells still run
    // (and still resolve the request), the responses just have nowhere
    // to go.
    for (auto &[key, r] : requests_)
        if (r.connFd == fd)
            r.connFd = -1;
}

void
Server::flushConn(Conn &conn)
{
    while (!conn.out.empty()) {
        ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(),
                           MSG_NOSIGNAL);
        if (n > 0) {
            conn.out.erase(0, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return; // POLLOUT will resume
        closeConn(conn.fd);
        return;
    }
}

void
Server::queuePayload(int connFd, const std::string &payload)
{
    if (connFd < 0)
        return; // orphaned request
    auto it = conns_.find(connFd);
    if (it == conns_.end())
        return;
    Conn &conn = it->second;
    conn.out += encodeFrame(payload);
    if (conn.out.size() > kMaxFrameBytes) {
        // A client this far behind is not consuming; shedding it beats
        // buffering without bound.
        closeConn(conn.fd);
        return;
    }
    flushConn(conn);
}

void
Server::readConn(int fd)
{
    auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    Conn &conn = it->second;
    char buf[8192];
    for (;;) {
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn.in.feed(buf, static_cast<size_t>(n));
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        closeConn(fd); // EOF or hard error
        return;
    }
    std::string payload;
    while (true) {
        // handleFrame can close the connection (oversized backlog);
        // re-check it still exists before touching it again.
        auto cur = conns_.find(fd);
        if (cur == conns_.end())
            return;
        if (!cur->second.in.next(&payload))
            break;
        handleFrame(cur->second, payload);
    }
    auto cur = conns_.find(fd);
    if (cur != conns_.end() && cur->second.in.error())
        closeConn(fd); // poisoned framing: the stream is unrecoverable
}

void
Server::handleFrame(Conn &conn, const std::string &payload)
{
    Json j;
    if (!Json::parse(payload, &j) || !j.isObject()) {
        mErrors_.inc();
        queuePayload(conn.fd,
                     "{\"type\":\"error\",\"id\":\"\","
                     "\"message\":\"request is not a JSON object\"}");
        return;
    }
    const Json *type = j.find("type");
    std::string verb = type && type->isString() ? type->str() : "";
    if (verb == "ping") {
        queuePayload(conn.fd, "{\"type\":\"pong\"}");
        return;
    }
    if (verb == "health") {
        sendHealth(conn);
        return;
    }
    if (verb == "grid") {
        handleGrid(conn, j);
        return;
    }
    mErrors_.inc();
    const Json *idj = j.find("id");
    std::string id =
        idj && idj->isString() ? idj->str() : std::string();
    queuePayload(conn.fd,
                 strcat("{\"type\":\"error\",\"id\":", Json(id).dump(),
                        ",\"message\":",
                        Json(strcat("unknown request type '", verb,
                                    "'"))
                            .dump(),
                        "}"));
}

void
Server::sendHealth(Conn &conn)
{
    WorkerPoolStats ps = pool_.stats();
    std::string payload = strcat(
        "{\"type\":\"health\"", ",\"degraded\":",
        pool_.degraded() ? "true" : "false",
        ",\"draining\":", draining_ ? "true" : "false",
        ",\"queueDepth\":", admission_.depth(),
        ",\"queueCapacity\":", admission_.capacity(),
        ",\"workersIdle\":", pool_.idleWorkers(),
        ",\"workersBusy\":", pool_.busyWorkers(),
        ",\"workerSpawns\":", ps.spawns, ",\"workerRespawns\":",
        ps.respawns, ",\"workerDeaths\":", ps.deaths,
        ",\"workerHangKills\":", ps.hangKills, ",\"spawnFailures\":",
        ps.spawnFailures, ",\"metrics\":",
        engine_.metrics().snapshotJson(), "}");
    queuePayload(conn.fd, payload);
}

void
Server::handleGrid(Conn &conn, const Json &j)
{
    uint64_t receivedMicros = trace_.nowMicros();
    const Json *idj = j.find("id");
    std::string id =
        idj && idj->isString() ? idj->str() : std::string();
    std::string idText = Json(id).dump();
    const Json *tj = j.find("traceId");
    std::string traceId = tj && tj->isString() && !tj->str().empty()
                              ? tj->str()
                              : makeTraceId();
    auto terminalError = [&](const std::string &msg) {
        mErrors_.inc();
        if (log_.enabled()) {
            Json f = Json::object();
            f.set("requestId", id);
            f.set("traceId", traceId);
            f.set("message", msg);
            log_.event(EventLog::Level::Warn, "request.error", f);
        }
        queuePayload(conn.fd,
                     strcat("{\"type\":\"error\",\"id\":", idText,
                            ",\"message\":", Json(msg).dump(), "}"));
    };

    if (draining_) {
        terminalError("server is draining");
        return;
    }
    const Json *cells = j.find("cells");
    if (!cells || !cells->isArray() || cells->size() == 0) {
        terminalError("grid request needs a nonempty 'cells' array");
        return;
    }
    size_t n = cells->size();

    // Validate every cell up front: admission is all-or-nothing, and a
    // cell that admits must also parse in the worker (same decoder).
    // Chaos cells skip validation — they never reach parseCell.
    for (size_t i = 0; i < n; ++i) {
        const Json &cj = cells->at(i);
        std::string label = cj.isObject() ? cellLabel(cj) : "";
        if (options_.enableChaosCells &&
            label.rfind("__chaos:", 0) == 0)
            continue;
        WireCell wc;
        std::string err;
        if (!parseCell(cj, &wc, &err)) {
            terminalError(strcat("cell ", i, ": ", err));
            return;
        }
    }

    if (!admission_.canAdmit(n)) {
        admission_.shed(n);
        mShedRequests_.inc();
        mShedCells_.inc(n);
        if (log_.enabled()) {
            Json f = Json::object();
            f.set("requestId", id);
            f.set("traceId", traceId);
            f.set("cells", static_cast<uint64_t>(n));
            f.set("retryAfterMs",
                  static_cast<uint64_t>(admission_.retryAfterMs(n)));
            log_.event(EventLog::Level::Warn, "request.shed", f);
        }
        queuePayload(
            conn.fd,
            strcat("{\"type\":\"overloaded\",\"id\":", idText,
                   ",\"retryAfterMs\":", admission_.retryAfterMs(n),
                   ",\"queueDepth\":", admission_.depth(),
                   ",\"queueCapacity\":", admission_.capacity(), "}"));
        return;
    }
    hAdmissionWait_.observe(trace_.nowMicros() - receivedMicros);

    Request r;
    r.key = nextRequestKey_++;
    r.connFd = conn.fd;
    r.id = id;
    r.traceId = traceId;
    r.receivedMicros = receivedMicros;
    r.cells = n;
    uint64_t deadlineMs = fieldMs(j, "deadlineMs");
    if (deadlineMs > 0) {
        r.hasDeadline = true;
        r.deadline = Clock::now() +
                     std::chrono::milliseconds(
                         static_cast<int64_t>(deadlineMs));
    }
    uint64_t key = r.key;
    requests_.emplace(key, std::move(r));
    mRequests_.inc();
    mCells_.inc(n);

    for (size_t i = 0; i < n; ++i) {
        const Json &cj = cells->at(i);
        Task t;
        t.requestKey = key;
        t.index = i;
        t.label = cellLabel(cj);
        t.traceId = traceId;
        t.queuedMicros = trace_.nowMicros();
        t.cellText = cj.dump();
        uint64_t cellMs = fieldMs(cj, "deadlineMs");
        t.cellDeadlineSeconds =
            cellMs > 0 ? static_cast<double>(cellMs) / 1000.0 : 0;
        uint64_t taskId = nextTaskId_++;
        tasks_.emplace(taskId, std::move(t));
        admission_.push(taskId);
    }
    gQueueDepth_.set(static_cast<int64_t>(admission_.depth()));
    pump();
}

double
Server::effectiveDeadlineSeconds(const Task &t, const Request &r,
                                 bool *expired) const
{
    *expired = false;
    double dl = t.cellDeadlineSeconds;
    if (r.hasDeadline) {
        double remaining = secondsUntil(r.deadline);
        if (remaining <= 0) {
            *expired = true;
            return 0;
        }
        if (dl <= 0 || remaining < dl)
            dl = remaining;
    }
    return dl;
}

std::string
Server::runCellPayload(const Json &cell, double deadlineSeconds,
                       bool inWorker, const std::string &traceId)
{
    std::string label = cell.isObject() ? cellLabel(cell) : "";
    if (label.rfind("__chaos:", 0) == 0) {
        if (inWorker && options_.enableChaosCells) {
            if (label == "__chaos:hang")
                for (;;)
                    ::pause();
            if (label == "__chaos:crash")
                std::abort();
            if (label == "__chaos:exit")
                ::_exit(7);
        }
        // Degraded mode (or chaos disabled): refusing is the honest
        // answer — honoring a hang inline would wedge the loop thread
        // the pool exists to protect.
        return failureReport(label, RunStatus::Code::InternalError,
                             "chaos cell refused outside a worker", "",
                             0);
    }
    WireCell wc;
    std::string err;
    if (!parseCell(cell, &wc, &err))
        return failureReport(label, RunStatus::Code::CompileError, err,
                             "", 0);
    RunRequest &req = wc.request;
    if (deadlineSeconds > 0 && (req.exec.deadlineSeconds == 0 ||
                                req.exec.deadlineSeconds >
                                    deadlineSeconds))
        req.exec.deadlineSeconds = deadlineSeconds;
    // Worker-side "cell" span: wraps the engine's own compile/run
    // spans on this worker's lane; drained home with the result.
    uint64_t t0 = (inWorker && traceEnabled_)
                      ? workerTrace_.nowMicros()
                      : 0;
    RunReport rep = engine_.run(req);
    if (inWorker && traceEnabled_)
        workerTrace_.complete("cell", "serve/worker", 0, t0,
                              workerTrace_.nowMicros() - t0, label,
                              traceId);
    return reportToJson(rep).dump();
}

std::string
Server::execCellInline(const Task &t, double deadlineSeconds)
{
    Json cell;
    if (!Json::parse(t.cellText, &cell))
        return failureReport(t.label, RunStatus::Code::InternalError,
                             "stored cell failed to reparse", "", 0);
    return runCellPayload(cell, deadlineSeconds, /*inWorker=*/false,
                          t.traceId);
}

void
Server::pump()
{
    while (!admission_.empty()) {
        uint64_t taskId = admission_.front();
        auto ti = tasks_.find(taskId);
        if (ti == tasks_.end()) {
            admission_.pop();
            continue;
        }
        Task &t = ti->second;
        auto ri = requests_.find(t.requestKey);
        MXL_ASSERT(ri != requests_.end(),
                   "queued task with no request");
        bool expired = false;
        double dl = effectiveDeadlineSeconds(t, ri->second, &expired);
        if (expired) {
            admission_.pop();
            synthesizeFailure(
                taskId, "deadline", 0,
                "request deadline expired before the cell ran",
                RunStatus::Code::Timeout);
            continue;
        }
        if (!pool_.degraded()) {
            int slot = -1;
            if (!pool_.dispatch(taskId, t.cellText, dl, t.traceId,
                                &slot))
                break; // no idle worker; poll loop will pump again
            t.slot = slot;
            t.dispatchedAt = Clock::now();
            t.dispatchedMicros = trace_.nowMicros();
            hQueue_.observe(t.dispatchedMicros - t.queuedMicros);
            admission_.pop();
        } else {
            admission_.pop();
            t.dispatchedAt = Clock::now();
            t.dispatchedMicros = trace_.nowMicros();
            hQueue_.observe(t.dispatchedMicros - t.queuedMicros);
            mInlineCells_.inc();
            std::string report = execCellInline(t, dl);
            deliverReport(taskId, report, /*synthesized=*/false);
        }
    }
    gQueueDepth_.set(static_cast<int64_t>(admission_.depth()));
}

void
Server::deliverReport(uint64_t taskId, const std::string &reportText,
                      bool synthesized)
{
    auto ti = tasks_.find(taskId);
    if (ti == tasks_.end())
        return; // already resolved (e.g. drain raced a late result)
    Task t = std::move(ti->second);
    tasks_.erase(ti);
    auto ri = requests_.find(t.requestKey);
    if (ri == requests_.end())
        return;
    Request &r = ri->second;

    if (!synthesized)
        admission_.observeServiceSeconds(
            secondsUntil(t.dispatchedAt) * -1.0);

    if (t.dispatchedMicros > 0) {
        uint64_t nowM = trace_.nowMicros();
        hExec_.observe(nowM - t.dispatchedMicros);
        if (traceEnabled_)
            trace_.complete(
                "exec", synthesized ? "serve/synthesized" : "serve/cell",
                t.slot >= 0 ? 1 + t.slot : 1000, t.dispatchedMicros,
                nowM - t.dispatchedMicros, t.label, t.traceId);
    }

    bool failed = true;
    Json rep;
    if (Json::parse(reportText, &rep)) {
        const Json *ok = rep.find("statusOk");
        failed = !(ok && ok->asBool(false));
    }

    queuePayload(r.connFd,
                 strcat("{\"type\":\"cell\",\"id\":", Json(r.id).dump(),
                        ",\"index\":", t.index,
                        ",\"report\":", reportText, "}"));
    ++r.completed;
    if (failed)
        ++r.failed;
    finishRequestIfDone(r);
}

void
Server::synthesizeFailure(uint64_t taskId, const std::string &kind,
                          int termSignal, const std::string &message,
                          RunStatus::Code code)
{
    auto ti = tasks_.find(taskId);
    if (ti == tasks_.end())
        return;
    deliverReport(taskId,
                  failureReport(ti->second.label, code, message, kind,
                                termSignal),
                  /*synthesized=*/true);
}

void
Server::finishRequestIfDone(Request &r)
{
    if (r.completed < r.cells)
        return;
    uint64_t nowM = trace_.nowMicros();
    uint64_t e2e =
        r.receivedMicros > 0 ? nowM - r.receivedMicros : 0;
    hE2e_.observe(e2e);
    if (traceEnabled_ && r.receivedMicros > 0)
        trace_.complete("request", "serve/request", 0, r.receivedMicros,
                        e2e, r.id, r.traceId);
    if (log_.enabled()) {
        uint64_t wallMs = e2e / 1000;
        Json f = Json::object();
        f.set("requestId", r.id);
        f.set("traceId", r.traceId);
        f.set("cells", static_cast<uint64_t>(r.cells));
        f.set("failed", static_cast<uint64_t>(r.failed));
        f.set("wallMs", wallMs);
        log_.event(EventLog::Level::Info, "request.done", f);
        if (options_.slowRequestMs > 0 &&
            wallMs >
                static_cast<uint64_t>(options_.slowRequestMs)) {
            f.set("slowRequestMs",
                  static_cast<uint64_t>(options_.slowRequestMs));
            log_.event(EventLog::Level::Warn, "request.slow", f);
        }
    }
    queuePayload(r.connFd,
                 strcat("{\"type\":\"done\",\"id\":", Json(r.id).dump(),
                        ",\"cells\":", r.cells, ",\"failed\":", r.failed,
                        "}"));
    requests_.erase(r.key);
}

void
Server::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    if (log_.enabled()) {
        Json f = Json::object();
        f.set("queued",
              static_cast<uint64_t>(admission_.depth()));
        f.set("inFlight", static_cast<uint64_t>(tasks_.size()));
        log_.event(EventLog::Level::Info, "server.drain.begin", f);
    }
    drainDeadline_ =
        Clock::now() + std::chrono::milliseconds(options_.drainMs);
    if (unixFd_ >= 0) {
        ::close(unixFd_);
        unixFd_ = -1;
    }
    if (tcpFd_ >= 0) {
        ::close(tcpFd_);
        tcpFd_ = -1;
    }
}

void
Server::finishDrain()
{
    // Queued-but-undispatched cells become per-cell timeouts...
    while (!admission_.empty()) {
        uint64_t taskId = admission_.front();
        admission_.pop();
        synthesizeFailure(taskId, "drain", 0,
                          "server drained before the cell ran",
                          RunStatus::Code::Timeout);
    }
    // ...and in-flight workers get the remaining drain budget, then
    // SIGKILL; their tasks resolve through the failure path as hangs.
    int64_t remainingMs = static_cast<int64_t>(
        secondsUntil(drainDeadline_) * 1000.0);
    pool_.shutdown(remainingMs > 0 ? static_cast<int>(remainingMs) : 0);
    // Every task should now be resolved; sweep defensively so the
    // exactly-one-terminal-response invariant holds even for states
    // this code never meant to reach.
    while (!tasks_.empty())
        synthesizeFailure(tasks_.begin()->first, "drain", 0,
                          "server drained before the cell resolved",
                          RunStatus::Code::Timeout);
    std::vector<uint64_t> leftover;
    for (auto &[key, r] : requests_)
        leftover.push_back(key);
    for (uint64_t key : leftover) {
        auto it = requests_.find(key);
        if (it != requests_.end()) {
            it->second.completed = it->second.cells;
            finishRequestIfDone(it->second);
        }
    }
    Clock::time_point flushDeadline =
        Clock::now() + std::chrono::milliseconds(500);
    for (;;) {
        bool pendingOut = false;
        std::vector<int> fds;
        for (auto &[fd, conn] : conns_)
            if (!conn.out.empty()) {
                pendingOut = true;
                fds.push_back(fd);
            }
        if (!pendingOut || Clock::now() >= flushDeadline)
            break;
        for (int fd : fds) {
            auto it = conns_.find(fd);
            if (it != conns_.end())
                flushConn(it->second);
        }
        struct pollfd pf = {fds.empty() ? -1 : fds[0], POLLOUT, 0};
        ::poll(&pf, 1, 10);
    }
    for (auto &[fd, conn] : conns_)
        ::close(fd);
    conns_.clear();
    gConns_.set(0);
    running_ = false;
    stopped_ = true;
    if (log_.enabled()) {
        Json f = Json::object();
        WorkerPoolStats ps = pool_.stats();
        f.set("workerDeaths", static_cast<int64_t>(ps.deaths));
        f.set("hangKills", static_cast<int64_t>(ps.hangKills));
        log_.event(EventLog::Level::Info, "server.drain.end", f);
    }
    writeTraceIfConfigured();
}

void
Server::refreshPidMirror()
{
    std::lock_guard<std::mutex> lock(pidMutex_);
    pidMirror_ = pool_.workerPids();
}

std::vector<int>
Server::workerPids() const
{
    std::lock_guard<std::mutex> lock(pidMutex_);
    return pidMirror_;
}

void
Server::serve()
{
    running_ = true;
    while (running_) {
        std::vector<struct pollfd> fds;
        fds.push_back({stopPipe_[0], POLLIN, 0});
        size_t unixIdx = 0, tcpIdx = 0;
        if (unixFd_ >= 0) {
            unixIdx = fds.size();
            fds.push_back({unixFd_, POLLIN, 0});
        }
        if (tcpFd_ >= 0) {
            tcpIdx = fds.size();
            fds.push_back({tcpFd_, POLLIN, 0});
        }
        size_t connStart = fds.size();
        std::vector<int> connFds;
        for (auto &[fd, conn] : conns_) {
            short events = POLLIN;
            if (!conn.out.empty())
                events |= POLLOUT;
            fds.push_back({fd, events, 0});
            connFds.push_back(fd);
        }
        pool_.collectFds(fds);

        int timeout = pool_.nextDeadlineMs(200);
        if (draining_) {
            int64_t ms = static_cast<int64_t>(
                secondsUntil(drainDeadline_) * 1000.0);
            if (ms < 0)
                ms = 0;
            if (ms < timeout)
                timeout = static_cast<int>(ms);
        }
        int rc = ::poll(fds.data(), fds.size(), timeout);
        if (rc < 0 && errno != EINTR)
            break;

        if (fds[0].revents & POLLIN) {
            char buf[64];
            while (::read(stopPipe_[0], buf, sizeof buf) > 0)
                ;
            beginDrain();
        }
        if (unixFd_ >= 0 && (fds[unixIdx].revents & POLLIN))
            acceptReady(unixFd_);
        if (tcpFd_ >= 0 && (fds[tcpIdx].revents & POLLIN))
            acceptReady(tcpFd_);
        for (size_t i = 0; i < connFds.size(); ++i) {
            short rev = fds[connStart + i].revents;
            if (rev & (POLLIN | POLLHUP | POLLERR))
                readConn(connFds[i]);
            if (rev & POLLOUT) {
                auto it = conns_.find(connFds[i]);
                if (it != conns_.end())
                    flushConn(it->second);
            }
        }

        pool_.onReadable();
        pool_.tick();
        gDegraded_.set(pool_.degraded() ? 1 : 0);
        refreshPidMirror();
        pump();

        if (draining_ &&
            (requests_.empty() || Clock::now() >= drainDeadline_))
            finishDrain();
    }
}

void
Server::writeTraceIfConfigured()
{
    if (!traceEnabled_)
        return;
    if (!trace_.writeFile(options_.tracePath))
        std::fprintf(stderr,
                     "mxl-served: failed to write trace to %s\n",
                     options_.tracePath.c_str());
}

} // namespace mxl
