#include "support/procpool.h"

#include "support/format.h"
#include "support/frame.h"
#include "support/panic.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <algorithm>
#include <cerrno>
#include <chrono>

namespace mxl {

namespace {

using Clock = std::chrono::steady_clock;

int64_t
millisUntil(Clock::time_point when)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               when - Clock::now())
        .count();
}

/** Bounded exponential backoff: base * 2^(attempt-1) ms, capped. */
int64_t
backoffMillis(int baseMs, int capMs, int attempt)
{
    int64_t ms = baseMs;
    for (int i = 1; i < attempt && ms < capMs; ++i)
        ms *= 2;
    return std::min<int64_t>(ms, capMs);
}

} // namespace

/**
 * One pool slot. Lifecycle: Dead --spawn--> Idle <--> Busy, with any
 * abnormal exit returning to Dead plus a backoff gate (notBefore).
 */
struct WorkerPool::Worker
{
    enum class State { Dead, Idle, Busy };

    State state = State::Dead;
    int slot = 0; ///< index in workers_ (the trace-lane namespace)
    int pid = -1;
    int taskFd = -1;   ///< parent -> child task frames (blocking)
    int resultFd = -1; ///< child -> parent result frames (nonblocking)
    FrameReader frames;

    // In-flight task (Busy only).
    uint64_t taskId = 0;
    Clock::time_point watchdog{};
    bool killedByWatchdog = false;

    // Respawn backoff (Dead only).
    int consecutiveDeaths = 0;
    Clock::time_point notBefore{};
};

WorkerPool::WorkerPool(WorkerPoolOptions options, ResultFn onResult,
                       FailureFn onFailure, AuxFn onAux)
    : options_(std::move(options)), onResult_(std::move(onResult)),
      onFailure_(std::move(onFailure)), onAux_(std::move(onAux))
{
    MXL_ASSERT(options_.runCell && onResult_ && onFailure_,
               "WorkerPool needs runCell/onResult/onFailure");
    if (options_.workers < 1)
        options_.workers = 1;
    workers_.resize(static_cast<size_t>(options_.workers));
    for (size_t i = 0; i < workers_.size(); ++i)
        workers_[i].slot = static_cast<int>(i);
}

WorkerPool::~WorkerPool()
{
    shutdown(0);
}

namespace {

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0 // macOS: spawn() sets SO_NOSIGPIPE instead
#endif

/**
 * Write all of @p s to the socket @p fd, retrying on EINTR. False on
 * error. MSG_NOSIGNAL makes a dead peer an EPIPE return here, never a
 * SIGPIPE: the pool must not depend on its host ignoring the signal.
 */
bool
sendAll(int fd, const std::string &s)
{
    size_t off = 0;
    while (off < s.size()) {
        ssize_t n =
            ::send(fd, s.data() + off, s.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

/**
 * Child main: read task frames off the task socket, run each task,
 * write the result frame back. EOF on the task socket is the orderly
 * shutdown signal. Exit codes: 2 = task machinery threw, 3 = result
 * channel broke.
 */
[[noreturn]] void
workerChildMain(const WorkerPoolOptions &options, int slot, int taskFd,
                int resultFd)
{
    if (options.childInit)
        options.childInit(slot);
    // The parent enforces deadlines from outside; a worker blocked in
    // read() between tasks must die quietly when its channels close.
    ::signal(SIGPIPE, SIG_DFL);
    FrameReader frames;
    std::string payload;
    char buf[4096];
    for (;;) {
        while (frames.next(&payload)) {
            std::string out;
            Json task;
            if (!Json::parse(payload, &task))
                _exit(2);
            const Json *cell = task.find("cell");
            if (!cell)
                _exit(2);
            uint64_t id = 0;
            double deadlineSeconds = 0;
            std::string traceId;
            if (const Json *t = task.find("t"))
                id = t->asUint(0);
            if (const Json *d = task.find("deadlineMs"))
                deadlineSeconds =
                    static_cast<double>(d->asUint(0)) / 1000.0;
            if (const Json *tr = task.find("trace"))
                traceId = tr->str();
            try {
                std::string report =
                    options.runCell(*cell, deadlineSeconds, traceId);
                std::string aux;
                if (options.childCollect) {
                    Json collected = options.childCollect(traceId);
                    if (collected.isObject() && collected.size() > 0)
                        aux = strcat(",\"aux\":", collected.dump());
                }
                out = strcat("{\"t\":", id, aux,
                             ",\"report\":", report, "}");
            } catch (...) {
                _exit(2);
            }
            if (!sendAll(resultFd, encodeFrame(out)))
                _exit(3);
        }
        if (frames.error())
            _exit(2);
        ssize_t n = ::read(taskFd, buf, sizeof buf);
        if (n == 0)
            _exit(0); // parent closed the task socket: drain complete
        if (n < 0) {
            if (errno == EINTR)
                continue;
            _exit(2);
        }
        frames.feed(buf, static_cast<size_t>(n));
    }
}

} // namespace

bool
WorkerPool::spawn(Worker &w)
{
    if (options_.disableFork) {
        ++stats_.spawnFailures;
        ++consecutiveSpawnFailures_;
        return false;
    }
    int down[2]; // parent -> child
    int up[2];   // child -> parent
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, down) != 0) {
        ++stats_.spawnFailures;
        ++consecutiveSpawnFailures_;
        return false;
    }
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, up) != 0) {
        ::close(down[0]);
        ::close(down[1]);
        ++stats_.spawnFailures;
        ++consecutiveSpawnFailures_;
        return false;
    }
#ifdef SO_NOSIGPIPE
    int one = 1;
    ::setsockopt(down[1], SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
    ::setsockopt(up[1], SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#endif
    pid_t pid = ::fork();
    if (pid < 0) {
        ::close(down[0]);
        ::close(down[1]);
        ::close(up[0]);
        ::close(up[1]);
        ++stats_.spawnFailures;
        ++consecutiveSpawnFailures_;
        return false;
    }
    if (pid == 0) {
        ::close(down[1]);
        ::close(up[0]);
        workerChildMain(options_, w.slot, down[0], up[1]);
    }
    ::close(down[0]);
    ::close(up[1]);
    ::fcntl(up[0], F_SETFL, O_NONBLOCK);
    w.state = Worker::State::Idle;
    w.pid = pid;
    w.taskFd = down[1];
    w.resultFd = up[0];
    w.frames = FrameReader();
    w.killedByWatchdog = false;
    ++stats_.spawns;
    if (stats_.spawns > options_.workers)
        ++stats_.respawns;
    consecutiveSpawnFailures_ = 0;
    return true;
}

void
WorkerPool::killWorker(Worker &w)
{
    if (w.pid > 0)
        ::kill(w.pid, SIGKILL);
}

/**
 * A worker's result channel hit EOF (or the watchdog fired): collect the
 * exit evidence, fail any in-flight task, and gate the slot's respawn
 * behind exponential backoff.
 */
void
WorkerPool::reap(Worker &w, bool viaWatchdog)
{
    if (w.pid > 0) {
        int status = 0;
        ::waitpid(w.pid, &status, 0);
        int termSignal =
            WIFSIGNALED(status) ? WTERMSIG(status) : 0;
        bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        bool hadTask = w.state == Worker::State::Busy;
        if (hadTask || !clean)
            ++stats_.deaths;
        if (viaWatchdog || w.killedByWatchdog)
            ++stats_.hangKills;
        if (hadTask)
            onFailure_(w.taskId, viaWatchdog || w.killedByWatchdog,
                       termSignal);
    }
    if (w.taskFd >= 0)
        ::close(w.taskFd);
    if (w.resultFd >= 0)
        ::close(w.resultFd);
    w.taskFd = w.resultFd = -1;
    w.pid = -1;
    w.state = Worker::State::Dead;
    ++w.consecutiveDeaths;
    w.notBefore =
        Clock::now() + std::chrono::milliseconds(backoffMillis(
                           options_.backoffBaseMs, options_.backoffCapMs,
                           w.consecutiveDeaths));
}

void
WorkerPool::start()
{
    if (shutdown_)
        return;
    for (Worker &w : workers_) {
        if (!spawn(w) &&
            consecutiveSpawnFailures_ >= kMaxSpawnFailures) {
            breakerOpen_ = true;
            stats_.breakerOpen = true;
            break;
        }
    }
}

bool
WorkerPool::dispatch(uint64_t taskId, const std::string &cellJson,
                     double deadlineSeconds, const std::string &traceId,
                     int *slotOut)
{
    if (breakerOpen_ || shutdown_)
        return false;
    for (Worker &w : workers_) {
        if (w.state != Worker::State::Idle)
            continue;
        double watchdogSeconds =
            (deadlineSeconds > 0 ? deadlineSeconds
                                 : options_.defaultTaskSeconds) +
            static_cast<double>(options_.watchdogGraceMs) / 1000.0;
        uint64_t deadlineMs = deadlineSeconds > 0
                                  ? static_cast<uint64_t>(
                                        deadlineSeconds * 1000.0)
                                  : 0;
        std::string trace =
            traceId.empty() ? std::string()
                            : strcat(",\"trace\":", Json(traceId).dump());
        std::string frame = encodeFrame(
            strcat("{\"t\":", taskId, ",\"deadlineMs\":", deadlineMs,
                   trace, ",\"cell\":", cellJson, "}"));
        // At most one task is in flight per worker and the child reads
        // between tasks, so this blocking write cannot deadlock; a
        // write failure means the child died (idle, unnoticed until
        // now), so reap it and try the next idle worker.
        if (!sendAll(w.taskFd, frame)) {
            reap(w, /*viaWatchdog=*/false);
            continue;
        }
        w.state = Worker::State::Busy;
        w.taskId = taskId;
        w.killedByWatchdog = false;
        w.watchdog = Clock::now() +
                     std::chrono::milliseconds(static_cast<int64_t>(
                         watchdogSeconds * 1000.0));
        if (slotOut != nullptr)
            *slotOut = w.slot;
        return true;
    }
    return false;
}

void
WorkerPool::collectFds(std::vector<struct pollfd> &out) const
{
    for (const Worker &w : workers_)
        if (w.resultFd >= 0)
            out.push_back({w.resultFd, POLLIN, 0});
}

void
WorkerPool::onReadable()
{
    for (Worker &w : workers_) {
        if (w.resultFd < 0)
            continue;
        char buf[4096];
        bool eof = false;
        for (;;) {
            ssize_t n = ::read(w.resultFd, buf, sizeof buf);
            if (n > 0) {
                w.frames.feed(buf, static_cast<size_t>(n));
                continue;
            }
            if (n == 0)
                eof = true;
            else if (errno == EINTR)
                continue;
            break; // EAGAIN (no more data) or EOF or error
        }
        std::string payload;
        while (w.frames.next(&payload)) {
            uint64_t id = w.taskId;
            std::string report;
            const Json *aux = nullptr;
            Json env;
            if (Json::parse(payload, &env)) {
                if (const Json *t = env.find("t"))
                    id = t->asUint(id);
                if (const Json *rep = env.find("report"))
                    report = rep->dump();
                aux = env.find("aux");
            }
            if (w.state == Worker::State::Busy && id == w.taskId) {
                w.state = Worker::State::Idle;
                w.consecutiveDeaths = 0;
                // Relay first: merged metrics and imported spans must
                // be visible before the report is delivered.
                if (aux != nullptr && onAux_)
                    onAux_(w.slot, *aux);
                if (!report.empty())
                    onResult_(id, report);
                else
                    onFailure_(id, /*hang=*/false, /*termSignal=*/0);
            }
        }
        if (w.frames.error() && w.state != Worker::State::Dead) {
            killWorker(w);
            reap(w, /*viaWatchdog=*/false);
            continue;
        }
        if (eof)
            reap(w, /*viaWatchdog=*/false);
    }
}

void
WorkerPool::tick()
{
    if (shutdown_)
        return;
    Clock::time_point now = Clock::now();
    for (Worker &w : workers_) {
        if (w.state == Worker::State::Busy && now >= w.watchdog &&
            !w.killedByWatchdog) {
            // Presumed hung: SIGKILL now; the EOF on its result channel
            // routes through reap() with the hang evidence.
            w.killedByWatchdog = true;
            killWorker(w);
        }
        if (w.state == Worker::State::Dead && !breakerOpen_ &&
            now >= w.notBefore) {
            if (!spawn(w) &&
                consecutiveSpawnFailures_ >= kMaxSpawnFailures) {
                breakerOpen_ = true;
                stats_.breakerOpen = true;
            }
        }
    }
}

int
WorkerPool::nextDeadlineMs(int cap) const
{
    int64_t best = cap;
    for (const Worker &w : workers_) {
        int64_t ms = -1;
        if (w.state == Worker::State::Busy)
            ms = millisUntil(w.watchdog);
        else if (w.state == Worker::State::Dead && !breakerOpen_ &&
                 !shutdown_)
            ms = millisUntil(w.notBefore);
        else
            continue;
        if (ms < 0)
            ms = 0;
        if (ms < best)
            best = ms;
    }
    return static_cast<int>(best);
}

void
WorkerPool::pollOnce(int capMs)
{
    std::vector<struct pollfd> fds;
    collectFds(fds);
    int rc = ::poll(fds.data(), fds.size(), nextDeadlineMs(capMs));
    if (rc < 0 && errno != EINTR)
        fatal("process pool poll() failed: ", errno);
    onReadable();
    tick();
}

std::vector<int>
WorkerPool::workerPids() const
{
    std::vector<int> pids;
    for (const Worker &w : workers_)
        if (w.pid > 0)
            pids.push_back(w.pid);
    return pids;
}

void
WorkerPool::shutdown(int waitMs)
{
    if (shutdown_)
        return;
    shutdown_ = true;
    // Close task channels: idle workers exit on EOF immediately; busy
    // workers finish their task first (their result still streams).
    for (Worker &w : workers_) {
        if (w.taskFd >= 0)
            ::close(w.taskFd);
        w.taskFd = -1;
    }
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(waitMs);
    for (;;) {
        std::vector<struct pollfd> fds;
        collectFds(fds);
        if (fds.empty())
            break;
        int64_t remaining = millisUntil(deadline);
        if (remaining < 0)
            remaining = 0;
        int rc = ::poll(fds.data(), fds.size(),
                        static_cast<int>(remaining > 100 ? 100
                                                         : remaining));
        if (rc < 0 && errno != EINTR)
            break;
        onReadable();
        if (Clock::now() >= deadline)
            break;
    }
    // Stragglers did not finish within the drain bound: kill them and
    // report their tasks as hangs so no request is left dangling.
    for (Worker &w : workers_) {
        if (w.pid > 0) {
            bool busy = w.state == Worker::State::Busy;
            if (busy)
                w.killedByWatchdog = true;
            killWorker(w);
            reap(w, /*viaWatchdog=*/busy);
        }
    }
}

bool
WorkerPool::degraded() const
{
    return breakerOpen_;
}

int
WorkerPool::idleWorkers() const
{
    int n = 0;
    for (const Worker &w : workers_)
        if (w.state == Worker::State::Idle)
            ++n;
    return n;
}

int
WorkerPool::busyWorkers() const
{
    int n = 0;
    for (const Worker &w : workers_)
        if (w.state == Worker::State::Busy)
            ++n;
    return n;
}

} // namespace mxl
