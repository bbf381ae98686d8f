/**
 * @file
 * The measurement service suite (`serve` ctest label).
 *
 * Three layers, matching src/serve/:
 *  - wire units: frame codec robustness and the cell <-> RunRequest
 *    round trip (the admission decoder IS the worker decoder);
 *  - admission units: all-or-nothing shedding and the
 *    backlog-proportional retry hint;
 *  - end-to-end: a real Server on a real Unix socket, driven through
 *    ServeClient — streaming, deadline propagation, overload, worker
 *    crash/hang containment (chaos cells), graceful drain, and the
 *    degraded in-process fallback.
 *
 * The e2e invariant under test everywhere: EXACTLY ONE terminal
 * response per request, and every admitted cell resolves to exactly
 * one report, no matter what the workers do. Run under
 * -DMXL_SANITIZE=address (pipe/buffer bookkeeping) and
 * -DMXL_SANITIZE=thread (the pid mirror and requestStop seams):
 *   ctest --test-dir build -L serve --output-on-failure
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/engine.h"
#include "core/report.h"
#include "serve/admission.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"

using namespace mxl;

namespace {

// ---------------------------------------------------------------- wire

TEST(Wire, FrameRoundTripsThroughByteAtATimeFeed)
{
    std::string a = encodeFrame(std::string("{\"x\":1}"));
    std::string b = encodeFrame(std::string("{\"y\":\"two\"}"));
    std::string stream = a + b;
    FrameReader reader;
    std::vector<std::string> got;
    std::string payload;
    for (char c : stream) {
        reader.feed(&c, 1);
        while (reader.next(&payload))
            got.push_back(payload);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], "{\"x\":1}");
    EXPECT_EQ(got[1], "{\"y\":\"two\"}");
    EXPECT_FALSE(reader.error());
    EXPECT_EQ(reader.pendingBytes(), 0u);
}

TEST(Wire, MakeTraceIdIsUniqueAndWellFormed)
{
    std::set<std::string> seen;
    for (int i = 0; i < 1000; ++i) {
        std::string id = makeTraceId();
        ASSERT_EQ(id.size(), 17u) << id;
        ASSERT_EQ(id[0], 't');
        for (size_t c = 1; c < id.size(); ++c)
            ASSERT_TRUE(std::isxdigit(
                static_cast<unsigned char>(id[c])))
                << id;
        EXPECT_TRUE(seen.insert(id).second) << "duplicate " << id;
    }
}

TEST(Wire, TraceIdRidesTheGridFrameAndUnknownKeysStayIgnored)
{
    // The grid request schema gained "traceId"; parseCell must keep
    // ignoring keys it doesn't model so traced and untraced peers
    // interoperate (the cell decoder sees request-level keys only via
    // forwarding mistakes — either way, unknown keys never reject).
    Json cell = Json::object();
    cell.set("label", "x");
    cell.set("source", "(exit 0)");
    cell.set("traceId", "t0123456789abcdef");
    WireCell wc;
    std::string err;
    ASSERT_TRUE(parseCell(cell, &wc, &err)) << err;
    EXPECT_EQ(wc.request.label, "x");
}

TEST(Wire, FrameReaderPoisonsOnGarbagePrefix)
{
    FrameReader reader;
    reader.feed("hello, not a frame\n");
    std::string payload;
    EXPECT_FALSE(reader.next(&payload));
    EXPECT_TRUE(reader.error());
    // Poisoned stays poisoned, even fed a valid frame.
    reader.feed(encodeFrame(std::string("{}")));
    EXPECT_FALSE(reader.next(&payload));
    EXPECT_TRUE(reader.error());
}

TEST(Wire, FrameReaderRejectsOversizedAndUnterminated)
{
    FrameReader oversized;
    oversized.feed(std::to_string(kMaxFrameBytes + 1) + "\n");
    std::string payload;
    EXPECT_FALSE(oversized.next(&payload));
    EXPECT_TRUE(oversized.error());

    // 2^64 + 1: twenty digits that would wrap size_t into a one-byte
    // frame if the prefix were summed unchecked.
    FrameReader wrapped;
    wrapped.feed("18446744073709551617\nX\n");
    EXPECT_FALSE(wrapped.next(&payload));
    EXPECT_TRUE(wrapped.error());

    FrameReader unterminated;
    unterminated.feed("2\n{}X"); // payload not newline-terminated
    EXPECT_FALSE(unterminated.next(&payload));
    EXPECT_TRUE(unterminated.error());
}

TEST(Wire, ParseCellResolvesProgramsAndOptions)
{
    Json cell = Json::object();
    cell.set("program", "inter");
    Json o = Json::object();
    o.set("scheme", "low2");
    o.set("checking", "off");
    cell.set("options", std::move(o));
    cell.set("deadlineMs", static_cast<uint64_t>(1500));
    cell.set("backend", "interpreter");

    WireCell wc;
    std::string err;
    ASSERT_TRUE(parseCell(cell, &wc, &err)) << err;
    EXPECT_EQ(wc.request.label, "inter");
    EXPECT_FALSE(wc.request.source.empty());
    EXPECT_EQ(wc.request.opts.scheme, SchemeKind::Low2);
    EXPECT_EQ(wc.request.opts.checking, Checking::Off);
    EXPECT_DOUBLE_EQ(wc.request.exec.deadlineSeconds, 1.5);
    EXPECT_EQ(wc.request.exec.backend, Backend::Interpreter);
    EXPECT_FALSE(wc.hasFault);

    Json src = Json::object();
    src.set("label", "rt");
    src.set("source", "(print 42)");
    Json full = Json::object();
    full.set("scheme", "high6");
    full.set("checking", "full");
    src.set("options", std::move(full));
    src.set("maxCycles", static_cast<uint64_t>(123456));
    src.set("backend", "translated");

    ASSERT_TRUE(parseCell(src, &wc, &err)) << err;
    EXPECT_EQ(wc.request.label, "rt");
    EXPECT_EQ(wc.request.source, "(print 42)");
    EXPECT_EQ(wc.request.opts.scheme, SchemeKind::High6);
    EXPECT_EQ(wc.request.opts.checking, Checking::Full);
    EXPECT_EQ(wc.request.exec.maxCycles, 123456u);
    EXPECT_EQ(wc.request.exec.backend, Backend::Translated);

    // Every field off its default survives compilerOptionsJson and the
    // decoder: cacheKey serialises every field, so a field the encoder
    // writes and the decoder drops changes the key.
    CompilerOptions every;
    every.scheme = SchemeKind::Low3;
    every.checking = Checking::Full;
    every.arithMode = ArithMode::ForceDispatch;
    every.hw.ignoreTagOnMemory = true;
    every.hw.branchOnTag = true;
    every.hw.genericArith = true;
    every.hw.checkedMemory = CheckedMem::All;
    every.hw.memTagging = true;
    every.fillDelaySlots = false;
    every.overlapChecks = true;
    every.verifyLinked = true;
    every.memBytes = 16u << 20;
    every.staticBytes = 2u << 20;
    every.heapBytes = 1u << 20;
    Json all = Json::object();
    all.set("source", "(print 42)");
    all.set("options", compilerOptionsJson(every));
    ASSERT_TRUE(parseCell(all, &wc, &err)) << err;
    EXPECT_EQ(Engine::cacheKey("", wc.request.opts),
              Engine::cacheKey("", every));
}

TEST(Wire, ParseCellRejectsMalformedInput)
{
    WireCell wc;
    std::string err;

    Json noSource = Json::object();
    noSource.set("label", "x");
    EXPECT_FALSE(parseCell(noSource, &wc, &err));
    EXPECT_NE(err.find("source"), std::string::npos);

    Json badProgram = Json::object();
    badProgram.set("program", "no-such-benchmark");
    EXPECT_FALSE(parseCell(badProgram, &wc, &err));

    Json badScheme = Json::object();
    badScheme.set("source", "(exit 0)");
    Json o = Json::object();
    o.set("scheme", "high9");
    badScheme.set("options", std::move(o));
    EXPECT_FALSE(parseCell(badScheme, &wc, &err));

    // 2^32 + 2^25 would truncate to the default 32 MiB image.
    Json wideMem = Json::object();
    wideMem.set("source", "(exit 0)");
    Json wide = Json::object();
    wide.set("memBytes", static_cast<uint64_t>(4328521728ull));
    wideMem.set("options", std::move(wide));
    EXPECT_FALSE(parseCell(wideMem, &wc, &err));
    EXPECT_NE(err.find("memBytes"), std::string::npos) << err;

    EXPECT_FALSE(parseCell(Json("not an object"), &wc, &err));
}

TEST(Wire, ParseCellArmsFaults)
{
    Json cell = Json::object();
    cell.set("source", "(exit 0)");
    Json fault = Json::object();
    fault.set("class", "tag-corrupt");
    fault.set("seed", static_cast<uint64_t>(7));
    cell.set("fault", std::move(fault));

    WireCell wc;
    std::string err;
    ASSERT_TRUE(parseCell(cell, &wc, &err)) << err;
    EXPECT_TRUE(wc.hasFault);
    EXPECT_TRUE(static_cast<bool>(wc.request.hooks.imageMutator));

    // A live-run class without a pause cycle is rejected, not
    // silently armed as a no-op.
    for (const char *cls : {"heap-tag-corrupt", "call-arg-type"}) {
        Json bad = Json::object();
        bad.set("source", "(exit 0)");
        Json badFault = Json::object();
        badFault.set("class", cls);
        bad.set("fault", std::move(badFault));
        EXPECT_FALSE(parseCell(bad, &wc, &err)) << cls;
        EXPECT_NE(err.find("pause"), std::string::npos) << cls;
    }

    // With one, call-arg-type arms the pause.
    Json callArg = Json::object();
    callArg.set("source", "(exit 0)");
    Json callFault = Json::object();
    callFault.set("class", "call-arg-type");
    callFault.set("pause", static_cast<uint64_t>(40));
    callArg.set("fault", std::move(callFault));
    ASSERT_TRUE(parseCell(callArg, &wc, &err)) << err;
    EXPECT_EQ(wc.request.hooks.pauseAtCycle, 40u);
    EXPECT_TRUE(static_cast<bool>(wc.request.hooks.pauseHook));
}

// ----------------------------------------------------------- admission

TEST(Admission, AllOrNothingAdmissionAndShedAccounting)
{
    AdmissionQueue q(4, 2);
    EXPECT_TRUE(q.canAdmit(4));
    EXPECT_FALSE(q.canAdmit(5));
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_TRUE(q.canAdmit(1));
    EXPECT_FALSE(q.canAdmit(2)); // 3 queued + 2 > 4: whole request shed
    q.shed(2);
    EXPECT_EQ(q.shedRequests(), 1u);
    EXPECT_EQ(q.shedCells(), 2u);
    EXPECT_EQ(q.admittedCells(), 3u);
    EXPECT_EQ(q.depth(), 3u);
    EXPECT_EQ(q.front(), 1u);
    q.pop();
    EXPECT_EQ(q.front(), 2u);
}

TEST(Admission, RetryHintGrowsWithBacklogAndServiceTime)
{
    AdmissionQueue q(100, 1);
    int64_t empty = q.retryAfterMs(1);
    EXPECT_GE(empty, 50); // floor: never tell a client to busy-spin
    for (uint64_t i = 0; i < 50; ++i)
        q.push(i);
    int64_t backlogged = q.retryAfterMs(1);
    EXPECT_GE(backlogged, empty);
    // Slow observed service times push the hint up.
    for (int i = 0; i < 64; ++i)
        q.observeServiceSeconds(1.0);
    EXPECT_GT(q.retryAfterMs(1), backlogged);
}

// ----------------------------------------------------------------- e2e

std::string
uniqueSocketPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/mxl_serve_t" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

Json
sourceCell(const std::string &label, const std::string &source)
{
    Json cell = Json::object();
    cell.set("label", label);
    cell.set("source", source);
    return cell;
}

/** A server on a unique socket, its loop on a background thread. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    startServer(ServerOptions options)
    {
        options.unixPath = socketPath_ = uniqueSocketPath();
        server_ = std::make_unique<Server>(std::move(options));
        std::string err;
        ASSERT_TRUE(server_->start(&err)) << err;
        loop_ = std::thread([this] { server_->serve(); });
    }

    void
    TearDown() override
    {
        if (server_) {
            server_->requestStop();
            if (loop_.joinable())
                loop_.join();
            server_.reset();
        }
        ::unlink(socketPath_.c_str());
    }

    ServeClient
    connect()
    {
        ServeClient client;
        std::string err;
        // The listener is bound before serve() starts, so no race.
        EXPECT_TRUE(client.connectUnix(socketPath_, &err)) << err;
        return client;
    }

    std::string socketPath_;
    std::unique_ptr<Server> server_;
    std::thread loop_;
};

TEST_F(ServeTest, GridStreamsEveryCellThenExactlyOneDone)
{
    ServerOptions options;
    options.workers = 2;
    startServer(options);
    ServeClient client = connect();

    std::vector<Json> cells;
    for (int i = 0; i < 4; ++i)
        cells.push_back(sourceCell("c" + std::to_string(i),
                                   "(print (+ " + std::to_string(i) +
                                       " 10))"));
    std::map<size_t, Json> reports;
    ServeClient::GridOutcome outcome = client.runGrid(
        "stream", cells, 0, [&](size_t index, const Json &report) {
            EXPECT_EQ(reports.count(index), 0u)
                << "duplicate report for cell " << index;
            reports[index] = report;
        });
    ASSERT_EQ(outcome.kind, ServeClient::GridOutcome::Kind::Done);
    EXPECT_EQ(outcome.cells, 4u);
    EXPECT_EQ(outcome.failed, 0u);
    ASSERT_EQ(reports.size(), 4u);
    for (size_t i = 0; i < 4; ++i) {
        const Json *ok = reports[i].find("statusOk");
        ASSERT_NE(ok, nullptr);
        EXPECT_TRUE(ok->asBool(false));
        const Json *output = reports[i].find("output");
        ASSERT_NE(output, nullptr);
        EXPECT_EQ(output->str(),
                  std::to_string(i + 10) + "\n");
    }
}

TEST_F(ServeTest, CellDeadlinePropagatesIntoExecPolicy)
{
    ServerOptions options;
    options.workers = 1;
    startServer(options);
    ServeClient client = connect();

    Json spin = sourceCell(
        "spin", "(setq i 0) (while t (setq i (add1 i)))");
    spin.set("deadlineMs", static_cast<uint64_t>(300));
    Json report;
    ServeClient::GridOutcome outcome =
        client.runGrid("deadline", {spin}, 0,
                       [&](size_t, const Json &r) { report = r; });
    ASSERT_EQ(outcome.kind, ServeClient::GridOutcome::Kind::Done);
    EXPECT_EQ(outcome.failed, 1u);
    const Json *code = report.find("statusCode");
    ASSERT_NE(code, nullptr);
    // Timeout from the simulator's own deadline check, not a worker
    // death: the engine caught it, the worker survived.
    EXPECT_EQ(code->asInt(-1),
              static_cast<int64_t>(RunStatus::Code::Timeout));
    EXPECT_EQ(report.find("workerDeath"), nullptr);
}

TEST_F(ServeTest, RequestDeadlineBoundsQueuedCells)
{
    ServerOptions options;
    options.workers = 1;
    startServer(options);
    ServeClient client = connect();

    // One worker, three spin cells, 400ms request budget: the first
    // cell burns the budget in the worker, the queued rest expire
    // server-side. Every cell still reports, done still arrives.
    std::vector<Json> cells;
    for (int i = 0; i < 3; ++i)
        cells.push_back(sourceCell(
            "q" + std::to_string(i),
            "(setq i 0) (while t (setq i (add1 i)))"));
    size_t timeouts = 0, got = 0;
    ServeClient::GridOutcome outcome = client.runGrid(
        "budget", cells, 400, [&](size_t, const Json &r) {
            ++got;
            const Json *code = r.find("statusCode");
            if (code &&
                code->asInt(-1) ==
                    static_cast<int64_t>(RunStatus::Code::Timeout))
                ++timeouts;
        });
    ASSERT_EQ(outcome.kind, ServeClient::GridOutcome::Kind::Done);
    EXPECT_EQ(got, 3u);
    EXPECT_EQ(timeouts, 3u);
    EXPECT_EQ(outcome.failed, 3u);
}

TEST_F(ServeTest, OverCapacityRequestShedsWithRetryHint)
{
    ServerOptions options;
    options.workers = 1;
    options.queueCapacity = 2;
    startServer(options);
    ServeClient client = connect();

    std::vector<Json> three;
    for (int i = 0; i < 3; ++i)
        three.push_back(sourceCell("s" + std::to_string(i), "(exit 0)"));
    ServeClient::GridOutcome shed =
        client.runGrid("big", three, 0, nullptr);
    ASSERT_EQ(shed.kind, ServeClient::GridOutcome::Kind::Overloaded);
    EXPECT_GE(shed.retryAfterMs, 50);

    // A fitting request on the same connection still admits: shedding
    // is per-request, not a connection death sentence.
    std::vector<Json> two;
    for (int i = 0; i < 2; ++i)
        two.push_back(sourceCell("t" + std::to_string(i), "(exit 0)"));
    ServeClient::GridOutcome admitted =
        client.runGrid("small", two, 0, nullptr);
    EXPECT_EQ(admitted.kind, ServeClient::GridOutcome::Kind::Done);
}

TEST_F(ServeTest, WorkerCrashBecomesStructuredCellErrorAndPoolRecovers)
{
    ServerOptions options;
    options.workers = 1;
    options.enableChaosCells = true;
    startServer(options);
    ServeClient client = connect();

    Json crash = sourceCell("__chaos:crash", "(exit 0)");
    Json report;
    ServeClient::GridOutcome outcome =
        client.runGrid("crash", {crash}, 0,
                       [&](size_t, const Json &r) { report = r; });
    ASSERT_EQ(outcome.kind, ServeClient::GridOutcome::Kind::Done);
    EXPECT_EQ(outcome.failed, 1u);
    const Json *death = report.find("workerDeath");
    ASSERT_NE(death, nullptr);
    EXPECT_EQ(death->find("kind")->str(), "signal");
    EXPECT_EQ(death->find("signal")->asInt(0), SIGABRT);

    // The slot respawns (backoff-bounded) and serves the next request.
    ServeClient::GridOutcome after = client.runGrid(
        "after-crash", {sourceCell("ok", "(print 5)")}, 0, nullptr);
    EXPECT_EQ(after.kind, ServeClient::GridOutcome::Kind::Done);
    EXPECT_EQ(after.failed, 0u);
}

TEST_F(ServeTest, HungWorkerIsKilledAndReportedAsHang)
{
    ServerOptions options;
    options.workers = 1;
    options.enableChaosCells = true;
    options.watchdogGraceMs = 300;
    startServer(options);
    ServeClient client = connect();

    Json hang = sourceCell("__chaos:hang", "(exit 0)");
    hang.set("deadlineMs", static_cast<uint64_t>(200));
    Json report;
    ServeClient::GridOutcome outcome =
        client.runGrid("hang", {hang}, 0,
                       [&](size_t, const Json &r) { report = r; });
    ASSERT_EQ(outcome.kind, ServeClient::GridOutcome::Kind::Done);
    EXPECT_EQ(outcome.failed, 1u);
    const Json *death = report.find("workerDeath");
    ASSERT_NE(death, nullptr);
    EXPECT_EQ(death->find("kind")->str(), "hang");
    const Json *code = report.find("statusCode");
    EXPECT_EQ(code->asInt(-1),
              static_cast<int64_t>(RunStatus::Code::Timeout));
}

TEST_F(ServeTest, DrainFinishesInFlightWorkAndAnswersEveryRequest)
{
    ServerOptions options;
    options.workers = 2;
    options.drainMs = 5000;
    startServer(options);
    ServeClient client = connect();

    std::vector<Json> cells;
    for (int i = 0; i < 6; ++i)
        cells.push_back(
            sourceCell("d" + std::to_string(i), "(print 1)"));
    // Stop the server the moment the first cell streams back: the
    // remaining cells are mid-queue/mid-flight, exactly what drain
    // must resolve.
    size_t got = 0;
    ServeClient::GridOutcome outcome = client.runGrid(
        "drain", cells, 0, [&](size_t, const Json &) {
            if (++got == 1)
                server_->requestStop();
        });
    ASSERT_EQ(outcome.kind, ServeClient::GridOutcome::Kind::Done);
    EXPECT_EQ(got, 6u);
    loop_.join(); // serve() must return on its own after the drain
}

TEST_F(ServeTest, DegradedModeServesInProcess)
{
    ServerOptions options;
    options.disableFork = true; // circuit breaker opens immediately
    startServer(options);
    ServeClient client = connect();

    Json health;
    std::string err;
    ASSERT_TRUE(client.health(&health, &err)) << err;
    EXPECT_TRUE(health.find("degraded")->asBool(false));
    // The breaker opens at exactly its constant, then forks no more.
    EXPECT_EQ(health.find("spawnFailures")->asInt(-1), kMaxSpawnFailures);

    Json report;
    ServeClient::GridOutcome outcome = client.runGrid(
        "degraded", {sourceCell("inline", "(print 9)")}, 0,
        [&](size_t, const Json &r) { report = r; });
    ASSERT_EQ(outcome.kind, ServeClient::GridOutcome::Kind::Done);
    EXPECT_EQ(outcome.failed, 0u);
    EXPECT_EQ(report.find("output")->str(), "9\n");

    // Chaos cells are refused inline — a hang would wedge the loop.
    Json chaos = sourceCell("__chaos:hang", "(exit 0)");
    ServeClient::GridOutcome refused =
        client.runGrid("degraded-chaos", {chaos}, 0, nullptr);
    ASSERT_EQ(refused.kind, ServeClient::GridOutcome::Kind::Done);
    EXPECT_EQ(refused.failed, 1u);
}

TEST_F(ServeTest, BadCellRejectsWholeRequestWithTerminalError)
{
    ServerOptions options;
    startServer(options);
    ServeClient client = connect();

    std::vector<Json> cells;
    cells.push_back(sourceCell("good", "(exit 0)"));
    Json bad = Json::object();
    bad.set("program", "no-such-benchmark");
    cells.push_back(bad);
    size_t got = 0;
    ServeClient::GridOutcome outcome = client.runGrid(
        "mixed", cells, 0, [&](size_t, const Json &) { ++got; });
    ASSERT_EQ(outcome.kind, ServeClient::GridOutcome::Kind::Error);
    EXPECT_NE(outcome.message.find("cell 1"), std::string::npos);
    EXPECT_EQ(got, 0u); // all-or-nothing: the good cell never ran
}

TEST_F(ServeTest, HealthReportsMetricsSnapshot)
{
    ServerOptions options;
    options.workers = 1;
    startServer(options);
    ServeClient client = connect();

    client.runGrid("warm", {sourceCell("w", "(exit 0)")}, 0, nullptr);
    Json health;
    std::string err;
    ASSERT_TRUE(client.health(&health, &err)) << err;
    const Json *metrics = health.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const Json *counters = metrics->find("counters");
    ASSERT_NE(counters, nullptr);
    const Json *cellsServed = counters->find("serve.cells");
    ASSERT_NE(cellsServed, nullptr);
    EXPECT_GE(cellsServed->asUint(0), 1u);
    EXPECT_EQ(health.find("queueCapacity")->asUint(0), 256u);
}

TEST_F(ServeTest, MalformedFramingDropsOnlyTheOffendingConnection)
{
    ServerOptions options;
    startServer(options);

    // Drive a raw socket past the framing layer: garbage poisons the
    // server-side FrameReader, which must hang up on this connection
    // without harming its neighbors.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  socketPath_.c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);
    const char garbage[] = "this is not a length-prefixed frame\n";
    ASSERT_GT(::write(fd, garbage, sizeof garbage - 1), 0);
    char buf[64];
    EXPECT_EQ(::read(fd, buf, sizeof buf), 0); // server hung up
    ::close(fd);

    ServeClient fine = connect();
    std::string err;
    EXPECT_TRUE(fine.ping(&err)) << err;
}

TEST_F(ServeTest, TraceAndMetricsRelayHomeAcrossTheForkBoundary)
{
    std::string tracePath = "/tmp/mxl_serve_trace_" +
                            std::to_string(::getpid()) + ".json";
    ::unlink(tracePath.c_str());
    ServerOptions options;
    options.workers = 1;
    options.warmCache = true; // workers inherit a warm cache COW
    options.tracePath = tracePath;
    startServer(options);
    ServeClient client = connect();

    // A warmed program cell (COW cache hit inside the worker) plus a
    // source cell; both run in the forked worker.
    Json warm = Json::object();
    warm.set("label", "warm");
    warm.set("program", "inter");
    std::vector<Json> cells{warm, sourceCell("src", "(print 3)")};
    ServeClient::GridOutcome outcome =
        client.runGrid("traced", cells, 0, nullptr);
    ASSERT_EQ(outcome.kind, ServeClient::GridOutcome::Kind::Done);
    EXPECT_EQ(outcome.failed, 0u);
    ASSERT_FALSE(outcome.traceId.empty());

    // The health snapshot must aggregate worker-side engine counters:
    // the parent process never ran a cell, so nonzero runs (and the
    // COW cache hit) prove the per-result metric deltas merged home.
    Json health;
    std::string err;
    ASSERT_TRUE(client.health(&health, &err)) << err;
    const Json *counters = health.find("metrics")->find("counters");
    ASSERT_NE(counters, nullptr);
    EXPECT_GE(counters->find("engine.runs")->asUint(0), 2u);
    ASSERT_NE(counters->find("engine.cache.hits"), nullptr);
    EXPECT_GE(counters->find("engine.cache.hits")->asUint(0), 1u);
    const Json *hists = health.find("metrics")->find("histograms");
    ASSERT_NE(hists, nullptr);
    for (const char *name :
         {"serve.admission_wait_micros", "serve.queue_micros",
          "serve.exec_micros", "serve.e2e_micros"}) {
        const Json *h = hists->find(name);
        ASSERT_NE(h, nullptr) << name;
        EXPECT_GE(h->find("count")->asUint(0), 1u) << name;
    }

    // Drain writes the merged trace; every span of the completed
    // request carries its trace id, and the worker's engine spans
    // landed on the worker's own lane (2 + slot = 2), not the
    // server's.
    server_->requestStop();
    loop_.join();

    std::ifstream in(tracePath);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Json tdoc;
    ASSERT_TRUE(Json::parse(text, &tdoc));
    ASSERT_TRUE(tdoc.isArray());
    std::set<std::string> spanNames;
    size_t tracedSpans = 0, workerLaneSpans = 0;
    for (size_t i = 0; i < tdoc.size(); ++i) {
        const Json &e = tdoc.at(i);
        if (e.find("cat") && e.find("cat")->str() == "__metadata")
            continue;
        const Json *args = e.find("args");
        const Json *tid = args ? args->find("traceId") : nullptr;
        if (tid && tid->str() == outcome.traceId) {
            ++tracedSpans;
            spanNames.insert(e.find("name")->str());
            if (e.find("pid")->asInt() == 2)
                ++workerLaneSpans;
        }
    }
    // Parent request + per-cell exec spans; worker cell + engine
    // compile/run spans, all stamped with the request's trace id.
    EXPECT_EQ(spanNames.count("request"), 1u);
    EXPECT_EQ(spanNames.count("exec"), 1u);
    EXPECT_EQ(spanNames.count("cell"), 1u);
    EXPECT_EQ(spanNames.count("run"), 1u);
    EXPECT_GE(tracedSpans, 5u); // request + 2 exec + 2 cell at least
    EXPECT_GE(workerLaneSpans, 2u);
    ::unlink(tracePath.c_str());
}

TEST_F(ServeTest, WorkerDeathAppearsExactlyOnceInTheStructuredLog)
{
    std::string logPath = "/tmp/mxl_serve_events_" +
                          std::to_string(::getpid()) + ".jsonl";
    ::unlink(logPath.c_str());
    ServerOptions options;
    options.workers = 1;
    options.enableChaosCells = true;
    options.eventLogPath = logPath;
    startServer(options);
    ServeClient client = connect();

    // A crash cell between two healthy cells: the worker dies exactly
    // once, and so must the worker.death event — the log is evidence,
    // not a repeating alarm.
    std::vector<Json> cells{sourceCell("before", "(print 1)"),
                            sourceCell("__chaos:crash", "(exit 0)"),
                            sourceCell("after", "(print 2)")};
    ServeClient::GridOutcome outcome =
        client.runGrid("chaos-log", cells, 0, nullptr);
    ASSERT_EQ(outcome.kind, ServeClient::GridOutcome::Kind::Done);
    EXPECT_EQ(outcome.failed, 1u);
    ASSERT_FALSE(outcome.traceId.empty());

    server_->requestStop();
    loop_.join();

    std::ifstream in(logPath);
    ASSERT_TRUE(in.good());
    std::string line;
    size_t deaths = 0, dones = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        Json e;
        ASSERT_TRUE(Json::parse(line, &e)) << line;
        const std::string &name = e.find("event")->str();
        if (name == "worker.death") {
            ++deaths;
            EXPECT_EQ(e.find("level")->str(), "error");
            EXPECT_EQ(e.find("kind")->str(), "signal");
            EXPECT_EQ(e.find("signal")->asInt(0), SIGABRT);
            ASSERT_NE(e.find("traceId"), nullptr);
            EXPECT_EQ(e.find("traceId")->str(), outcome.traceId);
            EXPECT_EQ(e.find("requestId")->str(), "chaos-log");
            EXPECT_EQ(e.find("label")->str(), "__chaos:crash");
        } else if (name == "request.done") {
            ++dones;
            EXPECT_EQ(e.find("traceId")->str(), outcome.traceId);
        }
    }
    EXPECT_EQ(deaths, 1u);
    EXPECT_EQ(dones, 1u);
    ::unlink(logPath.c_str());
}

} // namespace
