/**
 * @file
 * Chaos load test for the measurement service (src/serve/): a real
 * mxl server on a Unix socket, a fleet of client threads firing grid
 * requests at it, and two saboteurs working against them — a killer
 * thread SIGKILLing random pool workers mid-request, and periodic
 * `__chaos:hang` cells that wedge a worker until the per-task
 * watchdog executes it.
 *
 * The invariant under load is the service's reason to exist: EVERY
 * request concludes with EXACTLY ONE terminal response (done /
 * overloaded / error), every admitted cell resolves to exactly one
 * streamed report (worker deaths become structured per-cell errors,
 * never dropped requests), and the server itself survives. After the
 * load phase the harness raises SIGTERM and checks the graceful drain
 * completes within its bound. Any violation prints FAIL and exits
 * nonzero.
 *
 * Default scale is --requests 1000 completed grid requests across
 * --clients 8 connections against --workers 4, with a worker kill
 * every --kill-every-ms 60 and a hang cell roughly every --hang-every
 * 83rd request. Overload sheds are expected and counted (clients
 * honor retryAfterMs and retry), not failures.
 *
 * Results land in BENCH_serve.json: a bench_diff-compatible grid (a
 * post-chaos golden request's per-cell reports, whose simulated cycle
 * counts are deterministic) plus service-level results — throughput,
 * request-latency p50/p99, shed / worker-death / hang-kill / respawn
 * counts, and the measured drain time. The embedded metrics snapshot
 * carries the four service latency histograms (its p95/p99 gates
 * recompute them for tools/bench_diff) and the engine counters merged
 * home from the workers' per-result metric deltas. The server also runs
 * with --trace and --log equivalents on: BENCH_serve_trace.json must be a
 * valid merged Perfetto trace with one lane per worker and the
 * sampled requests' trace ids on its spans, and
 * BENCH_serve_events.jsonl a parseable structured event log.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "bench_export.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/json.h"

using namespace mxl;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Json
sourceCell(const std::string &label, const std::string &source)
{
    Json cell = Json::object();
    cell.set("label", label);
    cell.set("source", source);
    return cell;
}

Json
hangCell(int64_t deadlineMs)
{
    Json cell = Json::object();
    cell.set("label", "__chaos:hang");
    cell.set("deadlineMs", static_cast<uint64_t>(deadlineMs));
    return cell;
}

/** Everything the client fleet observes, merged under one mutex. */
struct LoadLedger
{
    std::mutex mu;
    uint64_t completed = 0;      ///< done terminals
    uint64_t failedCells = 0;    ///< statusOk=false reports (expected
                                 ///< under chaos: deaths, hang kills)
    uint64_t shedRetries = 0;    ///< overloaded terminals (retried)
    uint64_t duplicateCells = 0; ///< same index reported twice
    uint64_t missingCells = 0;   ///< done without all cell reports
    uint64_t transportErrors = 0;
    uint64_t serverErrors = 0;
    std::vector<double> latencies; ///< seconds, done requests only
    std::vector<std::string> traceIds; ///< done requests (sampled)
};

/** How many done-request trace ids to sample for trace validation. */
constexpr size_t kTraceIdSample = 64;

struct LoadConfig
{
    std::string socketPath;
    uint64_t requests = 1000;
    int clients = 8;
    int hangEvery = 83;
    int64_t hangDeadlineMs = 150;
};

/**
 * One client thread: issue grid requests until the fleet-wide target
 * is reached. A shed request is retried after its hint (capped — this
 * is a stress test, not a politeness test); everything else must
 * conclude as done with a complete, duplicate-free report set.
 */
void
clientMain(const LoadConfig &cfg, int clientIndex,
           std::atomic<uint64_t> *issued, LoadLedger *ledger)
{
    ServeClient client;
    std::string err;
    if (!client.connectUnix(cfg.socketPath, &err)) {
        std::lock_guard<std::mutex> lock(ledger->mu);
        ledger->transportErrors++;
        return;
    }
    for (;;) {
        uint64_t seq = issued->fetch_add(1);
        if (seq >= cfg.requests)
            return;
        std::vector<Json> cells;
        const int nCells = 1 + static_cast<int>(seq % 3);
        for (int c = 0; c < nCells; ++c)
            cells.push_back(sourceCell(
                "r" + std::to_string(seq) + "c" + std::to_string(c),
                "(print (+ " + std::to_string(seq % 7) + " " +
                    std::to_string(c) + "))"));
        // Every 4th request also runs a precompiled benchmark program:
        // the parent warmed it before forking, so the worker's first
        // use is a copy-on-write cache hit — the load that proves the
        // workers' engine counters (nonzero engine.cache.hits) merge
        // home through the per-result metric deltas.
        if (seq % 4 == 0) {
            Json warm = Json::object();
            warm.set("label", "r" + std::to_string(seq) + "warm");
            warm.set("program", "inter");
            cells.push_back(std::move(warm));
        }
        const bool withHang =
            cfg.hangEvery > 0 && seq % cfg.hangEvery == 0;
        if (withHang)
            cells.push_back(hangCell(cfg.hangDeadlineMs));

        const std::string id = "c" + std::to_string(clientIndex) +
                               "-" + std::to_string(seq);
        for (;;) {
            std::map<size_t, int> reports;
            uint64_t duplicates = 0;
            Clock::time_point t0 = Clock::now();
            ServeClient::GridOutcome out = client.runGrid(
                id, cells, 0, [&](size_t index, const Json &) {
                    if (reports.count(index))
                        duplicates++;
                    reports[index] = 1;
                });
            double wall = secondsSince(t0);

            if (out.kind ==
                ServeClient::GridOutcome::Kind::Overloaded) {
                {
                    std::lock_guard<std::mutex> lock(ledger->mu);
                    ledger->duplicateCells += duplicates;
                    ledger->shedRetries++;
                }
                int64_t backoff = std::max<int64_t>(
                    1, std::min<int64_t>(out.retryAfterMs, 200));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(backoff));
                continue; // same request, new attempt
            }
            std::lock_guard<std::mutex> lock(ledger->mu);
            ledger->duplicateCells += duplicates;
            if (out.kind == ServeClient::GridOutcome::Kind::Done) {
                ledger->completed++;
                ledger->failedCells += out.failed;
                if (ledger->traceIds.size() < kTraceIdSample)
                    ledger->traceIds.push_back(out.traceId);
                if (reports.size() != cells.size())
                    ledger->missingCells +=
                        cells.size() - reports.size();
                ledger->latencies.push_back(wall);
            } else if (out.kind ==
                       ServeClient::GridOutcome::Kind::Error) {
                ledger->serverErrors++;
            } else {
                ledger->transportErrors++;
            }
            break;
        }
    }
}

/** SIGKILL a live worker every @p everyMs until told to stop. */
void
killerMain(Server *server, int everyMs, std::atomic<bool> *stop,
           std::atomic<uint64_t> *kills)
{
    size_t rotor = 0;
    while (!stop->load()) {
        // Sleep in small slices so stopping doesn't wait out a long
        // kill interval.
        for (int slept = 0; slept < everyMs && !stop->load();
             slept += 10)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        if (stop->load())
            return;
        std::vector<int> pids = server->workerPids();
        if (pids.empty())
            continue;
        int victim = pids[rotor++ % pids.size()];
        if (victim > 0 && ::kill(victim, SIGKILL) == 0)
            kills->fetch_add(1);
    }
}

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0;
    size_t idx = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
}

uint64_t
healthCounter(const Json &health, const char *field)
{
    const Json *v = health.find(field);
    return v ? v->asUint() : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    LoadConfig cfg;
    int workers = 4;
    size_t queueCapacity = 16;
    int killEveryMs = 150;
    int drainBoundMs = 15000;
    for (int i = 1; i < argc; ++i) {
        auto intArg = [&](const char *flag, auto *out) {
            if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
                *out = static_cast<std::remove_pointer_t<decltype(out)>>(
                    std::strtoll(argv[++i], nullptr, 10));
                return true;
            }
            return false;
        };
        if (intArg("--requests", &cfg.requests) ||
            intArg("--clients", &cfg.clients) ||
            intArg("--workers", &workers) ||
            intArg("--queue", &queueCapacity) ||
            intArg("--kill-every-ms", &killEveryMs) ||
            intArg("--hang-every", &cfg.hangEvery) ||
            intArg("--drain-bound-ms", &drainBoundMs))
            continue;
        std::fprintf(stderr,
                     "usage: bench_serve [--requests N] [--clients N] "
                     "[--workers N] [--queue N] [--kill-every-ms N] "
                     "[--hang-every N] [--drain-bound-ms N]\n");
        return 2;
    }

    cfg.socketPath = "/tmp/mxl_bench_serve_" +
                     std::to_string(::getpid()) + ".sock";
    const std::string tracePath = "BENCH_serve_trace.json";
    const std::string eventLogPath = "BENCH_serve_events.jsonl";
    // The event log appends; a stale file from a previous run would
    // pollute this one's validation.
    ::unlink(tracePath.c_str());
    ::unlink(eventLogPath.c_str());
    ServerOptions options;
    options.unixPath = cfg.socketPath;
    options.workers = workers;
    options.queueCapacity = queueCapacity;
    options.enableChaosCells = true;
    options.warmCache = true;
    options.watchdogGraceMs = 250;
    options.backoffBaseMs = 20;
    options.backoffCapMs = 200;
    options.drainMs = drainBoundMs;
    options.maxCellSeconds = 30;
    options.tracePath = tracePath;
    options.eventLogPath = eventLogPath;

    Server server(std::move(options));
    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "bench_serve: start failed: %s\n",
                     err.c_str());
        return 1;
    }
    server.installSignalHandlers();
    std::thread loop([&] { server.serve(); });

    std::printf("bench_serve: %llu requests, %d clients, %d workers, "
                "queue %zu, kill every %dms, hang every %d\n",
                static_cast<unsigned long long>(cfg.requests),
                cfg.clients, workers, queueCapacity, killEveryMs,
                cfg.hangEvery);

    // ---------------------------------------------------- load phase
    std::atomic<uint64_t> issued{0};
    std::atomic<uint64_t> kills{0};
    std::atomic<bool> stopKiller{false};
    LoadLedger ledger;
    Clock::time_point loadStart = Clock::now();

    std::thread killer(killerMain, &server, killEveryMs, &stopKiller,
                       &kills);
    std::vector<std::thread> fleet;
    for (int c = 0; c < cfg.clients; ++c)
        fleet.emplace_back(clientMain, std::cref(cfg), c, &issued,
                           &ledger);
    for (std::thread &t : fleet)
        t.join();
    double loadSeconds = secondsSince(loadStart);
    stopKiller.store(true);
    killer.join();

    // ------------------------------------- post-chaos health + probes
    ServeClient probe;
    Json health;
    bool healthy = probe.connectUnix(cfg.socketPath, &err) &&
                   probe.health(&health, &err);
    if (!healthy)
        std::fprintf(stderr, "bench_serve: post-chaos health probe "
                             "failed: %s\n",
                     err.c_str());

    // Let the last kills finish their respawn backoff: poll health
    // until the full worker complement is idle (bounded wait).
    auto settle = [&](int boundMs) {
        Clock::time_point t0 = Clock::now();
        while (healthy && secondsSince(t0) * 1e3 < boundMs) {
            Json h;
            if (!probe.health(&h, &err))
                break;
            const Json *idle = h.find("workersIdle");
            if (idle &&
                idle->asUint() == static_cast<uint64_t>(workers))
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(25));
        }
        return false;
    };
    settle(5000);

    // With the killer stopped, a lone hang cell MUST be executed by
    // the per-task watchdog and classified as a hang — during the
    // load phase the killer usually beats the watchdog to a hung
    // worker, so this is the deterministic check of that machinery.
    bool hangClassified = false;
    if (healthy) {
        std::vector<Json> hp{hangCell(cfg.hangDeadlineMs)};
        ServeClient::GridOutcome out = probe.runGrid(
            "hang-probe", hp, 0, [&](size_t, const Json &report) {
                const Json *wd = report.find("workerDeath");
                const Json *kind = wd ? wd->find("kind") : nullptr;
                hangClassified = kind && kind->isString() &&
                                 kind->str() == "hang";
            });
        hangClassified = hangClassified &&
                         out.kind ==
                             ServeClient::GridOutcome::Kind::Done &&
                         out.failed == 1;
    }
    settle(5000);

    // A clean request after the chaos stops: its per-cell reports are
    // the bench_diff grid (simulated cycles are deterministic), and it
    // proves the pool recovered rather than merely not crashing. A
    // few attempts are allowed — the aftermath of the last kill may
    // still fail one dispatch.
    std::vector<Json> golden;
    const char *goldenSrc[] = {
        "(print (+ 1 2))",
        "(print (* 6 7))",
        "(print (- 100 58))",
    };
    for (size_t i = 0; i < 3; ++i)
        golden.push_back(sourceCell("serve/golden" + std::to_string(i),
                                    goldenSrc[i]));
    Json grid = Json::array();
    bool goldenOk = false;
    for (int attempt = 0; healthy && !goldenOk && attempt < 5;
         ++attempt) {
        grid = Json::array();
        ServeClient::GridOutcome out = probe.runGrid(
            "golden" + std::to_string(attempt), golden, 0,
            [&](size_t, const Json &report) { grid.push(report); });
        goldenOk =
            out.kind == ServeClient::GridOutcome::Kind::Done &&
            out.failed == 0 && grid.size() == golden.size();
        if (!goldenOk)
            settle(2000);
    }
    if (healthy) // refresh counters to include the probes
        probe.health(&health, &err);
    probe.close();

    // ----------------------------------------------------- drain test
    Clock::time_point drainStart = Clock::now();
    ::raise(SIGTERM);
    loop.join();
    double drainSeconds = secondsSince(drainStart);
    ::unlink(cfg.socketPath.c_str());

    // --------------------------------------- observability artifacts
    // The refreshed health snapshot must carry the four service
    // latency histograms (the p95/p99 gates read them) and
    // engine counters the parent process never increments itself —
    // cache hits and runs happen inside forked workers, so nonzero
    // values prove the per-result metric deltas merged home.
    auto metricsSection = [&](const char *kind) -> const Json * {
        const Json *m = health.find("metrics");
        const Json *s = m ? m->find(kind) : nullptr;
        return s && s->isObject() ? s : nullptr;
    };
    bool latencyHistogramsOk = true;
    {
        const Json *hists = metricsSection("histograms");
        for (const char *name :
             {"serve.admission_wait_micros", "serve.queue_micros",
              "serve.exec_micros", "serve.e2e_micros"}) {
            const Json *h = hists ? hists->find(name) : nullptr;
            const Json *count = h ? h->find("count") : nullptr;
            if (!count || count->asUint() == 0) {
                latencyHistogramsOk = false;
                std::fprintf(stderr,
                             "bench_serve: histogram %s missing or "
                             "empty in health metrics\n",
                             name);
            }
        }
    }
    bool workerCountersOk = false;
    {
        const Json *counters = metricsSection("counters");
        auto counterValue = [&](const char *name) -> uint64_t {
            const Json *c = counters ? counters->find(name) : nullptr;
            return c ? c->asUint() : 0;
        };
        workerCountersOk = counterValue("engine.cache.hits") > 0 &&
                           counterValue("engine.runs") > 0;
    }

    // The merged Perfetto trace, written when the drain finished:
    // every event well-formed, at least two lanes (server + a
    // worker), and the sampled done-requests' trace ids present.
    bool traceOk = false;
    {
        std::ifstream in(tracePath, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        Json tdoc;
        if (in && Json::parse(text.str(), &tdoc) && tdoc.isArray() &&
            tdoc.size() > 0) {
            bool shaped = true;
            std::set<int64_t> lanes;
            std::set<std::string> tracedIds;
            for (size_t i = 0; i < tdoc.size(); ++i) {
                const Json &e = tdoc.at(i);
                const Json *pid = e.find("pid");
                if (!e.isObject() || !e.find("name") ||
                    !e.find("ph") || !e.find("ts") || !pid ||
                    !e.find("tid")) {
                    shaped = false;
                    break;
                }
                lanes.insert(pid->asInt(0));
                const Json *args = e.find("args");
                const Json *tid = args ? args->find("traceId") : nullptr;
                if (tid && tid->isString())
                    tracedIds.insert(tid->str());
            }
            size_t sampledFound = 0;
            for (const std::string &id : ledger.traceIds)
                if (tracedIds.count(id))
                    ++sampledFound;
            traceOk = shaped && lanes.size() >= 2 &&
                      !ledger.traceIds.empty() &&
                      sampledFound == ledger.traceIds.size();
            if (!traceOk)
                std::fprintf(stderr,
                             "bench_serve: trace check: shaped=%d "
                             "lanes=%zu sampled=%zu/%zu\n",
                             shaped ? 1 : 0, lanes.size(),
                             sampledFound, ledger.traceIds.size());
        } else {
            std::fprintf(stderr,
                         "bench_serve: %s missing or not a JSON "
                         "array\n",
                         tracePath.c_str());
        }
    }

    // The structured event log: every line parses, and the lifecycle
    // events the load phase must have produced are present.
    bool eventLogOk = false;
    {
        std::ifstream in(eventLogPath);
        std::string line;
        bool parsed = in.good();
        uint64_t doneEvents = 0, startEvents = 0, drainEvents = 0;
        while (parsed && std::getline(in, line)) {
            if (line.empty())
                continue;
            Json e;
            if (!Json::parse(line, &e) || !e.isObject() ||
                !e.find("ts") || !e.find("level") || !e.find("event")) {
                parsed = false;
                break;
            }
            const std::string &name = e.find("event")->str();
            if (name == "request.done")
                ++doneEvents;
            else if (name == "server.start")
                ++startEvents;
            else if (name == "server.drain.end")
                ++drainEvents;
        }
        eventLogOk = parsed && startEvents == 1 && drainEvents == 1 &&
                     doneEvents >= ledger.completed;
        if (!eventLogOk)
            std::fprintf(stderr,
                         "bench_serve: event log check: parsed=%d "
                         "start=%llu drain=%llu done=%llu\n",
                         parsed ? 1 : 0,
                         static_cast<unsigned long long>(startEvents),
                         static_cast<unsigned long long>(drainEvents),
                         static_cast<unsigned long long>(doneEvents));
    }

    // ------------------------------------------------------- verdicts
    std::sort(ledger.latencies.begin(), ledger.latencies.end());
    double p50 = percentile(ledger.latencies, 0.50) * 1e3;
    double p99 = percentile(ledger.latencies, 0.99) * 1e3;
    double rps = loadSeconds > 0 ? ledger.completed / loadSeconds : 0;
    uint64_t respawns = healthCounter(health, "workerRespawns");
    uint64_t deaths = healthCounter(health, "workerDeaths");
    uint64_t hangKills = healthCounter(health, "workerHangKills");

    std::printf("\n%llu/%llu requests completed in %.2fs "
                "(%.0f req/s), latency p50 %.1fms p99 %.1fms\n",
                static_cast<unsigned long long>(ledger.completed),
                static_cast<unsigned long long>(cfg.requests),
                loadSeconds, rps, p50, p99);
    std::printf("chaos: %llu worker kills, %llu hang kills, %llu "
                "worker deaths, %llu respawns, %llu failed cells, "
                "%llu sheds (retried)\n",
                static_cast<unsigned long long>(kills.load()),
                static_cast<unsigned long long>(hangKills),
                static_cast<unsigned long long>(deaths),
                static_cast<unsigned long long>(respawns),
                static_cast<unsigned long long>(ledger.failedCells),
                static_cast<unsigned long long>(ledger.shedRetries));

    bool failed = false;
    auto verdict = [&](bool ok, const char *what) {
        std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what);
        if (!ok)
            failed = true;
    };
    verdict(ledger.completed == cfg.requests,
            "every request reached exactly one done terminal");
    verdict(ledger.transportErrors == 0 && ledger.serverErrors == 0,
            "zero dropped connections or server errors under chaos");
    verdict(ledger.duplicateCells == 0 && ledger.missingCells == 0,
            "every admitted cell reported exactly once");
    verdict(healthy, "server answered health after the chaos phase");
    verdict(hangClassified,
            "watchdog killed and classified the hang probe");
    verdict(goldenOk, "pool recovered: clean post-chaos golden grid");
    verdict(drainSeconds * 1e3 <= drainBoundMs + 2000,
            "SIGTERM drain completed within bound");
    verdict(latencyHistogramsOk,
            "health exports the four service latency histograms");
    verdict(workerCountersOk,
            "worker engine counters merged home (cache hits, runs)");
    verdict(traceOk,
            "merged Perfetto trace has per-worker lanes and the "
            "sampled trace ids");
    verdict(eventLogOk,
            "structured event log parses with full lifecycle events");

    // ------------------------------------------------------- artifact
    // The 100us floor keeps a near-zero baseline from failing on noise.
    Json gates = Json::array().push(cycleGate());
    for (const char *p : {"p95", "p99"})
        gates.push(gateJson(p + std::string(" latency"), "metrics.histograms",
                            "serve.*_micros", p, GateKind::Percentile, 0.0,
                            100.0));
    Json doc = benchDoc("serve", std::move(grid), nullptr, gates);
    Json results = Json::object();
    results.set("requests", ledger.completed);
    results.set("attempts",
                ledger.completed + ledger.shedRetries);
    results.set("clients", static_cast<uint64_t>(cfg.clients));
    results.set("workers", static_cast<uint64_t>(workers));
    results.set("loadSeconds", loadSeconds);
    results.set("throughputRps", rps);
    results.set("latencyP50Ms", p50);
    results.set("latencyP99Ms", p99);
    results.set("shedRequests", ledger.shedRetries);
    results.set("failedCells", ledger.failedCells);
    results.set("workerKills", kills.load());
    results.set("workerDeaths", deaths);
    results.set("workerRespawns", respawns);
    results.set("workerHangKills", hangKills);
    results.set("drainSeconds", drainSeconds);
    doc.set("serve", std::move(results));
    if (const Json *m = health.find("metrics"))
        doc.set("metrics", *m);
    if (!writeBenchJson("serve", doc))
        failed = true;

    std::printf("%s  measurement service chaos load\n",
                failed ? "FAIL" : "PASS");
    return failed ? 1 : 0;
}
