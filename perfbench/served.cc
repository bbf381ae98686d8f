/**
 * @file
 * served_mix: closed-loop clients against a locally launched
 * mxl-served over a private Unix socket.
 *
 * Requests take the shape bench/bench_serve.cc's clients send (see
 * servedRequest()): one to three short source cells, plus the built-in
 * program `inter` on every fourth request. The seed draws each
 * request's sequence number, and with it the request's composition.
 *
 * Lifecycle: the server is spawned with kWorkers workers and driven by
 * one more client than that; readiness is the first successful
 * ping plus a warm-up pass over the distinct cells, and it is drained
 * with SIGTERM at the end. A non-zero server exit, an `overloaded`
 * terminal, or a worker death counts as a failed operation.
 *
 * sim_cycles sums the totals the served reports carry. Those reports
 * carry no per-purpose split, so tag_cycles_pct comes from the same
 * cells run in process through an Engine after the timed region; the
 * two totals must agree.
 */

#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/wire.h"

extern char **environ;

using namespace mxl;

namespace perfbench {

namespace {

constexpr int kPings = 100;

/** ops_per_s is the median rate over this many equal slices of the
 *  run, so a stall of the shared host moves one slice, not the metric. */
constexpr int kRateWindows = 10;

/** A spawned mxl-served; the destructor kills and reaps it if it was
 *  not drained. */
class ServerProc
{
  public:
    ServerProc() = default;
    ServerProc(const ServerProc &) = delete;
    ServerProc &operator=(const ServerProc &) = delete;
    ~ServerProc()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }

    bool start(const Options &o, const std::string &socket, int workers,
               const std::string &tracePath, std::string *err)
    {
        socket_ = socket;
        unlink(socket.c_str());
        std::vector<std::string> args{o.servedPath, "--socket", socket,
                                      "--workers", std::to_string(workers),
                                      "--warm"};
        if (!tracePath.empty())
            args.insert(args.end(), {"--trace", tracePath});
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        // The server's own chatter goes to a log beside the socket, so
        // this process's stdout carries only the result.
        const std::string log = socket + ".log";
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        const int rc = posix_spawn(&pid_, argv[0], &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            *err = "cannot spawn " + o.servedPath;
            return false;
        }
        // Ready = the first successful ping.
        const double deadline = nowSeconds() + 60;
        while (nowSeconds() < deadline) {
            ServeClient c;
            std::string e;
            if (c.connectUnix(socket, &e) && c.ping(&e))
                return true;
            if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                *err = "mxl-served exited during start-up";
                return false;
            }
            usleep(2000);
        }
        *err = "mxl-served did not answer a ping within 60 s";
        return false;
    }

    /** Peak RSS of the server and its forked workers, summed. */
    double peakRssMb() const
    {
        double mb = perfbench::peakRssMb(pid_);
        DIR *d = opendir("/proc");
        while (dirent *e = d ? readdir(d) : nullptr) {
            const long pid = std::atol(e->d_name);
            if (pid <= 0)
                continue;
            std::ifstream st("/proc/" + std::to_string(pid) + "/stat");
            std::string line;
            std::getline(st, line);
            // Field 4 (ppid) follows the parenthesized command name.
            const size_t close = line.rfind(')');
            long ppid = 0;
            char state = 0;
            if (close != std::string::npos &&
                std::sscanf(line.c_str() + close + 1, " %c %ld", &state,
                            &ppid) == 2 &&
                ppid == pid_)
                mb += perfbench::peakRssMb(pid);
        }
        if (d)
            closedir(d);
        return mb;
    }

    /** SIGTERM, wait, and report whether the server exited 0. */
    bool drain()
    {
        if (pid_ <= 0)
            return false;
        kill(pid_, SIGTERM);
        int status = 0;
        waitpid(pid_, &status, 0);
        pid_ = -1;
        unlink(socket_.c_str());
        const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        // The server's log is kept only when there is something to
        // diagnose.
        if (ok)
            unlink((socket_ + ".log").c_str());
        return ok;
    }

  private:
    pid_t pid_ = -1;
    std::string socket_;
};

/** Draws each request's composition from the seed. */
class Composer
{
  public:
    explicit Composer(uint64_t seed) : deck_(servedDeck()), rng_(seed) {}

    /** Appends the next request's wire cells and their oracle labels. */
    void next(std::vector<Json> *cells, std::vector<std::string> *labels)
    {
        uint64_t seq;
        {
            std::lock_guard<std::mutex> lk(mu_);
            seq = rng_();
        }
        for (size_t i : servedRequest(seq)) {
            cells->push_back(deck_[i].cell);
            labels->push_back(deck_[i].label);
        }
    }

  private:
    std::mutex mu_;
    const std::vector<DeckCell> deck_;
    std::mt19937_64 rng_;
};

/** The simulated cycles each distinct cell reported over the service. */
class ServedCycles
{
  public:
    void add(const std::string &label, const Json &report)
    {
        const Json *st = report.find("stats");
        if (!st)
            return;
        std::lock_guard<std::mutex> lk(mu_);
        totals_.emplace(label, st->find("total")->asUint());
    }

    /** One copy of the deck; false, naming the cell, when a cell never
     *  reported. */
    bool deckTotal(uint64_t *total, std::string *missing) const
    {
        *total = 0;
        for (const DeckCell &d : servedDeck()) {
            auto it = totals_.find(d.label);
            if (it == totals_.end()) {
                *missing = d.label;
                return false;
            }
            *total += it->second;
        }
        return true;
    }

  private:
    std::mutex mu_;
    std::map<std::string, uint64_t> totals_;
};

/** One finished request, kept for the oracle and the ledger. */
struct Done
{
    ServeClient::GridOutcome outcome;
    double ms = 0;
    double end = 0; ///< completion time (nowSeconds)
    std::vector<Json> reports; ///< cell reports, index order
    std::vector<std::string> labels;
};

struct Load
{
    std::vector<Done> done;
    double t0 = 0;
    double wall = 0;
};

/** Closed loop: @p clients connections, each sending its next request
 *  when the previous one's terminal response arrives. */
Load
closedLoop(const std::string &socket, unsigned clients, double seconds,
           Composer &composer, TraceRecorder *rec, const std::string &tag)
{
    std::vector<std::vector<Done>> per(clients);
    const double t0 = nowSeconds();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c)
        threads.emplace_back([&, c] {
            ServeClient cl;
            std::string err;
            if (!cl.connectUnix(socket, &err)) {
                Done d;
                d.outcome.message = err;
                per[c].push_back(std::move(d));
                return;
            }
            for (size_t k = 0; nowSeconds() - t0 < seconds; ++k) {
                std::vector<Json> wire;
                Done d;
                composer.next(&wire, &d.labels);
                d.reports.resize(wire.size());
                const uint64_t r0 = rec ? rec->nowMicros() : 0;
                const double s0 = nowSeconds();
                d.outcome = cl.runGrid(
                    tag + std::to_string(c) + "-" + std::to_string(k), wire,
                    0, [&d](size_t i, const Json &rep) {
                        if (i < d.reports.size())
                            d.reports[i] = rep;
                    });
                d.end = nowSeconds();
                d.ms = (d.end - s0) * 1e3;
                if (rec)
                    rec->complete("ServeClient::runGrid", "serve",
                                  static_cast<int>(c) + 1, r0,
                                  rec->nowMicros() - r0, "",
                                  d.outcome.traceId);
                const bool transport =
                    d.outcome.kind == ServeClient::GridOutcome::Kind::Transport;
                per[c].push_back(std::move(d));
                if (transport)
                    break;
            }
        });
    for (std::thread &t : threads)
        t.join();
    Load load;
    load.t0 = t0;
    load.wall = nowSeconds() - t0;
    for (auto &v : per)
        for (Done &d : v)
            load.done.push_back(std::move(d));
    return load;
}

/** Oracle and failure accounting for every request of @p load. */
void
check(const Load &load, const Reference &ref, Outcome &out,
      ServedCycles &cycles)
{
    for (const Done &d : load.done) {
        ++out.attempted;
        std::string why;
        using Kind = ServeClient::GridOutcome::Kind;
        if (d.outcome.kind == Kind::Overloaded)
            why = "overloaded";
        else if (d.outcome.kind != Kind::Done)
            why = "terminal " + d.outcome.message;
        else if (d.outcome.failed > 0 || d.outcome.cells != d.labels.size())
            why = "cells failed";
        for (size_t i = 0; why.empty() && i < d.labels.size(); ++i) {
            const Json &r = d.reports[i];
            cycles.add(d.labels[i], r);
            const Expected *want = ref.find(d.labels[i]);
            const Json *stats = r.find("stats");
            const Json *output = r.find("output");
            if (!want || !stats || !output)
                why = d.labels[i] + ": missing report or reference";
            else if (fnv1a(output->str()) != want->outputHash ||
                     r.find("stop")->asInt() != want->stop ||
                     r.find("errorCode")->asInt() != want->errorCode ||
                     r.find("exitValue")->asUint() != want->exitValue ||
                     stats->find("total")->asUint() != want->stats.total ||
                     stats->find("instructions")->asUint() !=
                         want->stats.instructions)
                why = d.labels[i] + ": differs from reference (want " +
                      std::to_string(want->stats.total) + " cycles, " +
                      std::to_string(want->outputBytes) +
                      " output bytes; got " + r.dump().substr(0, 600) + ")";
        }
        if (!why.empty()) {
            ++out.failed;
            out.note(why);
        }
    }
}

/** Spawn, ping, and warm every worker over the distinct cells:
 *  setup_s. */
bool
bringUp(ServerProc &srv, const Options &o, const std::string &socket,
        int workers, unsigned clients, const std::string &tracePath,
        Outcome &out, ServedCycles &cycles)
{
    std::string err;
    if (!srv.start(o, socket, workers, tracePath, &err)) {
        out.note(err);
        return false;
    }
    // Warm-up: each distinct cell as its own request, a few rounds from
    // every client, so each worker has compiled what it will serve.
    const std::vector<DeckCell> deck = servedDeck();
    std::atomic<size_t> next{0};
    std::atomic<bool> ok{true};
    const size_t total = deck.size() * static_cast<size_t>(workers) * 2;
    std::vector<std::thread> ts;
    for (unsigned c = 0; c < clients; ++c)
        ts.emplace_back([&] {
            ServeClient cl;
            std::string e;
            if (!cl.connectUnix(socket, &e)) {
                ok = false;
                return;
            }
            for (size_t i; (i = next.fetch_add(1)) < total;) {
                const DeckCell &d = deck[i % deck.size()];
                auto res = cl.runGrid(
                    "warm" + std::to_string(i), {d.cell}, 0,
                    [&](size_t, const Json &rep) { cycles.add(d.label, rep); });
                if (res.kind != ServeClient::GridOutcome::Kind::Done ||
                    res.failed)
                    ok = false;
            }
        });
    for (std::thread &t : ts)
        t.join();
    if (!ok)
        out.note("warm-up pass failed");
    return ok;
}

/** p50 (ms) of the observations a histogram gained between snapshots,
 *  by the registry's own bucketed nearest-rank rule. */
double
histDeltaP50(const Json &before, const Json &after, const std::string &name)
{
    auto hist = [&](const Json &h) -> const Json * {
        const Json *m = h.find("metrics");
        const Json *hs = m ? m->find("histograms") : nullptr;
        return hs ? hs->find(name) : nullptr;
    };
    const Json *a = hist(after);
    if (!a)
        return 0;
    const Json *b = hist(before);
    const Json *ab = a->find("buckets");
    const Json *bb = b ? b->find("buckets") : nullptr;
    Json buckets = Json::object();
    uint64_t count = 0;
    for (size_t i = 0; ab && i < ab->size(); ++i) {
        const auto &[lo, n] = ab->entry(i);
        const Json *old = bb ? bb->find(lo) : nullptr;
        const uint64_t d = n.asUint() - (old ? old->asUint() : 0);
        buckets.set(lo, d);
        count += d;
    }
    Json delta = Json::object();
    delta.set("count", count);
    delta.set("max", a->find("max")->asUint());
    delta.set("buckets", std::move(buckets));
    Histogram h;
    h.mergeDelta(delta);
    return double(h.percentile(0.5)) / 1e3;
}

uint64_t
healthDelta(const Json &before, const Json &after, const std::string &name)
{
    const Json *b = before.find("metrics");
    const Json *a = after.find("metrics");
    return a && b ? counterDelta(*b, *a, name) : 0;
}

double
histDeltaSum(const Json &before, const Json &after, const std::string &name)
{
    auto sum = [&](const Json &h) -> double {
        const Json *m = h.find("metrics");
        const Json *hs = m ? m->find("histograms") : nullptr;
        const Json *x = hs ? hs->find(name) : nullptr;
        return x ? double(x->find("sum")->asUint()) : 0;
    };
    return sum(after) - sum(before);
}

bool
health(const std::string &socket, Json *out)
{
    ServeClient c;
    std::string err;
    return c.connectUnix(socket, &err) && c.health(out, &err);
}

/** Server "request" span durations (µs) by trace id. */
std::map<std::string, uint64_t>
serverRequestSpans(const std::string &path)
{
    std::map<std::string, uint64_t> out;
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    Json doc;
    if (!Json::parse(ss.str(), &doc) || !doc.isArray())
        return out;
    for (size_t i = 0; i < doc.size(); ++i) {
        const Json &e = doc.at(i);
        const Json *args = e.find("args");
        const Json *tid = args ? args->find("traceId") : nullptr;
        if (tid && e.find("name")->str() == "request")
            out[tid->str()] = e.find("dur")->asUint();
    }
    return out;
}

/**
 * Figure 1's split of one copy of the deck. The served reports carry
 * only totals, so the distinct cells also run in process through an
 * Engine, outside the timed region, and are checked against the oracle;
 * their total must equal the one the service reported.
 */
CycleTotals
inProcessDeck(const Reference &ref, const ServedCycles &served,
              Outcome &out)
{
    CycleTotals t;
    std::vector<RunRequest> reqs;
    std::vector<std::string> labels;
    for (const DeckCell &d : servedDeck()) {
        WireCell wc;
        std::string err;
        if (!parseCell(d.cell, &wc, &err)) {
            ++out.failed;
            out.note(d.label + ": " + err);
            return t;
        }
        reqs.push_back(std::move(wc.request));
        labels.push_back(d.label);
    }
    Engine eng(hostThreads());
    const std::vector<RunReport> reps = eng.runGrid(reqs);
    for (size_t i = 0; i < reps.size(); ++i) {
        ++out.attempted;
        const Expected *want = ref.find(labels[i]);
        const std::string why =
            !reps[i].ok() ? reps[i].status.message
            : !want       ? "no reference entry"
                          : compareFull(*want, reps[i].result);
        if (!why.empty()) {
            ++out.failed;
            out.note(labels[i] + " (in process): " + why);
        }
        t.add(reps[i].result.stats);
    }
    uint64_t servedTotal = 0;
    std::string missing;
    if (!served.deckTotal(&servedTotal, &missing)) {
        ++out.failed;
        out.note(missing + ": no served report");
    } else if (servedTotal != t.total) {
        ++out.failed;
        out.note("served and in-process cycles differ (" +
                 std::to_string(servedTotal) + " vs " +
                 std::to_string(t.total) + ")");
    }
    return t;
}

} // namespace

void
runServedWorkload(const Options &o, const Reference &ref, Outcome &out)
{
    // One more client than workers: a request always waits behind the
    // one running, so the queue does work and the worker never idles.
    const int workers = static_cast<int>(kWorkers);
    const unsigned clients = kWorkers + 1;
    const std::string sock =
        o.outDir + "/s" + std::to_string(getpid()) + ".sock";
    Composer composer(o.seed);
    ServedCycles served;

    auto finish = [&](ServerProc &srv) {
        if (!srv.drain()) {
            ++out.failed;
            out.note("mxl-served exited non-zero on SIGTERM");
        }
    };
    auto countDeaths = [&](const Json &before, const Json &after) {
        auto field = [](const Json &h) -> uint64_t {
            const Json *d = h.find("workerDeaths");
            return d ? d->asUint() : 0;
        };
        const uint64_t deaths = field(after) - field(before);
        out.failed += deaths;
        out.attempted += deaths;
        if (deaths)
            out.note("worker deaths during the run");
        return deaths;
    };

    if (!o.trace) {
        std::vector<double> setups;
        std::unique_ptr<ServerProc> srv;
        while (moreSetups(setups)) {
            if (srv)
                finish(*srv);
            srv = std::make_unique<ServerProc>();
            const double t0 = nowSeconds();
            if (!bringUp(*srv, o, sock, workers, clients, "", out,
                         served)) {
                ++out.failed;
                return;
            }
            setups.push_back(nowSeconds() - t0);
        }
        Json h0, h1;
        health(sock, &h0);
        Load load = closedLoop(sock, clients, o.seconds, composer, nullptr,
                               "r");
        health(sock, &h1);
        const double rss = srv->peakRssMb();
        finish(*srv);
        check(load, ref, out, served);
        const CycleTotals deck = inProcessDeck(ref, served, out);
        if (h0.isObject() && h1.isObject())
            countDeaths(h0, h1);
        else {
            ++out.failed;
            out.note("health request failed");
        }

        std::vector<double> ms, ends;
        size_t cells = 0;
        for (const Done &d : load.done) {
            ms.push_back(d.ms);
            ends.push_back(d.end);
            cells += d.labels.size();
        }
        MetricSink &s = out.metrics;
        s.add("setup_s", *std::min_element(setups.begin(), setups.end()),
              "s");
        s.add("ops_per_s",
              medianWindowRate(ends, load.t0, load.wall, kRateWindows),
              "1/s");
        s.add("op_ms_p50", percentile(ms, 0.50), "ms");
        s.add("op_ms_p90", percentile(ms, 0.90), "ms");
        s.add("peak_rss_mb", rss, "MiB");
        uint64_t servedTotal = 0;
        std::string missing;
        served.deckTotal(&servedTotal, &missing);
        s.add("sim_cycles", double(servedTotal), "cycles");
        s.add("tag_cycles_pct", deck.tagPct(), "%");
        std::fprintf(stderr,
                     "perfbench: served_mix: %zu requests, %zu cells, "
                     "%d workers, %u clients, %zu setups (median %.3f s)\n",
                     load.done.size(), cells, workers, clients,
                     setups.size(), median(setups));
        return;
    }

    // Traced run: the compile pipeline over the distinct units, then an
    // untraced and a traced server, half the time each.
    TraceRecorder rec;
    std::vector<RunRequest> units;
    for (const DeckCell &d : servedDeck()) {
        WireCell wc;
        std::string err;
        if (parseCell(d.cell, &wc, &err))
            units.push_back(std::move(wc.request));
    }
    const PipelineProfile prof = profilePipeline(units, rec);

    double plainRate = 0;
    {
        ServerProc srv;
        if (!bringUp(srv, o, sock, workers, clients, "", out, served)) {
            ++out.failed;
            return;
        }
        Load load = closedLoop(sock, clients, o.seconds / 2, composer,
                               nullptr, "u");
        finish(srv);
        check(load, ref, out, served);
        plainRate = double(load.done.size()) / load.wall;
    }

    const std::string serverTrace = o.outDir + "/trace_served_mix_server.json";
    ServerProc srv;
    if (!bringUp(srv, o, sock, workers, clients, serverTrace, out,
                 served)) {
        ++out.failed;
        return;
    }
    Json h0, h1;
    health(sock, &h0);
    Load load =
        closedLoop(sock, clients, o.seconds / 2, composer, &rec, "t");
    std::vector<double> pings;
    {
        ServeClient c;
        std::string err;
        c.connectUnix(sock, &err);
        for (int i = 0; i < kPings; ++i) {
            const uint64_t p0 = rec.nowMicros();
            const double s0 = nowSeconds();
            if (!c.ping(&err))
                break;
            pings.push_back((nowSeconds() - s0) * 1e3);
            rec.complete("ServeClient::ping", "serve", 0, p0,
                         rec.nowMicros() - p0);
        }
    }
    health(sock, &h1);
    finish(srv); // writes the server's merged trace
    check(load, ref, out, served);
    const CycleTotals deck = inProcessDeck(ref, served, out);
    const double tracedRate = double(load.done.size()) / load.wall;
    ServeLayer sl;
    if (h0.isObject() && h1.isObject())
        sl.workerDeaths = double(countDeaths(h0, h1));

    // Ledger: client-observed latency = server request span + the
    // client side (socket, framing, codec), matched by trace id.
    const uint64_t tLedger = rec.nowMicros();
    const auto spans = serverRequestSpans(serverTrace);
    std::vector<double> overhead;
    size_t violations = 0;
    double cycles = 0;
    for (const Done &d : load.done) {
        auto it = spans.find(d.outcome.traceId);
        if (it == spans.end())
            continue;
        CellLedger c;
        c.wallMs = d.ms;
        c.runMs = double(it->second) / 1e3;
        overhead.push_back(c.unattributed());
        if (!withinTolerance(c, kRequestShare, kRequestFloorMs))
            ++violations;
        for (const Json &r : d.reports)
            if (const Json *st = r.find("stats"))
                cycles += double(st->find("total")->asUint());
    }
    rec.complete("ledger", "obs", 0, tLedger, rec.nowMicros() - tLedger);
    if (overhead.size() < load.done.size() / 2) {
        ++out.failed;
        out.note("server trace is missing request spans");
    }
    std::string err;
    if (!writeCheckedTrace(rec, o.outDir + "/trace_served_mix.json",
                           {"sexpr", "compiler", "exec", "serve", "obs"},
                           &err)) {
        out.note(err);
        ++out.failed;
    }

    const double runUs = double(healthDelta(h0, h1, "engine.run_micros"));
    const double runs = double(healthDelta(h0, h1, "engine.runs"));
    const double cellUs = histDeltaSum(h0, h1, "engine.cell_micros");
    const double compileUs =
        double(healthDelta(h0, h1, "engine.compile_micros"));
    const double hits = double(healthDelta(h0, h1, "engine.cache.hits"));
    const double lookups =
        hits + double(healthDelta(h0, h1, "engine.cache.misses"));
    double unattributed = 0;
    for (double x : overhead)
        unattributed += x;

    MetricSink &s = out.metrics;
    s.add("sexpr.read_ms", prof.readMs, "ms");
    s.add("compiler.compile_ms", prof.compileMs, "ms");
    s.add("compiler.object_words", double(prof.objectWords), "words");
    s.add("exec.translate_ms", prof.translateMs, "ms");
    s.add("exec.refusals", double(prof.refusals), "count");
    s.add("exec.run_ms", runs ? runUs / runs / 1e3 : 0, "ms");
    s.add("exec.ns_per_cycle", cycles ? runUs * 1e3 / cycles : 0, "ns");
    s.add("machine.run_ms", 0, "ms");
    s.add("machine.ns_per_cycle", 0, "ns");
    addCycleMetrics(s, deck);
    s.add("analysis.clone_ms", 0, "ms");
    s.add("analysis.verify_ms", 0, "ms");
    s.add("analysis.elim_ms", 0, "ms");
    s.add("analysis.place_ms", 0, "ms");
    s.add("analysis.checks_removed", 0, "count");
    s.add("analysis.hoisted", 0, "count");
    s.add("core.image_ms",
          runs ? (cellUs - compileUs - runUs) / runs / 1e3 : 0, "ms");
    s.add("core.cache_hit_ratio", lookups ? hits / lookups : 0, "ratio");
    s.add("core.worker_busy_frac",
          histDeltaSum(h0, h1, "serve.exec_micros") /
              (1e6 * workers * load.wall),
          "ratio");
    s.add("core.fallbacks",
          double(healthDelta(h0, h1, "engine.backend.fallbacks")), "count");
    sl.e2eP50 = histDeltaP50(h0, h1, "serve.e2e_micros");
    sl.execP50 = histDeltaP50(h0, h1, "serve.exec_micros");
    sl.queueP50 = histDeltaP50(h0, h1, "serve.queue_micros");
    sl.admissionP50 = histDeltaP50(h0, h1, "serve.admission_wait_micros");
    sl.clientOverheadMs = median(overhead);
    sl.pingMs = median(pings);
    sl.shed = double(healthDelta(h0, h1, "serve.shed.requests"));
    addServeMetrics(s, sl);
    s.add("core.unattributed_ms",
          overhead.empty() ? 0 : unattributed / double(overhead.size()),
          "ms");
    s.add("obs.sum_check_violations", double(violations), "count");
    s.add("obs.trace_overhead_pct", 100.0 * (plainRate / tracedRate - 1.0),
          "%");
    if (violations)
        std::fprintf(stderr,
                     "perfbench: SUM CHECK FLAGGED: %zu of %zu requests "
                     "outside tolerance\n",
                     violations, overhead.size());
}

} // namespace perfbench
