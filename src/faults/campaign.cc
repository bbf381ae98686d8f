#include "faults/campaign.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "runtime/stubs.h"
#include "support/format.h"
#include "support/json.h"
#include "support/panic.h"
#include "support/procpool.h"
#include "support/table.h"

namespace mxl {

namespace {

/**
 * Per-trial fault seed. Mixed from the campaign seed and the trial's
 * (program, class, trial) coordinates only — configurations share the
 * fault population (see campaign.h).
 */
uint64_t
trialSeed(const Campaign &c, int prog, int cls, int trial)
{
    uint64_t key = (static_cast<uint64_t>(prog) * c.classes.size() +
                    static_cast<uint64_t>(cls)) *
                       static_cast<uint64_t>(c.trials) +
                   static_cast<uint64_t>(trial);
    return FaultRng::mix(c.seed, key + 1);
}

/**
 * Pause cycle for a pause-based (heap- or stack-resident) trial: a
 * seed-derived fraction in [5%, 95%) of the configuration's golden run
 * length. The *fraction* comes from the configuration-independent
 * fault seed (shared fault population in spirit); the absolute cycle
 * necessarily scales with each configuration's own execution time.
 */
uint64_t
heapPauseCycle(uint64_t faultSeed, uint64_t goldenTotal)
{
    uint64_t f = FaultRng::mix(faultSeed, 0x4845'4150ull); // "HEAP"
    double frac = 0.05 + 0.90 * static_cast<double>(f % 8192) / 8192.0;
    uint64_t pause =
        static_cast<uint64_t>(static_cast<double>(goldenTotal) * frac);
    return pause > 0 ? pause : 1;
}

/** Linear trial index in record order (p, then c, then k, then t). */
size_t
trialIndex(const Campaign &c, size_t p, size_t cfg, size_t k, size_t t)
{
    return ((p * c.configs.size() + cfg) * c.classes.size() + k) *
               static_cast<size_t>(c.trials) +
           t;
}

/** The journal's identity line: the campaign's structure. */
Json
campaignHeader(const Campaign &c)
{
    Json programs = Json::array();
    for (const CampaignProgram &p : c.programs)
        programs.push(p.name);
    Json configs = Json::array();
    for (const CampaignConfigEntry &cfg : c.configs)
        configs.push(cfg.label);
    Json classes = Json::array();
    for (FaultClass cls : c.classes)
        classes.push(faultClassName(cls));
    Json h = Json::object();
    h.set("mxl-campaign", uint64_t{1});
    h.set("seed", c.seed);
    h.set("trials", static_cast<int64_t>(c.trials));
    h.set("backend", backendName(c.backend));
    h.set("programs", std::move(programs));
    h.set("configs", std::move(configs));
    h.set("classes", std::move(classes));
    return h;
}

/** One journal line per classified trial. */
Json
trialLine(const TrialRecord &r)
{
    Json j = Json::object();
    j.set("p", static_cast<int64_t>(r.program));
    j.set("c", static_cast<int64_t>(r.config));
    j.set("k", static_cast<int64_t>(r.cls));
    j.set("t", static_cast<int64_t>(r.trial));
    j.set("seed", r.faultSeed);
    j.set("pause", r.pauseCycle);
    j.set("outcome", outcomeName(r.outcome));
    j.set("channel", detectChannelName(r.channel));
    j.set("error", r.errorCode);
    j.set("fault", static_cast<int64_t>(r.faultIndex));
    j.set("cyc", r.cycles);
    j.set("backend", backendName(r.backend));
    return j;
}

/** Required integer field of a journal line; fatal() when absent or
 *  not an integer (a real such as 1.5 or 1e30 would truncate). */
int64_t
lineInt(const Json &j, const char *key, const std::string &line)
{
    const Json *v = j.find(key);
    if (!v || (v->type() != Json::Type::Int &&
               v->type() != Json::Type::Uint))
        fatal("campaign journal line missing integer '", key, "': ", line);
    return v->asInt();
}

/**
 * Restore a TrialRecord's pause cycle and classification fields from
 * its journal line (the coordinate fields p/c/k/t/seed are the
 * caller's; they are recomputed, not trusted). False on unknown
 * outcome/channel names.
 */
bool
parseTrialFields(const Json &j, const std::string &line, TrialRecord *rec)
{
    const Json *outcome = j.find("outcome");
    const Json *channel = j.find("channel");
    if (!outcome || !outcome->isString() ||
        !outcomeFromName(outcome->str(), &rec->outcome) || !channel ||
        !channel->isString() ||
        !detectChannelFromName(channel->str(), &rec->channel))
        return false;
    rec->pauseCycle = static_cast<uint64_t>(lineInt(j, "pause", line));
    rec->errorCode = lineInt(j, "error", line);
    rec->faultIndex = static_cast<int>(lineInt(j, "fault", line));
    rec->cycles = static_cast<uint64_t>(lineInt(j, "cyc", line));
    const Json *backend = j.find("backend");
    if (!backend || !backend->isString() ||
        !backendFromName(backend->str(), &rec->backend))
        return false;
    return true;
}

} // namespace

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Detected:
        return "detected";
      case Outcome::SilentWrongAnswer:
        return "silent-wrong";
      case Outcome::CrashIllegalAccess:
        return "crash";
      case Outcome::CycleLimit:
        return "cycle-limit";
      case Outcome::Masked:
        return "masked";
      case Outcome::Skipped:
        return "skipped";
      case Outcome::NumOutcomes:
        break;
    }
    return "?";
}

bool
outcomeFromName(const std::string &name, Outcome *out)
{
    for (int i = 0; i < static_cast<int>(Outcome::NumOutcomes); ++i)
        if (name == outcomeName(static_cast<Outcome>(i))) {
            *out = static_cast<Outcome>(i);
            return true;
        }
    return false;
}

bool
detectChannelFromName(const std::string &name, DetectChannel *out)
{
    for (DetectChannel c : {DetectChannel::None, DetectChannel::SoftwareCheck,
                            DetectChannel::HardwareTrap})
        if (name == detectChannelName(c)) {
            *out = c;
            return true;
        }
    return false;
}

const char *
detectChannelName(DetectChannel c)
{
    switch (c) {
      case DetectChannel::None:
        return "none";
      case DetectChannel::SoftwareCheck:
        return "software";
      case DetectChannel::HardwareTrap:
        return "hw-trap";
    }
    return "?";
}

Outcome
classifyOutcome(const RunReport &faulted, const RunReport &golden,
                DetectChannel *channel)
{
    DetectChannel ch = DetectChannel::None;
    Outcome out;

    switch (faulted.status.code) {
      case RunStatus::Code::Timeout:
        out = Outcome::CycleLimit;
        break;
      case RunStatus::Code::CompileError:
      case RunStatus::Code::InternalError:
        // Faults are injected after compilation, so this is the
        // simulator losing control of the run (e.g. a wild sp taking
        // the runtime's own bookkeeping out of range).
        out = Outcome::CrashIllegalAccess;
        break;
      case RunStatus::Code::Ok:
        switch (faulted.result.stop) {
          case StopReason::Halted:
            out = (faulted.result.output == golden.result.output &&
                   faulted.result.exitValue == golden.result.exitValue)
                      ? Outcome::Masked
                      : Outcome::SilentWrongAnswer;
            break;
          case StopReason::Errored: {
            int64_t code = faulted.result.errorCode;
            if (isUnhandledTrapCode(code) || code == rtcode::tagTrap) {
                // Raw hardware trap, or the software fallback handler a
                // hardware trap vectored into.
                out = Outcome::Detected;
                ch = DetectChannel::HardwareTrap;
            } else if (code == kDivideByZeroCode) {
                out = Outcome::CrashIllegalAccess;
            } else {
                // Compiled type checks (rt_error), calls through
                // corrupted function cells (rt_undef), and Lisp-level
                // `error` are all software-side detection.
                out = Outcome::Detected;
                ch = DetectChannel::SoftwareCheck;
            }
            break;
          }
          case StopReason::IllegalAccess:
            out = Outcome::CrashIllegalAccess;
            break;
          case StopReason::CycleLimit:
          case StopReason::Running:
            out = Outcome::CycleLimit;
            break;
          default:
            out = Outcome::CrashIllegalAccess;
            break;
        }
        break;
      default:
        out = Outcome::CrashIllegalAccess;
        break;
    }

    if (channel)
        *channel = out == Outcome::Detected ? ch : DetectChannel::None;
    return out;
}

std::string
CampaignResult::renderMatrix() const
{
    TextTable t;
    std::vector<std::string> head;
    head.push_back("config");
    for (const std::string &cls : classLabels) {
        head.push_back(cls + " det");
        head.push_back("silent");
        head.push_back("crash");
        head.push_back("limit");
        head.push_back("masked");
        head.push_back("skip");
    }
    head.push_back("hw-traps");
    head.push_back("sw-checks");
    t.addRow(std::move(head));
    for (size_t c = 0; c < configCount; ++c) {
        std::vector<std::string> row;
        row.push_back(configLabels[c]);
        int hw = 0, sw = 0;
        for (size_t k = 0; k < classCount; ++k) {
            const CampaignCell &cell = this->cell(c, k);
            row.push_back(std::to_string(cell.detected()));
            row.push_back(
                std::to_string(cell.count(Outcome::SilentWrongAnswer)));
            row.push_back(
                std::to_string(cell.count(Outcome::CrashIllegalAccess)));
            row.push_back(std::to_string(cell.count(Outcome::CycleLimit)));
            row.push_back(std::to_string(cell.count(Outcome::Masked)));
            row.push_back(std::to_string(cell.count(Outcome::Skipped)));
            hw += cell.hardwareTraps;
            sw += cell.softwareChecks;
        }
        row.push_back(std::to_string(hw));
        row.push_back(std::to_string(sw));
        t.addRow(std::move(row));
    }
    return t.render();
}

CampaignResult
runCampaign(Engine &engine, const Campaign &campaign,
            const CampaignRunOptions &options)
{
    const size_t nProg = campaign.programs.size();
    const size_t nCfg = campaign.configs.size();
    const size_t nCls = campaign.classes.size();
    MXL_ASSERT(nProg && nCfg && nCls && campaign.trials > 0,
               "empty campaign");
    const size_t nTrials =
        nProg * nCfg * nCls * static_cast<size_t>(campaign.trials);

    // One (program, config) cell's request: goldens and trials share it.
    auto cellRequest = [&](size_t p, size_t c) {
        const CampaignProgram &prog = campaign.programs[p];
        RunRequest req;
        req.source = prog.source;
        req.opts = campaign.configs[c].opts;
        if (prog.heapBytes)
            req.opts.heapBytes = prog.heapBytes;
        req.exec.maxCycles = prog.maxCycles;
        req.exec.backend = campaign.backend;
        req.label = strcat(prog.name, "/", campaign.configs[c].label);
        return req;
    };

    // ---- goldens: one reference run per (program, config) ----
    std::vector<RunRequest> goldenReqs;
    goldenReqs.reserve(nProg * nCfg);
    for (size_t p = 0; p < nProg; ++p)
        for (size_t c = 0; c < nCfg; ++c) {
            goldenReqs.push_back(cellRequest(p, c));
            goldenReqs.back().label.insert(0, "golden/");
        }
    // Their seconds per cycle scale the sandboxed trials' watchdogs;
    // run_micros leaves out compile, translation and image time.
    Counter &runMicros = engine.metrics().counter("engine.run_micros");
    const uint64_t micros0 = runMicros.value();
    std::vector<RunReport> goldens = engine.runGrid(goldenReqs);
    uint64_t goldenCycles = 0;
    for (const RunReport &g : goldens)
        goldenCycles += g.result.stats.total;
    const double secondsPerCycle =
        1e-6 * static_cast<double>(runMicros.value() - micros0) /
        static_cast<double>(std::max<uint64_t>(goldenCycles, 1));

    // ---- every trial record, deterministic order ----
    std::vector<TrialRecord> records;
    records.reserve(nTrials);
    for (size_t p = 0; p < nProg; ++p)
        for (size_t c = 0; c < nCfg; ++c)
            for (size_t k = 0; k < nCls; ++k)
                for (int t = 0; t < campaign.trials; ++t) {
                    TrialRecord rec;
                    rec.program = static_cast<int>(p);
                    rec.config = static_cast<int>(c);
                    rec.cls = static_cast<int>(k);
                    rec.trial = t;
                    rec.faultSeed = trialSeed(campaign, static_cast<int>(p),
                                              static_cast<int>(k), t);
                    records.push_back(rec);
                }

    // ---- journal: load already-classified trials, open for append ----
    const std::string headerLine = campaignHeader(campaign).dump();
    // A trial is pending, classified by this run, or restored from the
    // journal; every trial before emitTrial's cursor is in the journal.
    enum : char { kPending, kClassified, kJournaled };
    std::vector<char> state(nTrials, kPending);
    size_t journaled = 0;
    bool journalHasHeader = false;
    if (!options.journalPath.empty() && options.resume) {
        std::ifstream in(options.journalPath);
        std::string line;
        while (in && std::getline(in, line)) {
            if (line.empty())
                continue;
            Json j;
            if (!Json::parse(line, &j) || !j.isObject())
                fatal("malformed campaign journal line: ", line);
            if (!journalHasHeader) {
                journalHasHeader = true;
                if (j.dump() != headerLine) {
                    // Backend-only mismatch gets a targeted message:
                    // same campaign, wrong execution tier.
                    const Json *jb = j.find("backend");
                    Backend jBackend;
                    if (jb && jb->isString() &&
                        backendFromName(jb->str(), &jBackend)) {
                        Campaign probe = campaign;
                        probe.backend = jBackend;
                        if (campaignHeader(probe).dump() == j.dump())
                            fatal("campaign journal ", options.journalPath,
                                  " was written under backend tier '",
                                  jb->str(),
                                  "' but this campaign requests '",
                                  backendName(campaign.backend),
                                  "'; trial outcomes are not comparable "
                                  "across tiers — use a fresh journal");
                    }
                    fatal("campaign journal ", options.journalPath,
                          " was written by a different campaign\n",
                          "  journal:  ", j.dump(), "\n",
                          "  campaign: ", headerLine);
                }
                continue;
            }
            int64_t p = lineInt(j, "p", line);
            int64_t c = lineInt(j, "c", line);
            int64_t k = lineInt(j, "k", line);
            int64_t t = lineInt(j, "t", line);
            if (p < 0 || static_cast<size_t>(p) >= nProg || c < 0 ||
                static_cast<size_t>(c) >= nCfg || k < 0 ||
                static_cast<size_t>(k) >= nCls || t < 0 ||
                t >= campaign.trials)
                fatal("campaign journal trial out of range: ", line);
            size_t idx = trialIndex(campaign, static_cast<size_t>(p),
                                    static_cast<size_t>(c),
                                    static_cast<size_t>(k),
                                    static_cast<size_t>(t));
            if (state[idx] == kJournaled)
                continue; // duplicate line (e.g. crash between flushes)
            if (!parseTrialFields(j, line, &records[idx]))
                fatal("campaign journal line with unknown outcome: ",
                      line);
            state[idx] = kJournaled;
            ++journaled;
        }
    }
    std::ofstream journal;
    if (!options.journalPath.empty()) {
        journal.open(options.journalPath,
                     journalHasHeader ? std::ios::app : std::ios::trunc);
        if (!journal)
            fatal("cannot open campaign journal ", options.journalPath);
        if (!journalHasHeader)
            journal << headerLine << "\n" << std::flush;
    }

    // Per-outcome trial counters live in the engine's registry, so a
    // campaign's coverage tallies export alongside the engine's own
    // cache/utilization metrics in one snapshot. Resolved up front:
    // emitTrial runs on workers and must not take the registry lock.
    Counter *outcomeCounters[static_cast<int>(Outcome::NumOutcomes)];
    for (int i = 0; i < static_cast<int>(Outcome::NumOutcomes); ++i)
        outcomeCounters[i] = &engine.metrics().counter(
            strcat("faults.outcome.", outcomeName(static_cast<Outcome>(i))));
    if (journaled > 0)
        engine.metrics().counter("faults.trials.resumed").inc(journaled);

    // Lines go out in trial order: the cursor writes each classified
    // trial once every earlier one is in the journal, and passes over
    // restored lines without rewriting them.
    std::mutex journalMu;
    size_t cursor = 0;
    auto emitTrial = [&](size_t idx) {
        const TrialRecord &rec = records[idx];
        outcomeCounters[static_cast<int>(rec.outcome)]->inc();
        if (TraceRecorder *tr = engine.trace())
            tr->instant("trial", "faults", Engine::currentWorkerId(),
                        outcomeName(rec.outcome));
        std::lock_guard<std::mutex> lk(journalMu);
        state[idx] = kClassified;
        // Each line is flushed on its own, so a kill leaves whole lines.
        for (; cursor < nTrials && state[cursor] != kPending; ++cursor)
            if (state[cursor] == kClassified && journal.is_open())
                journal << trialLine(records[cursor]).dump() << "\n"
                        << std::flush;
        if (options.onTrial)
            options.onTrial(rec);
    };

    // ---- skip-and-classify trials whose golden failed ----
    for (size_t idx = 0; idx < nTrials; ++idx) {
        if (state[idx] != kPending)
            continue;
        TrialRecord &rec = records[idx];
        if (goldens[static_cast<size_t>(rec.program) * nCfg +
                    static_cast<size_t>(rec.config)]
                .ok())
            continue;
        rec.outcome = Outcome::Skipped;
        rec.channel = DetectChannel::None;
        emitTrial(idx);
    }

    // ---- pending faulted trials, one grid batch ----
    // One call scan per (program, config), for its first pending
    // call-arg trial.
    std::map<size_t, std::vector<uint64_t>> callCycles;
    std::vector<RunRequest> reqs;
    std::vector<size_t> reqRecord; ///< request index -> record index
    for (size_t idx = 0; idx < nTrials; ++idx) {
        if (state[idx] != kPending)
            continue;
        TrialRecord &rec = records[idx];
        size_t p = static_cast<size_t>(rec.program);
        size_t c = static_cast<size_t>(rec.config);
        size_t k = static_cast<size_t>(rec.cls);

        RunRequest req = cellRequest(p, c);
        FaultSpec spec;
        spec.cls = campaign.classes[k];
        spec.seed = rec.faultSeed;
        if (spec.cls == FaultClass::CallArgType) {
            auto [calls, fresh] = callCycles.try_emplace(p * nCfg + c);
            if (fresh)
                calls->second = scanCallCycles(
                    *engine.compile(req.source, req.opts).unit,
                    req.exec.maxCycles);
            rec.pauseCycle = callArgPauseCycle(rec.faultSeed, calls->second);
        } else if (faultClassNeedsPause(spec.cls)) {
            rec.pauseCycle = heapPauseCycle(
                rec.faultSeed, goldens[p * nCfg + c].result.stats.total);
        }
        spec.pauseCycle = rec.pauseCycle;
        req.label += strcat("/", spec.describe(), "/t", rec.trial);
        // A call-arg trial whose run makes too few calls has no pause
        // cycle: it runs unarmed and classifies Masked.
        if (!faultClassNeedsPause(spec.cls) || spec.pauseCycle > 0)
            armFault(req, spec);

        reqs.push_back(std::move(req));
        reqRecord.push_back(idx);
    }

    // Classify one finished trial into its record against its golden.
    // Shared verbatim by the in-process grid path and the sandbox
    // workers, so the two paths cannot diverge semantically.
    auto classifyTrial = [&](const RunReport &rep, TrialRecord &rec) {
        const RunReport &golden =
            goldens[static_cast<size_t>(rec.program) * nCfg +
                    static_cast<size_t>(rec.config)];
        rec.outcome = classifyOutcome(rep, golden, &rec.channel);
        rec.errorCode = rep.result.errorCode;
        rec.faultIndex = rep.result.faultIndex;
        rec.cycles = rep.result.stats.total;
        rec.backend = rep.backend;
    };

    // Request ordinals not yet classified.
    std::deque<size_t> pending;
    for (size_t i = 0; i < reqs.size(); ++i)
        pending.push_back(i);

    SandboxStats sandboxStats;
    if (options.sandbox.enabled && !reqs.empty()) {
        // ---- process-isolated path: one trial in flight per worker ----
        // A task is {"i":ordinal,"a":attempt}; its result is the
        // trial's journal line, classified in the worker.
        const SandboxOptions &so = options.sandbox;
        std::vector<int> attempts(reqs.size(), 0);
        WorkerPoolOptions po;
        po.workers = so.procs > 0
                         ? so.procs
                         : static_cast<int>(std::max(
                               1u, std::thread::hardware_concurrency()));
        po.childInit = [&engine](int) { engine.postFork(); };
        po.runCell = [&](const Json &task, double, const std::string &) {
            // WORKER: run + classify into a scratch copy, serialize.
            size_t i = task.find("i")->asUint();
            int attempt = static_cast<int>(task.find("a")->asInt());
            if (so.childFaultHook)
                so.childFaultHook(i, attempt);
            TrialRecord rec = records[reqRecord[i]];
            classifyTrial(engine.run(reqs[i]), rec);
            return trialLine(rec).dump();
        };
        auto onDone = [&](uint64_t i, const std::string &payload) {
            TrialRecord &rec = records[reqRecord[i]];
            Json j;
            if (!Json::parse(payload, &j) || !j.isObject() ||
                !parseTrialFields(j, payload, &rec))
                fatal("malformed sandbox trial payload: ", payload);
            emitTrial(reqRecord[i]);
        };
        auto onDeath = [&](uint64_t i, bool hang, int termSignal) {
            if (++attempts[i] < so.maxAttempts) {
                pending.push_front(i);
                ++sandboxStats.requeues;
                return;
            }
            // The trial killed its worker maxAttempts times; classify
            // from the death itself. Our hang-kill means the trial
            // outran its cycle budget's watchdog; a fatal signal is the
            // simulator losing control — CrashIllegalAccess's meaning.
            TrialRecord &rec = records[reqRecord[i]];
            if (hang) {
                rec.outcome = Outcome::CycleLimit;
                rec.errorCode = 0;
            } else {
                rec.outcome = Outcome::CrashIllegalAccess;
                rec.errorCode = -termSignal;
            }
            rec.channel = DetectChannel::None;
            rec.cycles = 0;
            rec.backend = campaign.backend == Backend::Interpreter
                              ? Backend::Interpreter
                              : Backend::Auto;
            ++sandboxStats.abandoned;
            emitTrial(reqRecord[i]);
        };
        WorkerPool pool(std::move(po), onDone, onDeath);
        pool.start();
        // The callbacks run inside pollOnce() and only classify or
        // requeue; every dispatch happens here.
        while (pool.busyWorkers() > 0 ||
               (!pending.empty() && !pool.degraded())) {
            while (!pending.empty()) {
                size_t i = pending.front();
                double watchdog = kWatchdogMargin * secondsPerCycle *
                                  static_cast<double>(reqs[i].exec.maxCycles);
                if (!pool.dispatch(
                        i, strcat("{\"i\":", i, ",\"a\":", attempts[i], "}"),
                        watchdog))
                    break;
                pending.pop_front();
            }
            pool.pollOnce(200);
        }
        // Every worker is idle (or the breaker is open): they exit on
        // EOF at once, so the drain bound is never reached.
        pool.shutdown(5000);
        WorkerPoolStats ps = pool.stats();
        sandboxStats.spawns = ps.spawns;
        sandboxStats.deaths = ps.deaths;
        sandboxStats.watchdogKills = ps.hangKills;
        sandboxStats.degraded = ps.breakerOpen;
    }

    // ---- in-process path: one grid batch ----
    // Every trial without the sandbox; after fork exhaustion, the ones
    // the workers did not finish. Trials classify in the per-cell
    // completion callback, so a campaign killed mid-grid resumes from
    // the last flushed line.
    std::vector<RunRequest> restReqs;
    for (size_t i : pending)
        restReqs.push_back(std::move(reqs[i]));
    engine.runGrid(restReqs, [&](size_t j, const RunReport &finished) {
        classifyTrial(finished, records[reqRecord[pending[j]]]);
        emitTrial(reqRecord[pending[j]]);
    });

    // ---- aggregate ----
    CampaignResult result;
    result.configCount = nCfg;
    result.classCount = nCls;
    for (const CampaignProgram &p : campaign.programs)
        result.programLabels.push_back(p.name);
    for (const CampaignConfigEntry &c : campaign.configs)
        result.configLabels.push_back(c.label);
    for (FaultClass cls : campaign.classes)
        result.classLabels.push_back(faultClassName(cls));
    result.cells.assign(nCfg * nCls, CampaignCell());
    for (const TrialRecord &rec : records) {
        CampaignCell &cell = result.cell(static_cast<size_t>(rec.config),
                                         static_cast<size_t>(rec.cls));
        ++cell.byOutcome[static_cast<int>(rec.outcome)];
        if (rec.channel == DetectChannel::HardwareTrap)
            ++cell.hardwareTraps;
        else if (rec.channel == DetectChannel::SoftwareCheck)
            ++cell.softwareChecks;
    }
    result.trials = std::move(records);
    result.goldens = std::move(goldens);
    result.journaled = journaled;
    result.goldenSecondsPerCycle = secondsPerCycle;
    result.sandbox = sandboxStats;
    return result;
}

CampaignResult
runCampaign(Engine &engine, const Campaign &campaign)
{
    return runCampaign(engine, campaign, CampaignRunOptions{});
}

CampaignResult
resumeCampaign(Engine &engine, const Campaign &campaign,
               const std::string &journalPath)
{
    CampaignRunOptions options;
    options.journalPath = journalPath;
    options.resume = true;
    return runCampaign(engine, campaign, options);
}

} // namespace mxl
