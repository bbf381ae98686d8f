/**
 * Fault-injection campaign: what does each degree of tag-checking
 * support actually catch?
 *
 * The paper (and bench_table2) measures what checking costs; this
 * harness measures what it buys. A fixed-seed campaign injects seven
 * fault classes — static tag-field corruption, single-bit flips in the
 * pristine image, ill-typed call arguments, and the heap- and
 * stack-resident variants (tag corruption / bit flip applied to the
 * *live* heap or control stack of a run paused mid-execution by the
 * engine's pause hook) — into the full ten-program benchmark suite, and
 * runs every (config × class × trial) cell through mxl::Engine under a
 * Table-2-style hardware ladder:
 *
 *   unchecked      the §2.1 high-tag implementation, no checking;
 *   software       the same, with full compiled software checks;
 *   lowtag-sw      LowTag3 software checking (§5.2);
 *   hw-traps       full checking on branch-on-tag + generic-arith +
 *                  checked-memory(All) hardware (Table 2 row 7 flavor);
 *   spur-like      the §7 combination: lists-only checked loads;
 *   memtag         LowTag3 with NO compiled checks but MTE-style
 *                  lock-and-key memory tagging — detection purely from
 *                  the memory system, zero instruction overhead.
 *
 * Per-program cycle budgets are derived from a fault-free pre-pass
 * (golden cycles × margin), so a runaway faulted run is cut off a few
 * golden-run-lengths in rather than at the global 800M-cycle guard.
 * The budget is each trial's only budget: no outcome depends on
 * wall-clock time, so the matrix and the journal are functions of the
 * seed.
 *
 * Faulted trials run process-isolated by default: persistent forked
 * workers (support/procpool.h) each run one trial at a time, so a
 * worker's death indicts exactly the trial it was running. A watchdog
 * kills a worker whose trial hangs, and the culprit is re-dispatched
 * to a fresh worker (respawned with backoff), so a trial that crashes
 * the simulator itself cannot take the campaign down. Each watchdog is
 * derived from the trial's cycle budget: kWatchdogMargin × budget ×
 * the goldens' measured seconds per cycle (faults/campaign.h); the
 * harness prints the rate and every program's watchdog. To prove
 * containment, the harness injects its own chaos — two worker
 * SIGSEGVs and one hang, first attempt only — and checks the campaign
 * completes with exactly those three deaths, one of them a watchdog
 * kill. --no-sandbox runs in-process.
 *
 * The campaign is durable: every classified trial is appended to a
 * JSONL journal (default BENCH_faults.jsonl) in trial order. Kill the
 * process at any point and rerun with `--resume <journal>` —
 * already-journaled trials are skipped and the campaign converges on
 * the identical coverage matrix and journal. (The resume acceptance
 * check replays half the journal in-process and compares both byte
 * for byte, which doubles as a sandbox-vs-in-process differential.)
 * The machine-readable outputs land in BENCH_faults.json: golden grid
 * in core/report.h's JSON schema + the coverage matrix, where every
 * cell carries detection coverage with a Wilson 95% interval and cycle
 * percentiles (faults/stats.h) — the statistics its "wilson" gate
 * recomputes for tools/bench_diff.
 *
 * --trials N scales the campaign (default 3 per cell ≈ 1.3k trials;
 * 250 ≈ 100k+ trials for a soak run — same seed, same per-trial
 * faults, just more of the population).
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "bench_export.h"
#include "core/engine.h"
#include "core/experiment.h"
#include "core/report.h"
#include "faults/campaign.h"
#include "faults/stats.h"
#include "programs/programs.h"
#include "support/format.h"
#include "support/json.h"
#include "support/procpool.h"

using namespace mxl;

namespace {

std::vector<CampaignConfigEntry>
configLadder()
{
    std::vector<CampaignConfigEntry> configs;
    configs.push_back({"unchecked", baselineOptions(Checking::Off)});
    configs.push_back({"software", baselineOptions(Checking::Full)});
    configs.push_back({"lowtag-sw", lowTagSoftwareOptions(Checking::Full)});

    CompilerOptions hwTraps = baselineOptions(Checking::Full);
    hwTraps.hw.branchOnTag = true;
    hwTraps.hw.genericArith = true;
    hwTraps.hw.checkedMemory = CheckedMem::All;
    configs.push_back({"hw-traps", hwTraps});

    CompilerOptions spur = baselineOptions(Checking::Full);
    spur.hw.ignoreTagOnMemory = true;
    spur.hw.branchOnTag = true;
    spur.hw.genericArith = true;
    spur.hw.checkedMemory = CheckedMem::Lists;
    configs.push_back({"spur-like", spur});

    // Memory tagging wants bases that stay pointer-tagged at access
    // time, which the low-tag scheme gives for free; Checking::Off
    // isolates the memory system's contribution — every detection in
    // this row is a lock/key mismatch trap, none a compiled check.
    CompilerOptions memtag = lowTagSoftwareOptions(Checking::Off);
    memtag.hw.memTagging = true;
    configs.push_back({"memtag", memtag});
    return configs;
}

/**
 * Per-program cycle budgets from a fault-free pre-pass: the unchecked
 * golden's cycle count times a margin that covers the slower checked
 * configurations plus runaway headroom. Compilations are shared with
 * the campaign's own goldens through the engine cache.
 */
std::vector<uint64_t>
measureBudgets(Engine &eng)
{
    std::vector<RunResult> results =
        runPrograms(eng, baselineOptions(Checking::Off));
    const auto &progs = benchmarkPrograms();
    std::vector<uint64_t> budgets;
    for (size_t i = 0; i < results.size(); ++i) {
        uint64_t golden = results[i].stats.total;
        uint64_t budget = golden * 6;
        if (budget < 2'000'000)
            budget = 2'000'000;
        budgets.push_back(budget);
        std::printf("  %-8s golden %10llu cycles, budget %11llu\n",
                    progs[i].name.c_str(),
                    static_cast<unsigned long long>(golden),
                    static_cast<unsigned long long>(budget));
    }
    return budgets;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

Campaign
buildCampaign(const std::vector<uint64_t> &budgets, int trials)
{
    Campaign c;
    const auto &progs = benchmarkPrograms();
    for (size_t i = 0; i < progs.size(); ++i)
        c.programs.push_back({progs[i].name, progs[i].source, budgets[i],
                              progs[i].heapBytes});
    c.configs = configLadder();
    c.classes = {FaultClass::TagCorrupt,      FaultClass::BitFlip,
                 FaultClass::CallArgType,     FaultClass::HeapTagCorrupt,
                 FaultClass::HeapBitFlip,     FaultClass::StackTagCorrupt,
                 FaultClass::StackBitFlip};
    c.trials = trials;
    c.seed = 19870401; // fixed: the matrix below is reproducible
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string journalPath = "BENCH_faults.jsonl";
    bool resume = false;
    bool sandbox = true;
    int trials = 3;
    int procs = 0; // 0 = hardware_concurrency
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--resume") == 0 && i + 1 < argc) {
            journalPath = argv[++i];
            resume = true;
        } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
            trials = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--procs") == 0 && i + 1 < argc) {
            procs = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--no-sandbox") == 0) {
            sandbox = false;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--resume <journal.jsonl>] "
                         "[--trials N] [--procs N] [--no-sandbox]\n",
                         argv[0]);
            return 2;
        }
    }
    if (trials <= 0) {
        std::fprintf(stderr, "--trials must be positive\n");
        return 2;
    }

    std::printf("Fault-injection campaign: detection coverage by degree "
                "of tag-checking support\n\n");

    Engine eng;
    TraceRecorder trace;
    eng.setTrace(&trace);
    std::printf("per-program cycle budgets (golden x 6, floor 2M):\n");
    std::vector<uint64_t> budgets = measureBudgets(eng);

    Campaign campaign = buildCampaign(budgets, trials);
    std::printf("\n(%zu programs x %zu configs x %zu fault classes x %d "
                "trials, seed %llu, backend %s)\n",
                campaign.programs.size(), campaign.configs.size(),
                campaign.classes.size(), campaign.trials,
                static_cast<unsigned long long>(campaign.seed),
                backendName(campaign.backend));
    std::printf("journal: %s%s, trials %s\n\n", journalPath.c_str(),
                resume ? " (resuming)" : "",
                sandbox ? "sandboxed (forked children)" : "in-process");

    CampaignRunOptions options;
    options.journalPath = journalPath;
    options.resume = resume;
    options.sandbox.enabled = sandbox;
    options.sandbox.procs = procs;
    // Self-inflicted chaos (first attempt only): two trials whose worker
    // dies by SIGSEGV and one that hangs until the watchdog kills it.
    // The retry runs them clean, so the matrix is unaffected — the
    // acceptance checks below prove the parent contained all three.
    if (sandbox) {
        options.sandbox.childFaultHook = [](size_t ordinal, int attempt) {
            if (attempt > 0)
                return;
            if (ordinal == 101 || ordinal == 707)
                raise(SIGSEGV);
            if (ordinal == 404)
                for (;;)
                    std::this_thread::sleep_for(std::chrono::seconds(1));
        };
    }
    size_t completed = 0;
    const size_t total = campaign.programs.size() *
                         campaign.configs.size() *
                         campaign.classes.size() *
                         static_cast<size_t>(campaign.trials);
    options.onTrial = [&](const TrialRecord &) {
        ++completed;
        if (completed % 100 == 0) {
            std::printf("  ... %zu trials classified\n", completed);
            std::fflush(stdout);
        }
    };
    CampaignResult r = runCampaign(eng, campaign, options);
    std::printf("%zu trials run, %zu restored from journal (of %zu)\n\n",
                completed, r.journaled, total);
    // Where each sandbox watchdog comes from: the trial's budget at the
    // goldens' host rate, times the margin (as faults/campaign.cc
    // dispatches it), plus the pool's fixed grace.
    std::printf("golden rate %.2f ns/cycle; sandbox watchdog = %g x budget "
                "x rate, + %d ms grace:\n",
                r.goldenSecondsPerCycle * 1e9, kWatchdogMargin,
                WorkerPoolOptions().watchdogGraceMs);
    for (const CampaignProgram &p : campaign.programs)
        std::printf("  %-8s budget %11llu cycles, watchdog %7.2f s\n",
                    p.name.c_str(),
                    static_cast<unsigned long long>(p.maxCycles),
                    kWatchdogMargin * static_cast<double>(p.maxCycles) *
                        r.goldenSecondsPerCycle);
    std::printf("\n");
    std::printf("%s\n", r.renderMatrix().c_str());
    std::printf("per cell: %zu programs x %d trials = %d faults; "
                "det = detected, hw-traps/sw-checks split the detected "
                "column\n\n",
                campaign.programs.size(), campaign.trials,
                static_cast<int>(campaign.programs.size()) *
                    campaign.trials);

    // ---- machine-readable export ----
    Json faultsDoc;
    {
        // The golden grid in report.h's JSON schema (compiles are cache
        // hits by now), plus the coverage matrix.
        std::vector<RunRequest> goldenReqs;
        for (size_t p = 0; p < campaign.programs.size(); ++p)
            for (size_t c = 0; c < campaign.configs.size(); ++c) {
                RunRequest req;
                req.source = campaign.programs[p].source;
                req.opts = campaign.configs[c].opts;
                req.exec.maxCycles = campaign.programs[p].maxCycles;
                req.exec.backend = campaign.backend;
                req.label = strcat("golden/", campaign.programs[p].name,
                                   "/", campaign.configs[c].label);
                goldenReqs.push_back(std::move(req));
            }
        // Per-cell cycle samples (skipped trials carry no run).
        std::vector<std::vector<uint64_t>> cellCycles(r.configCount *
                                                      r.classCount);
        for (const TrialRecord &rec : r.trials)
            if (rec.outcome != Outcome::Skipped)
                cellCycles[static_cast<size_t>(rec.config) * r.classCount +
                           static_cast<size_t>(rec.cls)]
                    .push_back(rec.cycles);

        Json matrix = Json::array();
        for (size_t c = 0; c < r.configCount; ++c)
            for (size_t k = 0; k < r.classCount; ++k) {
                const CampaignCell &cell = r.cell(c, k);
                // Detection coverage with its Wilson 95% interval —
                // what the "coverage" gate recomputes.
                CoverageCell cov;
                cov.config = r.configLabels[c];
                cov.cls = r.classLabels[k];
                cov.detected = cell.detected();
                cov.total = cell.total();
                cov.skipped = cell.count(Outcome::Skipped);
                finishCoverageCell(&cov);
                Json jc = coverageCellJson(cov);
                for (Outcome o : {Outcome::SilentWrongAnswer,
                                  Outcome::CrashIllegalAccess,
                                  Outcome::CycleLimit, Outcome::Masked})
                    jc.set(outcomeName(o),
                           static_cast<int64_t>(cell.count(o)));
                jc.set("hardwareTraps",
                       static_cast<int64_t>(cell.hardwareTraps));
                jc.set("softwareChecks",
                       static_cast<int64_t>(cell.softwareChecks));
                // Cycle percentiles over the cell's faulted runs.
                PercentileSummary cyc =
                    percentileSummary(cellCycles[c * r.classCount + k]);
                jc.set("cyc_min", cyc.min);
                jc.set("cyc_p50", cyc.p50);
                jc.set("cyc_p90", cyc.p90);
                jc.set("cyc_p99", cyc.p99);
                jc.set("cyc_max", cyc.max);
                matrix.push(std::move(jc));
            }
        faultsDoc = benchDoc(
            "faults", gridJson(goldenReqs, r.goldens), nullptr,
            Json::array().push(cycleGate()).push(
                gateJson("coverage", "matrix", "config,class", "coverage",
                         GateKind::Wilson)));
        faultsDoc.set("campaign",
                      strcat("bench_faults seed ", campaign.seed));
        faultsDoc.set("matrix", std::move(matrix));
    }

    // ---- acceptance checks ----
    int failures = 0;
    auto check = [&](bool ok, const std::string &what) {
        std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
        if (!ok)
            ++failures;
    };

    // Class order: TagCorrupt=0, BitFlip=1, CallArgType=2,
    // HeapTagCorrupt=3, HeapBitFlip=4, StackTagCorrupt=5,
    // StackBitFlip=6. Config order: unchecked=0, software=1,
    // lowtag-sw=2, hw-traps=3, spur-like=4, memtag=5.
    int uncheckedDet = r.cell(0, 0).detected();
    int hwDet = r.cell(3, 0).detected();
    check(hwDet > uncheckedDet,
          strcat("checked-memory hardware detects strictly more tag "
                 "corruptions than unchecked (",
                 hwDet, " > ", uncheckedDet, ")"));
    check(r.cell(3, 0).hardwareTraps > 0,
          strcat("hw-traps detections include hardware traps (",
                 r.cell(3, 0).hardwareTraps, ")"));
    check(r.cell(1, 0).detected() > uncheckedDet,
          strcat("software checking also beats unchecked (",
                 r.cell(1, 0).detected(), " > ", uncheckedDet, ")"));
    int uncheckedHeapDet = r.cell(0, 3).detected();
    int hwHeapDet = r.cell(3, 3).detected();
    check(hwHeapDet > uncheckedHeapDet,
          strcat("live-heap tag corruption: checked hardware beats "
                 "unchecked (",
                 hwHeapDet, " > ", uncheckedHeapDet, ")"));

    // Memory tagging: no compiled checks at all, yet the lock/key
    // memory system catches live-data corruption the unchecked
    // baseline misses — and every one of its catches is a trap.
    {
        int memtagLive = r.cell(5, 3).detected() + r.cell(5, 5).detected();
        int uncheckedLive =
            r.cell(0, 3).detected() + r.cell(0, 5).detected();
        check(memtagLive > uncheckedLive,
              strcat("memtag detects more live heap+stack tag corruption "
                     "than unchecked (",
                     memtagLive, " > ", uncheckedLive, ")"));
        int memtagTraps = 0;
        for (size_t k = 0; k < r.classCount; ++k)
            memtagTraps += r.cell(5, k).hardwareTraps;
        check(memtagTraps > 0,
              strcat("memtag detections arrive as hardware traps (",
                     memtagTraps, ")"));
    }

    // Zero host crashes: every trial came back classified.
    check(r.trials.size() == total,
          strcat("every fault classified, none escaped the simulator (",
                 r.trials.size(), "/", total, ")"));

    // The sandbox contained the injected chaos: two worker SIGSEGVs and
    // one hang (killed by the watchdog), all retried clean — and the
    // campaign parent never noticed beyond the stats. The counts are
    // exact: a watchdog derived from the budget kills no innocent trial.
    if (sandbox && !resume && total - r.journaled > 707) {
        check(r.sandbox.deaths == 3 && r.sandbox.watchdogKills == 1,
              strcat("sandbox contained the injected chaos (",
                     r.sandbox.deaths, " child deaths, ",
                     r.sandbox.watchdogKills, " watchdog kills, ",
                     r.sandbox.requeues, " requeues)"));
        check(!r.sandbox.degraded && r.sandbox.abandoned == 0,
              "chaos trials all recovered on retry (no abandonment, "
              "no degradation)");
    }

    // Durability: truncate the journal to half its trial lines and
    // resume — the matrix and the journal must come back byte-identical.
    // The resume runs in-process, so when the main pass was sandboxed
    // this is also a sandbox-vs-in-process differential over half the
    // trials.
    {
        std::ifstream in(journalPath);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
        in.close();
        const std::string halfPath = journalPath + ".half";
        std::ofstream half(halfPath, std::ios::trunc);
        for (size_t i = 0; i < 1 + (lines.size() - 1) / 2; ++i)
            half << lines[i] << "\n";
        half.close();
        Engine eng2(2);
        CampaignResult resumed = resumeCampaign(eng2, campaign, halfPath);
        check(resumed.journaled == (lines.size() - 1) / 2,
              strcat("resume restored the journaled half (",
                     resumed.journaled, " trials)"));
        check(resumed.renderMatrix() == r.renderMatrix() &&
                  readFile(halfPath) == readFile(journalPath),
              "half-journal resume converges to a byte-identical "
              "coverage matrix and journal");
        std::remove(halfPath.c_str());
    }

    // The registry's per-outcome trial counters must agree with the
    // aggregated matrix (campaign.cc bumps them as trials classify).
    {
        uint64_t counted = 0;
        for (int o = 0; o < static_cast<int>(Outcome::NumOutcomes); ++o)
            counted += eng.metrics()
                           .counter(strcat("faults.outcome.",
                                           outcomeName(
                                               static_cast<Outcome>(o))))
                           .value();
        // Journal-restored trials never re-classify, so they are not
        // counted (relevant under --resume).
        check(counted == total - r.journaled,
              strcat("metrics registry counted every classified trial (",
                     counted, "/", total - r.journaled, ")"));
    }

    // ---- observability artifacts ----
    faultsDoc.set("metrics", eng.metrics().snapshot());
    if (!writeBenchJson("faults", faultsDoc))
        ++failures;
    eng.setTrace(nullptr);
    if (!writeBenchTrace("faults", trace))
        ++failures;

    auto cs = eng.cacheStats();
    std::printf("\nengine: %u worker(s), cache %llu hit / %llu miss, "
                "%llu/%llu bytes, %llu evictions\n",
                eng.threadCount(),
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.bytes),
                static_cast<unsigned long long>(cs.byteLimit),
                static_cast<unsigned long long>(cs.evictions));
    return failures == 0 ? 0 : 1;
}
