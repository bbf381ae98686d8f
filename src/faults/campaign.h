/**
 * @file
 * Fault-injection campaigns: the detection-coverage counterpart of the
 * paper's cost tables.
 *
 * A Campaign names a grid of (program × hardware/compiler configuration
 * × fault class) cells and a trial count; runCampaign() first computes
 * one fault-free golden run per (program, configuration), then fans
 * every faulted trial through Engine::runGrid and classifies each
 * outcome against its golden:
 *
 *   Detected           the run stopped with an error the checking
 *                      machinery raised (software check, software trap
 *                      fallback, or an unhandled hardware trap);
 *   SilentWrongAnswer  the run halted "cleanly" but its output or exit
 *                      value differs from the golden — the outcome tag
 *                      checking exists to prevent;
 *   CrashIllegalAccess the run went wild (load/store outside the image,
 *                      division by zero, or a simulator-internal error);
 *   CycleLimit         the run neither halted nor erred within its
 *                      cycle budget (CampaignProgram::maxCycles);
 *   Masked             the run halted with output identical to the
 *                      golden — the fault was absorbed;
 *   Skipped            the (program, configuration) pair's golden run
 *                      itself failed, so its trials were not run —
 *                      one broken cell degrades to a labeled hole in
 *                      the matrix instead of aborting the campaign.
 *
 * Every trial's fault is derived deterministically from Campaign::seed
 * and the trial's (program, class, trial) coordinates — deliberately
 * NOT from the configuration, so all configurations face the same fault
 * population and detection rates are directly comparable across rows.
 * (Live-run classes add a pause cycle per configuration — a fraction
 * of its golden run, or the seed's call from a call scan; the
 * site-selection seed is still configuration-independent.)
 *
 * The cycle budget is a trial's only budget: outcomes depend on the
 * seed, not on host speed (see kWatchdogMargin for the sandbox).
 *
 * Campaigns are durable: give CampaignRunOptions a journalPath and
 * every trial is appended to a JSONL journal in trial order (header
 * line = campaign identity, then one flat object per trial), so one
 * seed writes one journal byte for byte. A killed campaign restarted
 * with resume=true (or resumeCampaign()) loads the journal, skips
 * every already-journaled trial, and runs only the remainder —
 * converging on the same coverage matrix and the same journal as an
 * uninterrupted run.
 */

#ifndef MXLISP_FAULTS_CAMPAIGN_H_
#define MXLISP_FAULTS_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "faults/fault_injector.h"

namespace mxl {

/** How a Detected outcome was detected. */
enum class DetectChannel
{
    None,          ///< outcome is not Detected
    SoftwareCheck, ///< compiled inline check or runtime `error`
    HardwareTrap,  ///< Addt/Subt or Ldt/Stt trap (handled or not)
};

/** Classified outcome of one faulted trial (see file comment). */
enum class Outcome
{
    Detected,
    SilentWrongAnswer,
    CrashIllegalAccess,
    CycleLimit,
    Masked,
    Skipped,
    NumOutcomes,
};

const char *outcomeName(Outcome o);
const char *detectChannelName(DetectChannel c);

/** Inverse of outcomeName/detectChannelName; false on unknown names
 *  (journal parsing). */
bool outcomeFromName(const std::string &name, Outcome *out);
bool detectChannelFromName(const std::string &name, DetectChannel *out);

/** One benchmark program of a campaign. */
struct CampaignProgram
{
    std::string name;
    std::string source;
    uint64_t maxCycles = 50'000'000;
    uint32_t heapBytes = 0; ///< per-semispace override; 0 = config's
};

/** One hardware/compiler configuration (a Table-2-style ladder rung). */
struct CampaignConfigEntry
{
    std::string label;
    CompilerOptions opts;
};

/** The full campaign grid. */
struct Campaign
{
    std::vector<CampaignProgram> programs;
    std::vector<CampaignConfigEntry> configs;
    std::vector<FaultClass> classes;
    int trials = 20;   ///< faulted trials per (prog, config, class)
    uint64_t seed = 1; ///< root of every per-trial fault seed

    /**
     * Execution tier every golden and faulted trial requests
     * (ExecPolicy::backend). Part of the campaign's identity: the
     * journal header records it and resume refuses a journal written
     * under a different tier — trial outcomes are only comparable
     * within one tier's semantics.
     */
    Backend backend = Backend::Auto;
};

/** One classified trial. */
struct TrialRecord
{
    int program = 0; ///< index into Campaign::programs
    int config = 0;  ///< index into Campaign::configs
    int cls = 0;     ///< index into Campaign::classes
    int trial = 0;
    uint64_t faultSeed = 0;
    uint64_t pauseCycle = 0; ///< pause classes: FaultSpec::pauseCycle
    Outcome outcome = Outcome::Masked;
    DetectChannel channel = DetectChannel::None;
    int64_t errorCode = 0;  ///< RunResult::errorCode of the faulted run
    int faultIndex = -1;    ///< faulting instruction index, when known
    uint64_t cycles = 0;    ///< cycles the faulted run executed
    /** Tier that actually ran the trial (RunReport::backend; the
     *  interpreter when the campaign's Auto request fell back). */
    Backend backend = Backend::Interpreter;
};

/** Aggregated counts for one (config, class) matrix cell. */
struct CampaignCell
{
    int byOutcome[static_cast<int>(Outcome::NumOutcomes)] = {};
    int hardwareTraps = 0;  ///< Detected via DetectChannel::HardwareTrap
    int softwareChecks = 0; ///< Detected via DetectChannel::SoftwareCheck

    int count(Outcome o) const { return byOutcome[static_cast<int>(o)]; }
    int detected() const { return count(Outcome::Detected); }
    int
    total() const
    {
        int t = 0;
        for (int n : byOutcome)
            t += n;
        return t;
    }
};

/**
 * A sandboxed trial's watchdog is kWatchdogMargin × its maxCycles ×
 * CampaignResult::goldenSecondsPerCycle, plus the pool's fixed grace
 * for the work outside the run. Workers fork from the process that
 * timed the goldens, so a sanitizer's or a loaded host's slowdown
 * scales both sides. What the rate misses is the tier gap: goldens
 * mostly run translated (1.4–2.5 ns per cycle), while the memtag
 * configuration's trials run on the interpreter (12–21 ns), up to 10.4×
 * one cell's translated rate (bench_faults' ladder, best of 3, 4-vCPU
 * Xeon). 40 is that ~10× gap times 4× load headroom. Pause and call-arg
 * trials run translated; once memtag trials do too, the tier factor
 * can go.
 */
inline constexpr double kWatchdogMargin = 40;

/**
 * Process isolation for a campaign's faulted trials
 * (CampaignRunOptions::sandbox): trials run on persistent forked
 * workers (support/procpool.h), one trial in flight per worker, each
 * under a watchdog derived from its cycle budget (kWatchdogMargin).
 */
struct SandboxOptions
{
    bool enabled = false; ///< route trials through forked workers

    /** Concurrent worker processes; 0 = hardware_concurrency(). */
    int procs = 0;

    /** Worker deaths one trial may cause before it is abandoned and
     *  classified from the last death's evidence. */
    int maxAttempts = 3;

    /**
     * Test chaos seam, invoked IN THE WORKER before each trial runs
     * with the trial's request ordinal and its attempt (0 = first).
     * Tests use it to crash or hang specific (ordinal, attempt) pairs
     * and assert the parent's containment behavior. Null in production.
     */
    std::function<void(size_t ordinal, int attempt)> childFaultHook;
};

/** What the campaign parent observed of its sandbox workers. */
struct SandboxStats
{
    int spawns = 0;        ///< workers forked (incl. respawns)
    int deaths = 0;        ///< abnormal worker exits (signal / nonzero)
    int watchdogKills = 0; ///< workers we killed for a hung trial
    int requeues = 0;      ///< culprit trials re-dispatched after a death
    int abandoned = 0;     ///< trials that exhausted maxAttempts
    bool degraded = false; ///< fork failed persistently; the remaining
                           ///< trials ran in-process
};

/** Everything runCampaign() measures. */
struct CampaignResult
{
    size_t configCount = 0;
    size_t classCount = 0;
    std::vector<std::string> programLabels;
    std::vector<std::string> configLabels;
    std::vector<std::string> classLabels;
    /** configs × classes, row-major by config. */
    std::vector<CampaignCell> cells;
    std::vector<TrialRecord> trials;

    /** Fault-free reference runs, programs × configs row-major by
     *  program. A non-ok() golden means its trials are Skipped. */
    std::vector<RunReport> goldens;

    /** Trials restored from the resume journal instead of re-run. */
    size_t journaled = 0;

    /** engine.run_micros over the golden grid / the goldens' cycles. */
    double goldenSecondsPerCycle = 0;

    /** What the sandbox observed (zeroed when trials ran in-process). */
    SandboxStats sandbox;

    const RunReport &
    golden(size_t program, size_t config) const
    {
        return goldens[program * configCount + config];
    }

    const CampaignCell &
    cell(size_t config, size_t cls) const
    {
        return cells[config * classCount + cls];
    }
    CampaignCell &
    cell(size_t config, size_t cls)
    {
        return cells[config * classCount + cls];
    }

    /**
     * Render the detection-coverage matrix: one row per configuration,
     * one column group per fault class with detected/silent/crash/
     * limit/masked counts, plus the hardware-vs-software detection
     * split.
     */
    std::string renderMatrix() const;
};

/**
 * Classify one faulted run against its fault-free golden. Exposed for
 * unit tests; @p channel (optional) receives the detection channel.
 * @p golden must be a clean (ok()) run of the same (program, config).
 */
Outcome classifyOutcome(const RunReport &faulted, const RunReport &golden,
                        DetectChannel *channel = nullptr);

/** Durability and observability knobs for runCampaign(). */
struct CampaignRunOptions
{
    /**
     * JSONL trial journal (first line is the campaign identity), one
     * line per trial in trial order: a classified trial is written
     * once every earlier trial has been. Empty disables journaling.
     * Each line is flushed on its own, so a killed campaign loses the
     * trials from the earliest one still in flight onward.
     */
    std::string journalPath;

    /**
     * Load @p journalPath first and skip every trial it already
     * records. The journal's identity line must match this campaign's
     * structure (seed, trial count, program/config/class lists);
     * fatal() on mismatch. A missing or empty journal file is treated
     * as a fresh start.
     */
    bool resume = false;

    /**
     * Invoked once per classified trial, on the worker thread that ran
     * it (completion order), under the journal lock — the campaign's
     * progress hook. Also invoked for Skipped trials. Under the
     * sandbox it runs on the parent's campaign thread.
     */
    std::function<void(const TrialRecord &)> onTrial;

    /**
     * Process isolation for the faulted trials. With sandbox.enabled,
     * pending trials run on persistent forked workers, one in flight
     * per worker, instead of the engine's worker grid: goldens,
     * classification semantics, journaling, and the resulting matrix
     * are identical, but a trial that crashes or hangs the simulator
     * kills only its worker. Because each worker runs one trial at a
     * time, the dead worker's trial is the culprit: it is
     * re-dispatched to a fresh worker, and after
     * SandboxOptions::maxAttempts deaths it is classified from the
     * last one (hang-kill -> CycleLimit; fatal signal ->
     * CrashIllegalAccess with errorCode = -signal). Degrades back to
     * in-process execution if fork fails persistently.
     */
    SandboxOptions sandbox;
};

/**
 * Run the whole campaign through @p engine: goldens first (a (program,
 * configuration) pair whose golden fails has its trials classified
 * Skipped — one broken cell cannot abort the campaign), then every
 * pending faulted trial in one Engine::runGrid batch. Deterministic:
 * same campaign, same coverage matrix and journal, regardless of
 * thread count, sandboxing, host speed, or how many times the
 * campaign was killed and resumed.
 */
CampaignResult runCampaign(Engine &engine, const Campaign &campaign,
                           const CampaignRunOptions &options);

/** runCampaign() with default options (no journal). */
CampaignResult runCampaign(Engine &engine, const Campaign &campaign);

/** Restart a journaled campaign: runCampaign() with resume=true. */
CampaignResult resumeCampaign(Engine &engine, const Campaign &campaign,
                              const std::string &journalPath);

} // namespace mxl

#endif // MXLISP_FAULTS_CAMPAIGN_H_
