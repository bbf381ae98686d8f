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
 *                      cycle budget or wall-clock deadline;
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
 * (Heap-resident classes add a pause cycle scaled to each
 * configuration's golden run length; the site-selection seed is still
 * configuration-independent.)
 *
 * Campaigns are durable: give CampaignRunOptions a journalPath and
 * every trial is appended to a JSONL journal the moment it classifies
 * (header line = campaign identity, then one flat object per trial).
 * A killed campaign restarted with resume=true (or resumeCampaign())
 * loads the journal, skips every already-journaled trial, and runs
 * only the remainder — converging on the same coverage matrix as an
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
    int trials = 20;           ///< faulted trials per (prog, config, class)
    uint64_t seed = 1;         ///< root of every per-trial fault seed
    double deadlineSeconds = 0; ///< per-trial wall-clock guard (0 = none)

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
    uint64_t pauseCycle = 0; ///< heap classes: FaultSpec::pauseCycle
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
 * Process isolation for a campaign's faulted trials
 * (CampaignRunOptions::sandbox): trials run on persistent forked
 * workers (support/procpool.h), one trial in flight per worker.
 */
struct SandboxOptions
{
    bool enabled = false; ///< route trials through forked workers

    /** Concurrent worker processes; 0 = hardware_concurrency(). */
    int procs = 0;

    /** Worker deaths one trial may cause before it is abandoned and
     *  classified from the last death's evidence. */
    int maxAttempts = 3;

    /** A worker running one trial for this long is killed (presumed
     *  hung). 0 disables the watchdog. Size it above the campaign's
     *  own per-trial deadline so legitimate slow trials survive. */
    double watchdogSeconds = 0;

    /** Respawn backoff after a worker death: base * 2^(n-1) ms,
     *  capped, for a slot's n-th consecutive death. Only the dead slot
     *  waits; the others keep running trials. */
    int backoffBaseMs = 50;
    int backoffCapMs = 2000;

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
     * JSONL trial journal, appended as trials classify (first line is
     * the campaign identity). Empty disables journaling. The write is
     * flushed per trial, so a killed campaign loses at most the trials
     * still in flight.
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
     * Re-run a trial whose wall-clock deadline expired this many times
     * before classifying it CycleLimit — a loaded host must not turn
     * scheduling jitter into coverage noise. Retries run inline on the
     * worker that observed the timeout.
     */
    int timeoutRetries = 1;

    /**
     * Invoked once per classified trial, on the worker thread that ran
     * it (completion order), under the journal lock — the campaign's
     * progress hook. Also invoked for Skipped trials. Under the
     * sandbox it runs on the parent's campaign thread.
     */
    std::function<void(const TrialRecord &)> onTrial;

    /**
     * Process isolation for the faulted trials. With sandbox.enabled
     * on a supported platform, pending trials run on persistent forked
     * workers, one in flight per worker, instead of the engine's
     * worker grid: goldens, classification semantics, journaling, and
     * the resulting matrix are identical, but a trial that crashes or
     * hangs the simulator kills only its worker. Because each worker
     * runs one trial at a time, the dead worker's trial is the culprit:
     * it is re-dispatched to a fresh worker, and after
     * SandboxOptions::maxAttempts deaths it is classified from the
     * last one (hang-kill -> CycleLimit; fatal signal ->
     * CrashIllegalAccess with errorCode = -signal). Ignored where
     * procPoolSupported() is false, and degrades back to in-process
     * execution if fork fails persistently.
     */
    SandboxOptions sandbox;
};

/**
 * Run the whole campaign through @p engine: goldens first (a (program,
 * configuration) pair whose golden fails has its trials classified
 * Skipped — one broken cell cannot abort the campaign), then every
 * pending faulted trial in one Engine::runGrid batch. Deterministic:
 * same campaign, same coverage matrix, regardless of thread count,
 * journaling, or how many times the campaign was killed and resumed.
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
