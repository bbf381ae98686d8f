/**
 * Process-isolation tests for fault campaigns: sandboxed trials run on
 * the persistent worker pool (support/procpool.h), one trial in flight
 * per worker, so a worker's death indicts exactly the trial it was
 * running. The sandboxed path must produce the same coverage matrix
 * as the in-process path, contain injected worker crashes and hangs
 * without losing the parent, re-dispatch only the culprit, classify
 * abandoned culprits from their death evidence, and interoperate with
 * the resume journal. The pool itself must survive writing to a
 * worker that died idle without any SIGPIPE handling from its host.
 * The suite forks real workers, so it carries its own ctest label
 * (`sandbox`) and should also be run under -DMXL_SANITIZE=address (the
 * parent's channel and frame bookkeeping) and =thread.
 */

#include <chrono>
#include <csignal>

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include "core/engine.h"
#include "core/experiment.h"
#include "faults/campaign.h"
#include "support/json.h"
#include "support/procpool.h"

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace mxl;

namespace {

/** Small campaign shared by the equivalence tests: 2 configs x 3
 *  classes x 8 trials of one list-heavy program = 48 trials. */
Campaign
smallCampaign()
{
    Campaign c;
    CampaignProgram rev;
    rev.name = "rev";
    rev.source =
        "(de rev (l acc) (if (null l) acc (rev (cdr l) (cons (car l) acc))))"
        "(de iota (n) (if (eq n 0) (quote ()) (cons n (iota (- n 1)))))"
        "(print (rev (iota 30) (quote ())))";
    rev.maxCycles = 2'000'000; // bench_faults' budget floor
    c.programs.push_back(rev);
    c.configs = {{"unchecked", lowTagSoftwareOptions(Checking::Off)},
                 {"checked", lowTagSoftwareOptions(Checking::Full)}};
    c.classes = {FaultClass::TagCorrupt, FaultClass::HeapTagCorrupt,
                 FaultClass::StackTagCorrupt};
    c.trials = 8;
    c.seed = 2026;
    return c;
}

/** Per-trial classification fingerprint, for matrix equality checks. */
std::string
matrixKey(const CampaignResult &r)
{
    std::string s;
    for (const TrialRecord &t : r.trials) {
        s += outcomeName(t.outcome);
        s += '/';
        s += detectChannelName(t.channel);
        s += ';';
    }
    return s;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

CampaignRunOptions
sandboxOptions()
{
    CampaignRunOptions o;
    o.sandbox.enabled = true;
    o.sandbox.procs = 2;
    return o;
}

} // namespace

TEST(Sandbox, CampaignMatrixMatchesInProcess)
{
    const std::string inprocPath = testing::TempDir() + "sandbox_inproc.jsonl";
    const std::string sandboxPath =
        testing::TempDir() + "sandbox_sandboxed.jsonl";
    Campaign c = smallCampaign();
    Engine e1(2);
    CampaignRunOptions inprocOpts;
    inprocOpts.journalPath = inprocPath;
    CampaignResult inproc = runCampaign(e1, c, inprocOpts);

    Engine e2(2);
    CampaignRunOptions sandboxOpts = sandboxOptions();
    sandboxOpts.journalPath = sandboxPath;
    CampaignResult sandboxed = runCampaign(e2, c, sandboxOpts);

    EXPECT_GT(sandboxed.sandbox.spawns, 1);
    EXPECT_EQ(sandboxed.sandbox.deaths, 0);
    EXPECT_EQ(matrixKey(sandboxed), matrixKey(inproc));
    EXPECT_EQ(sandboxed.renderMatrix(), inproc.renderMatrix());
    ASSERT_EQ(sandboxed.trials.size(), inproc.trials.size());
    for (size_t i = 0; i < inproc.trials.size(); ++i) {
        EXPECT_EQ(sandboxed.trials[i].errorCode, inproc.trials[i].errorCode)
            << i;
        EXPECT_EQ(sandboxed.trials[i].cycles, inproc.trials[i].cycles) << i;
    }
    // Both journals are in trial order, so they match byte for byte.
    EXPECT_EQ(readFile(sandboxPath), readFile(inprocPath));
    std::remove(inprocPath.c_str());
    std::remove(sandboxPath.c_str());
}

TEST(Sandbox, ContainsChildCrashAndHangThenConverges)
{
    Campaign c = smallCampaign();
    Engine e1(2);
    CampaignResult inproc = runCampaign(e1, c);

    // Chaos: one trial SIGSEGVs its child and one hangs it, first
    // attempt only — both must classify normally on retry, and the
    // parent must survive both deaths.
    Engine e2(2);
    CampaignRunOptions chaos = sandboxOptions();
    chaos.sandbox.childFaultHook = [](size_t ordinal, int attempt) {
        if (attempt > 0)
            return;
        if (ordinal == 5)
            raise(SIGSEGV);
        if (ordinal == 11)
            for (;;)
                sleep(1);
    };
    CampaignResult r = runCampaign(e2, c, chaos);

    EXPECT_EQ(r.sandbox.deaths, 2); // the SEGV and the hang-kill
    EXPECT_EQ(r.sandbox.watchdogKills, 1);
    EXPECT_EQ(r.sandbox.requeues, 2);
    EXPECT_EQ(r.sandbox.abandoned, 0);
    EXPECT_FALSE(r.sandbox.degraded);
    EXPECT_EQ(matrixKey(r), matrixKey(inproc));
}

TEST(Sandbox, WorkerDeathRequeuesOnlyTheInFlightTrial)
{
    // One worker, one first-attempt SIGSEGV: the dead worker was
    // running exactly one trial, so exactly that trial is re-dispatched
    // and nothing else is redone.
    Campaign c = smallCampaign();
    Engine e1(2);
    CampaignResult inproc = runCampaign(e1, c);

    Engine e2(2);
    CampaignRunOptions opts = sandboxOptions();
    opts.sandbox.procs = 1;
    opts.sandbox.childFaultHook = [](size_t ordinal, int attempt) {
        if (ordinal == 7 && attempt == 0)
            raise(SIGSEGV);
    };
    CampaignResult r = runCampaign(e2, c, opts);

    EXPECT_EQ(r.sandbox.deaths, 1);
    EXPECT_EQ(r.sandbox.requeues, 1);
    EXPECT_EQ(r.sandbox.abandoned, 0);
    EXPECT_EQ(r.sandbox.spawns, 2); // the first worker and its respawn
    EXPECT_EQ(matrixKey(r), matrixKey(inproc));
    EXPECT_EQ(r.renderMatrix(), inproc.renderMatrix());
}

TEST(Sandbox, PersistentCrashIsAbandonedAsItsDeathEvidence)
{
    Campaign c = smallCampaign();
    Engine e1(2);
    CampaignResult inproc = runCampaign(e1, c);

    Engine e2(2);
    CampaignRunOptions opts = sandboxOptions();
    opts.sandbox.maxAttempts = 2;
    // SIGKILL, not SIGSEGV: sanitizer runtimes intercept SEGV and turn
    // the death into a plain exit, which would hide the signal number.
    opts.sandbox.childFaultHook = [](size_t ordinal, int) {
        if (ordinal == 3)
            raise(SIGKILL); // every attempt: a deterministic killer
    };
    CampaignResult r = runCampaign(e2, c, opts);

    // The culprit classifies from its death: a fatal signal is a
    // crash, with the signal number preserved in the error code.
    const TrialRecord &culprit = r.trials[3];
    EXPECT_EQ(culprit.outcome, Outcome::CrashIllegalAccess);
    EXPECT_EQ(culprit.errorCode, -SIGKILL);
    EXPECT_EQ(culprit.channel, DetectChannel::None);
    EXPECT_EQ(culprit.cycles, 0u);
    EXPECT_EQ(r.sandbox.abandoned, 1);
    EXPECT_GE(r.sandbox.deaths, opts.sandbox.maxAttempts);

    // Only the culprit diverges from the in-process matrix.
    ASSERT_EQ(r.trials.size(), inproc.trials.size());
    for (size_t i = 0; i < r.trials.size(); ++i) {
        if (i == 3)
            continue;
        EXPECT_EQ(r.trials[i].outcome, inproc.trials[i].outcome) << i;
        EXPECT_EQ(r.trials[i].channel, inproc.trials[i].channel) << i;
    }
}

TEST(Sandbox, HangExhaustsRetriesThenClassifiesCycleLimit)
{
    // Retry-exhaustion ordering for hangs: the watchdog must kill the
    // hung child once per attempt — maxAttempts kills, then
    // abandonment as CycleLimit (a hang is a budget problem, not a
    // crash).
    Campaign c = smallCampaign();
    c.trials = 2; // 12 trials: keep the two watchdog periods cheap
    Engine e1(2);
    CampaignResult inproc = runCampaign(e1, c);
    Engine eng(2);
    CampaignRunOptions opts = sandboxOptions();
    opts.sandbox.maxAttempts = 2;
    opts.sandbox.childFaultHook = [](size_t ordinal, int) {
        if (ordinal == 1)
            for (;;)
                sleep(1); // hangs every attempt
    };
    CampaignResult r = runCampaign(eng, c, opts);

    const TrialRecord &culprit = r.trials[1];
    EXPECT_EQ(culprit.outcome, Outcome::CycleLimit);
    EXPECT_EQ(culprit.errorCode, 0);
    EXPECT_EQ(culprit.channel, DetectChannel::None);
    EXPECT_EQ(r.sandbox.watchdogKills, opts.sandbox.maxAttempts);
    EXPECT_EQ(r.sandbox.abandoned, 1);
    ASSERT_EQ(r.trials.size(), inproc.trials.size());
    for (size_t i = 0; i < r.trials.size(); ++i) {
        if (i != 1) {
            EXPECT_EQ(r.trials[i].outcome, inproc.trials[i].outcome) << i;
        }
    }
}

TEST(Sandbox, SandboxJournalResumesInProcess)
{
    // The journal is backend-of-execution agnostic: a campaign whose
    // first half ran sandboxed must resume in-process (and vice versa)
    // and converge on the same matrix.
    const std::string path = testing::TempDir() + "sandbox_resume.jsonl";
    std::remove(path.c_str());

    Campaign c = smallCampaign();
    Engine e1(2);
    CampaignRunOptions opts = sandboxOptions();
    opts.journalPath = path;
    CampaignResult full = runCampaign(e1, c, opts);
    EXPECT_GT(full.sandbox.spawns, 0);

    // Keep the header plus the first half of the trial lines.
    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 3u);
    const size_t keep = (lines.size() - 1) / 2;
    {
        std::ofstream out(path, std::ios::trunc);
        for (size_t i = 0; i <= keep; ++i)
            out << lines[i] << "\n";
    }

    Engine e2(2);
    CampaignRunOptions resume; // sandbox disabled: in-process remainder
    resume.journalPath = path;
    resume.resume = true;
    CampaignResult resumed = runCampaign(e2, c, resume);

    EXPECT_EQ(resumed.journaled, keep);
    EXPECT_EQ(resumed.sandbox.spawns, 0);
    EXPECT_EQ(matrixKey(resumed), matrixKey(full));
    EXPECT_EQ(resumed.renderMatrix(), full.renderMatrix());
    std::remove(path.c_str());
}

TEST(Sandbox, SandboxedResumeDispatchesOnlyUnjournaledTrials)
{
    // A half-journaled campaign resumed WITH the sandbox: the restored
    // trials never reach a worker, the rest run there, and the matrix
    // converges on the uninterrupted run's.
    const std::string path =
        testing::TempDir() + "sandbox_sandboxed_resume.jsonl";
    std::remove(path.c_str());

    Campaign c = smallCampaign();
    Engine e1(2);
    CampaignRunOptions first;
    first.journalPath = path;
    CampaignResult full = runCampaign(e1, c, first);

    std::vector<std::string> lines;
    {
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line))
            if (!line.empty())
                lines.push_back(line);
    }
    ASSERT_GT(lines.size(), 3u);
    const size_t keep = (lines.size() - 1) / 2;
    {
        std::ofstream out(path, std::ios::trunc);
        for (size_t i = 0; i <= keep; ++i)
            out << lines[i] << "\n";
    }

    Engine e2(2);
    CampaignRunOptions resume = sandboxOptions();
    resume.journalPath = path;
    resume.resume = true;
    size_t classified = 0;
    resume.onTrial = [&](const TrialRecord &) { ++classified; };
    CampaignResult resumed = runCampaign(e2, c, resume);

    EXPECT_EQ(resumed.journaled, keep);
    EXPECT_EQ(classified, full.trials.size() - keep);
    EXPECT_GT(resumed.sandbox.spawns, 0);
    EXPECT_EQ(resumed.sandbox.deaths, 0);
    EXPECT_EQ(matrixKey(resumed), matrixKey(full));
    EXPECT_EQ(resumed.renderMatrix(), full.renderMatrix());
    std::remove(path.c_str());
}

TEST(Sandbox, PoolSurvivesDispatchToWorkerThatDiedIdle)
{
    // No Server here, so nothing has set SIGPIPE to SIG_IGN: the pool's
    // own write to the dead worker's task channel must not raise it.
    ::signal(SIGPIPE, SIG_DFL);
    std::vector<std::string> results;
    int failures = 0;
    WorkerPoolOptions po;
    po.workers = 1;
    po.backoffBaseMs = 10;
    po.backoffCapMs = 50;
    po.runCell = [](const Json &cell, double, const std::string &) {
        return cell.dump();
    };
    WorkerPool pool(
        po,
        [&](uint64_t, const std::string &payload) {
            results.push_back(payload);
        },
        [&](uint64_t, bool, int) { ++failures; });
    pool.start();
    ASSERT_EQ(pool.idleWorkers(), 1);
    const pid_t pid = pool.workerPids().at(0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    // Wait for the exit without reaping it: the pool still owns it.
    siginfo_t info{};
    ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(pid), &info,
                       WEXITED | WNOWAIT),
              0);

    // The first dispatch finds the corpse and reaps it; the slot
    // respawns after its backoff and takes the task.
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool dispatched = false;
    while (!dispatched && std::chrono::steady_clock::now() < giveUp) {
        dispatched = pool.dispatch(1, "{\"x\":1}", 0);
        if (!dispatched)
            pool.pollOnce(50);
    }
    ASSERT_TRUE(dispatched);
    while (results.empty() && std::chrono::steady_clock::now() < giveUp)
        pool.pollOnce(50);
    ASSERT_EQ(results.size(), 1u);
    Json echoed;
    ASSERT_TRUE(Json::parse(results[0], &echoed)) << results[0];
    ASSERT_NE(echoed.find("x"), nullptr);
    EXPECT_EQ(echoed.find("x")->asInt(), 1);
    EXPECT_EQ(failures, 0); // the dead worker held no task
    EXPECT_EQ(pool.stats().deaths, 1);
    EXPECT_EQ(pool.stats().respawns, 1);
    pool.shutdown(5000);
}
