/**
 * @file
 * mxl::Engine — the batch execution API over the (program × options)
 * measurement grid.
 *
 * The paper's experiments, and every bench harness in this repo, walk a
 * grid of (benchmark program, compiler configuration) cells. The Engine
 * turns that walk into a first-class operation:
 *
 *  - a compiled-unit cache keyed by (source, canonicalized
 *    CompilerOptions), so a configuration that appears in several
 *    tables is compiled once;
 *  - a worker thread pool: runGrid() fans requests out across N threads
 *    (simulations share no mutable state, so they are embarrassingly
 *    parallel) and returns reports in deterministic request order with
 *    cycle counts identical to serial execution;
 *  - Status-style error reporting: compile failures come back in
 *    RunReport::status instead of being thrown, so one bad cell does
 *    not abort a 140-cell sweep.
 *
 * Typical use:
 *
 *     mxl::Engine eng;                       // hardware_concurrency workers
 *     std::vector<mxl::RunRequest> grid = ...;
 *     for (const mxl::RunReport &rep : eng.runGrid(grid))
 *         if (rep.ok()) consume(rep.result);
 *
 * The legacy free functions compileAndRun()/runUnit() in core/run.h
 * remain as thin wrappers over Engine::defaultEngine().
 */

#ifndef MXLISP_CORE_ENGINE_H_
#define MXLISP_CORE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "compiler/options.h"
#include "compiler/unit.h"
#include "core/run.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/owner_memo.h"

namespace mxl {

struct TranslateResult; // exec/texec.h

/** Outcome classification of an Engine request (before run semantics). */
struct RunStatus
{
    enum class Code
    {
        Ok,            ///< compiled and simulated; see RunResult::stop
        CompileError,  ///< fatal(): bad Lisp source or configuration
        InternalError, ///< panic(): a bug inside mxlisp itself
        Timeout,       ///< RunRequest::deadlineSeconds expired mid-run
    };

    Code code = Code::Ok;
    std::string message; ///< diagnostic text when code != Ok

    bool ok() const { return code == Code::Ok; }
};

/**
 * Which execution backend a request runs on.
 *
 * `Auto` is the default tier policy: use the translated backend when
 * the unit translates and the request carries no hook the translated
 * executor lacks a seam for, otherwise fall back to the interpreter
 * (counted in `engine.backend.fallbacks`, stamped in
 * RunReport::backend). `Interpreter` pins the reference
 * machine/machine.cc path; `Translated` demands the threaded backend
 * and fails the request with InternalError when it cannot run there.
 * Both backends produce byte-identical RunResults for every request
 * the translated tier accepts (tests/test_backend.cc).
 */
enum class Backend : uint8_t
{
    Auto,
    Interpreter,
    Translated,
};

const char *backendName(Backend b);

/**
 * How to execute a cell: budget, deadline, backend tier, and the two
 * run knobs both backends honor. Everything here is supported by both
 * execution tiers — a request whose hooks are empty runs translated
 * under `Auto` whenever its unit translates.
 */
struct ExecPolicy
{
    uint64_t maxCycles = kDefaultMaxCycles;

    /**
     * Per-request wall-clock deadline in seconds; 0 means none. The
     * simulation runs in cycle chunks (both backends use the same
     * chunking) and a cell that overruns comes back with
     * `status.code == Timeout` — one pathological cell cannot stall a
     * campaign. Runs that finish in time are cycle-identical to
     * deadline-free runs.
     */
    double deadlineSeconds = 0;

    /** Backend tier; see Backend. */
    Backend backend = Backend::Auto;

    /**
     * Install the unit's compiled software fallback trap handlers
     * (rt_arithtrap / rt_tagtrap). Campaigns set this false to measure
     * the bare unhandled-trap semantics (machine/machine.h).
     */
    bool installTrapHandlers = true;
};

/**
 * The instrumentation and mutation seams of a request. None of these
 * participate in the compiled-unit cache key — requests that differ
 * only in hooks share a compilation. machineSetup, the snapshot pause
 * and collectProfile need the interpreter's seams, so setting one makes
 * an `Auto` request fall back (see needsInterpreter()); imageMutator
 * and unitTransform work on either backend.
 */
struct Hooks
{
    /**
     * Applied to the freshly expanded pristine image before execution
     * (the cached compiled unit is never touched). This is the
     * fault-injection seam (src/faults/): memory perturbations happen
     * on the per-run copy, so cache hits stay sound. Supported by both
     * backends.
     */
    std::function<void(Memory &, const CompiledUnit &)> imageMutator;

    /** Forwarded to RunControls::machineSetup (register/hook faults).
     *  Interpreter-only: the hook touches a live Machine. */
    std::function<void(Machine &, const CompiledUnit &)> machineSetup;

    /**
     * Pause the run once its cycle count first exceeds this value and
     * hand a MachineSnapshot of the live state (registers, run-time
     * heap, pipeline state) to @p snapshotHook, which may mutate it;
     * the run then resumes from the (mutated) snapshot. 0, or a missing
     * hook, disables the pause. This is the heap-resident fault seam
     * (src/faults/): unlike imageMutator, the hook sees state the
     * program built at run time, not the pristine image.
     * Interpreter-only. See RunControls::pauseAtCycle.
     */
    uint64_t pauseAtCycle = 0;

    /** Forwarded to RunControls::snapshotHook. */
    std::function<void(MachineSnapshot &, const CompiledUnit &)>
        snapshotHook;

    /**
     * Collect the per-PC instruction profile for this cell
     * (RunControls::collectProfile); the histogram comes back in
     * RunReport::result.profile. Interpreter-only: the translated
     * executor keeps per-index counts in a different shape.
     */
    bool collectProfile = false;

    /**
     * Applied to the compiled unit after compilation (or a cache hit)
     * and before the backend is chosen: the seam for static rewriters
     * (analysis/checkelim.h, analysis/checkplace.h). The transform must
     * return a new or unchanged unit — the cached unit itself is shared
     * and immutable; returning null is an InternalError. The returned
     * unit then runs under the request's ExecPolicy like any other.
     *
     * The engine memoizes its work on the returned unit per unit
     * *object* (support/owner_memo.h): the verifier verdict and the
     * translation are computed on the object's first use and reused for
     * as long as it lives. A transform that returns the same object for
     * the same input (both analysis adapters do) is therefore verified
     * and translated once; one that builds a fresh unit per call pays
     * both per call. A returned unit must not be mutated afterwards.
     */
    std::function<std::shared_ptr<const CompiledUnit>(
        std::shared_ptr<const CompiledUnit>)>
        unitTransform;

    /**
     * Re-prove tag discipline on whatever unitTransform returns before
     * it executes (analysis/verify.h). The transform is untrusted code
     * by design — the independent verifier is the trusted base — so a
     * rewriter bug surfaces as a structured InternalError ("transformed
     * unit rejected by load-time verifier: ...") instead of a silently
     * wrong simulation. On by default; meaningless without a
     * unitTransform. Skipped when the transform returns the cached
     * unit unchanged. The verdict is cached per unit object: it is
     * computed the first time a request with the gate on meets the
     * object (a gate-off request never records one), and every gated
     * request for that object gets it.
     */
    bool verifyTransformed = true;

    /** True when any hook set here requires the interpreter's seams. */
    bool needsInterpreter() const
    {
        return static_cast<bool>(machineSetup) || collectProfile ||
               (pauseAtCycle > 0 && static_cast<bool>(snapshotHook));
    }
};

/** One cell of the measurement grid. */
struct RunRequest
{
    std::string source;       ///< MX-Lisp top-level forms
    CompilerOptions opts;
    std::string label;        ///< free-form tag, echoed in the report
    ExecPolicy exec;          ///< budget / deadline / backend tier
    Hooks hooks;              ///< instrumentation and mutation seams
};

/** Everything the engine knows about one executed request. */
struct RunReport
{
    std::string label;       ///< RunRequest::label, echoed back
    RunStatus status;        ///< compile/internal outcome
    RunResult result;        ///< meaningful only when status.ok()
    double wallSeconds = 0;  ///< compile (on miss) + simulation wall time
    bool cacheHit = false;   ///< compiled unit came from the cache

    /** Backend that actually executed the cell (never Auto). */
    Backend backend = Backend::Interpreter;

    /** True when an Auto request wanted the translated tier but ran on
     *  the interpreter; backendNote says why. */
    bool backendFellBack = false;
    std::string backendNote;

    /** Compiled, ran, and halted cleanly. */
    bool ok() const { return status.ok() && result.ok(); }
};

class Engine
{
  public:
    /** Default compiled-unit cache byte budget (trimmed image bytes). */
    static constexpr size_t kDefaultCacheBytes = 256u << 20;

    /**
     * @param threads worker count for runGrid(); 0 means
     *        std::thread::hardware_concurrency(). Workers are started
     *        lazily on the first runGrid() call, so an engine used only
     *        through run() never spawns a thread.
     * @param cacheCapacity maximum number of compiled units kept
     *        (least-recently-used eviction). Cached units hold only the
     *        live prefix of their pristine memory image, so an entry
     *        costs roughly the program's static-data footprint, not the
     *        full simulated address space.
     * @param cacheMaxBytes cap on the *sum of trimmed image bytes* the
     *        cache may hold; eviction is LRU and runs when either bound
     *        is exceeded (the most recent entry always survives, so one
     *        oversized unit still caches). 0 means entry-bounded only.
     */
    explicit Engine(unsigned threads = 0, size_t cacheCapacity = 256,
                    size_t cacheMaxBytes = kDefaultCacheBytes);
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Compile (through the cache) and simulate one request, inline on
     *  the calling thread. Never throws for bad Lisp source; see
     *  RunReport::status. */
    RunReport run(const RunRequest &req);

    /** Per-cell completion callback; see runGrid. */
    using GridProgress =
        std::function<void(size_t index, const RunReport &report)>;

    /**
     * Fan @p reqs out across the worker pool. Reports come back in
     * request order, and each cell's CycleStats is identical to what a
     * serial run() of the same request produces (simulations are
     * per-run state; nothing mutable is shared).
     *
     * A call from inside one of this engine's own workers is detected
     * and returns one InternalError report per request instead of
     * self-deadlocking on the pool.
     *
     * @p progress, when set, is invoked once per cell as it completes,
     * on the worker thread that ran it (completion order, not request
     * order) — the observability hook for long sweeps.
     */
    std::vector<RunReport> runGrid(const std::vector<RunRequest> &reqs,
                                   const GridProgress &progress = {});

    /** Result of a cache-mediated compilation. */
    struct CompileOutcome
    {
        /**
         * The cached unit; null when !status.ok(). Its `memory` member
         * is trimmed to the live image prefix — use Engine::run (which
         * re-expands it) to execute, not runUnit().
         */
        std::shared_ptr<const CompiledUnit> unit;
        RunStatus status;
        bool cacheHit = false;
    };

    /** Compile @p source under @p opts through the cache (no run). */
    CompileOutcome compile(const std::string &source,
                           const CompilerOptions &opts);

    /**
     * Make this engine safe for inline use in a child process created
     * by fork() (the trial sandbox, src/faults/sandbox.h). Call it once
     * in the child, immediately after the fork: it detaches the trace
     * recorder (which lives in, and keeps writing for, the parent) and
     * marks the engine forked so runGrid() refuses instead of blocking
     * on a worker pool whose threads did not survive the fork. run()
     * stays fully usable and keeps the parent's warm compiled-unit
     * cache (copy-on-write). Contract: fork only while no grid is in
     * flight (every cached compile future completed), and leave the
     * child via _exit() so the engine's destructor never runs there.
     */
    void postFork();

    struct CacheStats
    {
        uint64_t hits = 0;    ///< lookups served from the cache
        uint64_t misses = 0;  ///< lookups that triggered a compile
        uint64_t entries = 0; ///< units currently cached
        uint64_t bytes = 0;   ///< sum of cached trimmed image bytes
        uint64_t byteLimit = 0;  ///< configured cap (0 = unbounded)
        uint64_t evictions = 0;  ///< entries evicted over either bound
    };
    CacheStats cacheStats() const;
    void clearCache();

    /** Worker count runGrid() uses. */
    unsigned threadCount() const { return threads_; }

    /**
     * This engine's metrics registry (obs/metrics.h). The engine itself
     * maintains: engine.cache.{hits,misses,evictions} and
     * engine.{compile,translate,verify,run}_micros counters (translate
     * and verify count only first uses of a unit object — cached units
     * and unitTransform outputs alike; verify is the
     * Hooks::verifyTransformed gate), engine.runs,
     * engine.timeouts (deadline expiries), engine.backend.fallbacks,
     * engine.queue_wait_micros and engine.cell_micros histograms, and
     * one engine.worker.<n>.busy_micros counter per started worker
     * (utilization = busy_micros / grid wall time). Callers (bench
     * harnesses, campaigns) hang their own metrics off the same
     * registry; snapshot() is the export point.
     */
    MetricsRegistry &metrics() { return metrics_; }
    const MetricsRegistry &metrics() const { return metrics_; }

    /**
     * Attach (or detach, with nullptr) a Chrome-trace recorder
     * (obs/trace.h). While attached, every executed request emits a
     * "compile" span (cache misses only) and a "run" span on its
     * worker's track — the run span's category names the backend that
     * executed it ("engine/interpreter" or "engine/translated") — plus
     * "translate" and "verify" spans when a unit object is translated
     * or verified for the first time, and a "snapshot" instant at a
     * pauseAtCycle pause. The recorder must outlive all runs made while
     * attached; the pointer itself is read atomically, so attaching
     * around a runGrid() call from the calling thread is safe.
     */
    void setTrace(TraceRecorder *t)
    {
        trace_.store(t, std::memory_order_release);
    }
    TraceRecorder *trace() const
    {
        return trace_.load(std::memory_order_acquire);
    }

    /**
     * Trace track id for the calling thread: 1..N on an engine worker,
     * 0 anywhere else (the inline/run() path). Campaign code uses this
     * to put per-trial instants on the worker that ran the trial.
     */
    static int currentWorkerId();

    /**
     * Canonical cache key for (source, options): every CompilerOptions
     * field is serialized in a fixed order, so two option structs that
     * compare field-wise equal always map to the same key. The backend
     * tier is not part of it: every tier shares one entry, and the
     * translation lives in the per-unit memo beside the cache.
     */
    static std::string cacheKey(const std::string &source,
                                const CompilerOptions &opts);

    /** The process-wide engine behind compileAndRun(). */
    static Engine &defaultEngine();

  private:
    struct Compiled
    {
        std::shared_ptr<const CompiledUnit> unit; ///< trimmed image
        RunStatus status;
    };

    struct CacheEntry
    {
        std::string key;
        std::shared_future<Compiled> future;
        size_t bytes = 0; ///< trimmed image bytes; 0 until compiled
    };

    Compiled getOrCompile(const std::string &source,
                          const CompilerOptions &opts, bool *cacheHit);
    RunReport execute(const RunRequest &req);

    using UnitPtr = std::shared_ptr<const CompiledUnit>;

    /** @p unit's translation, made on the unit object's first use;
     *  @p label names the trace span. */
    TranslateResult translation(const UnitPtr &unit,
                                const std::string &label);

    /** @p unit's verifier verdict (empty = accepted), made on the unit
     *  object's first gated use. */
    std::string verdict(const UnitPtr &unit, const std::string &label);

    void evictOverLimits(); ///< caller holds cacheMu_
    void ensureWorkers();
    void workerLoop(unsigned id);

    const unsigned threads_;
    const size_t cacheCapacity_;
    const size_t cacheMaxBytes_;

    // Observability. The hot-path counters are resolved once here so
    // execute() never takes the registry lock; metrics_ must be
    // declared before the references it seeds.
    MetricsRegistry metrics_;
    Counter &mCacheHits_ = metrics_.counter("engine.cache.hits");
    Counter &mCacheMisses_ = metrics_.counter("engine.cache.misses");
    Counter &mCacheEvictions_ = metrics_.counter("engine.cache.evictions");
    Counter &mCompileMicros_ = metrics_.counter("engine.compile_micros");
    Counter &mTranslateMicros_ =
        metrics_.counter("engine.translate_micros");
    Counter &mVerifyMicros_ = metrics_.counter("engine.verify_micros");
    Counter &mRunMicros_ = metrics_.counter("engine.run_micros");
    Counter &mRuns_ = metrics_.counter("engine.runs");
    Counter &mTimeouts_ = metrics_.counter("engine.timeouts");
    Counter &mFallbacks_ = metrics_.counter("engine.backend.fallbacks");
    Histogram &mQueueWait_ =
        metrics_.histogram("engine.queue_wait_micros");
    Histogram &mCellMicros_ = metrics_.histogram("engine.cell_micros");
    std::atomic<TraceRecorder *> trace_{nullptr};

    // Compiled-unit cache: LRU list front = most recent.
    mutable std::mutex cacheMu_;
    std::list<CacheEntry> lru_;
    std::unordered_map<std::string, std::list<CacheEntry>::iterator> cache_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t cacheBytes_ = 0;
    uint64_t evictions_ = 0;

    // Per-unit-object work, shared by the cached units and the units
    // unitTransform returns: one translation path for every tier.
    OwnerMemo<const CompiledUnit, TranslateResult> translations_;
    OwnerMemo<const CompiledUnit, std::string> verdicts_;

    // Worker pool.
    std::mutex poolMu_;
    std::condition_variable poolCv_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
    std::atomic<bool> forked_{false}; ///< postFork() was called (child)
};

} // namespace mxl

#endif // MXLISP_CORE_ENGINE_H_
