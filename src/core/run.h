/**
 * @file
 * Running compiled units on the machine and collecting measurements.
 *
 * These free functions are the legacy single-shot interface; new code
 * should prefer mxl::Engine (core/engine.h), which adds a compiled-unit
 * cache, parallel grid execution, and non-throwing error reporting.
 * compileAndRun() is kept as a thin wrapper over the process-wide
 * default engine so existing callers keep working (and now share its
 * cache).
 *
 * Error contract: the engine reports every failure — compile-time and
 * run-time — through RunReport's status/result fields and never throws
 * for bad Lisp input. The legacy wrappers translate back to the
 * historical split: compileAndRun() throws MxlError on compile errors
 * (fatal: bad source/config) and internal errors (panic), while
 * run-time errors (Lisp `error`, cycle-limit) are encoded in the
 * returned RunResult's `stop`/`errorCode` fields.
 */

#ifndef MXLISP_CORE_RUN_H_
#define MXLISP_CORE_RUN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "compiler/unit.h"
#include "machine/machine.h"
#include "obs/profiler.h"

namespace mxl {

/** Outcome of one simulated execution. */
struct RunResult
{
    CycleStats stats;
    std::string output;
    StopReason stop = StopReason::Running;
    int64_t errorCode = 0;
    uint32_t exitValue = 0;
    uint64_t gcCount = 0;     ///< collections performed
    uint64_t heapUsed = 0;    ///< bytes live after the last collection
    bool timedOut = false;    ///< RunControls::deadlineSeconds expired
    int faultIndex = -1;      ///< Machine::faultIndex() (traps/wild access)
    bool paused = false;      ///< RunControls::pauseHook was called

    /**
     * Per-PC execution/cycle histogram, present only when the run was
     * made with RunControls::collectProfile. Indexed by instruction
     * index of the unit's Program; symbolize() (obs/profiler.h) folds
     * it into per-function attribution. Shared, not copied: RunResult
     * stays cheap to move through the engine's report plumbing.
     */
    std::shared_ptr<const PcProfile> profile;

    bool ok() const { return stop == StopReason::Halted; }
};

/**
 * The pause seam: called on a run paused at RunControls::pauseAtCycle
 * with the live run's whole memory image (word-indexed) and its
 * registers, both valid only during the call. Writes to either are
 * what the rest of the run sees; r0 still reads 0 afterwards.
 */
using PauseHook = std::function<void(std::span<uint32_t> memory,
                                     std::span<uint32_t, 32> regs,
                                     const CompiledUnit &)>;

/**
 * Cycle granularity of the wall-clock deadline check on both backends:
 * small enough that sub-second deadlines are honored promptly, large
 * enough that the chunking is invisible in the simulation rate.
 */
inline constexpr uint64_t kDeadlineChunkCycles = 1'000'000;

/**
 * Execution knobs of both backends, each honored by both with the same
 * semantics. The defaults reproduce runUnitOn(unit, image, maxCycles).
 */
struct RunControls
{
    uint64_t maxCycles = kDefaultMaxCycles;

    /**
     * Wall-clock budget in seconds; 0 means unlimited. Enforced by
     * running in kDeadlineChunkCycles chunks (Machine::resume), so a
     * run that finishes within the deadline has CycleStats identical to
     * an unchunked run. On expiry the result carries
     * `stop == CycleLimit` and `timedOut == true`; the engine surfaces
     * this as RunStatus::Code::Timeout.
     */
    double deadlineSeconds = 0;

    /**
     * Install the unit's compiled software fallback handlers
     * (rt_arithtrap / rt_tagtrap) for the hardware trap kinds the
     * configuration enables, so e.g. genericArith degrades to the
     * out-of-line software path (§6.2.2). When false, a trap stops the
     * run with the documented unhandled-trap error encoding
     * (machine/machine.h).
     */
    bool installTrapHandlers = true;

    /**
     * Pause the run once its cycle count first exceeds this value
     * (0 = never), call @p pauseHook on the paused run's memory and
     * registers, and continue the same run to maxCycles. This is the
     * seam the live-run fault classes ride (src/faults/): the hook sees
     * the *live* state at cycle N, the run-time heap, stack and
     * registers included, not the pristine image. A run that stops
     * before the pause point never calls the hook. Without a hook, or
     * at or past maxCycles, the pause is skipped entirely; with a hook
     * that writes nothing, a completed run is cycle-identical to an
     * unpaused run of the same request (tests/test_faults.cc). Both
     * backends stop at the same cycle and hand the hook the same state
     * (tests/test_backend.cc).
     */
    uint64_t pauseAtCycle = 0;

    /** Called once at the pauseAtCycle pause. */
    PauseHook pauseHook;

    /**
     * Collect the per-PC instruction profile (RunResult::profile). This
     * is the fast counting path — two uint64 increments per issued
     * instruction on the machine's hot loop, no std::function involved
     * (Machine::traceHook remains the *debugging* hook). The histogram
     * is exact: its cycle total equals CycleStats::total and its issue
     * total equals CycleStats::instructions for every run.
     */
    bool collectProfile = false;
};

/** Install @p unit's software trap handlers on @p m for the trap kinds
 *  its hardware enables (what RunControls::installTrapHandlers does). */
void installTrapHandlers(Machine &m, const CompiledUnit &unit);

/** Execute @p unit from its entry point (copies its pristine image). */
RunResult runUnit(const CompiledUnit &unit,
                  uint64_t maxCycles = kDefaultMaxCycles);

/**
 * Execute @p unit on a caller-supplied initial memory image. This is
 * the primitive the Engine's cache path uses: cached units keep only
 * the live prefix of their image, and the engine re-expands it to
 * @p unit.layout.memBytes before each run.
 */
RunResult runUnitOn(const CompiledUnit &unit, Memory image,
                    uint64_t maxCycles = kDefaultMaxCycles);

/** As above, with the full set of execution knobs. */
RunResult runUnitOn(const CompiledUnit &unit, Memory image,
                    const RunControls &controls);

/**
 * Convenience: compile @p source with @p opts and run it, through
 * Engine::defaultEngine()'s compiled-unit cache.
 * Throws MxlError on compile errors; run errors are reported in the
 * result (see the error contract above).
 */
RunResult compileAndRun(const std::string &source,
                        const CompilerOptions &opts,
                        uint64_t maxCycles = kDefaultMaxCycles);

} // namespace mxl

#endif // MXLISP_CORE_RUN_H_
