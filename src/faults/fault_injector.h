/**
 * @file
 * Seeded, deterministic fault injection on compiled units.
 *
 * The paper sells run-time tag checking as a safety net but only ever
 * measures its cost; this subsystem measures the detection side (the
 * axis Serebryany et al. make the headline metric for memory tagging).
 * A FaultSpec names one perturbation of a program run:
 *
 *  - TagCorrupt: flip the tag field of a pointer-tagged word in the
 *    pristine image's static data (a corrupted cell in a reachable
 *    list structure) — the fault class tag checking is built to catch;
 *  - BitFlip: flip one bit of a live word in the pristine image — the
 *    classic memory-corruption model, which tag checking catches only
 *    when the flip lands in (or perturbs) a tag;
 *  - CallArgType: substitute an ill-typed value into an argument
 *    register at the N-th executed call — the "wrong type reaches a
 *    procedure" model of §3's checking discussion. The run pauses just
 *    before that call (scanCallCycles finds it) to rewrite the register.
 *  - HeapTagCorrupt / HeapBitFlip: the same two memory-corruption
 *    models applied to the *live run-time heap* instead of the static
 *    image. The run is paused mid-execution (Hooks::pauseAtCycle),
 *    the live memory is scanned for tagged words between the
 *    from-space base and the heap allocation pointer, one is perturbed
 *    in place, and the run continues — corruption of data the program
 *    built itself, the case static-image injection cannot model.
 *  - StackTagCorrupt / StackBitFlip: the paused-run models applied to
 *    the *live control/value stack*, [sp, stackTop). Stack slots hold
 *    saved argument registers, spilled temporaries, and return
 *    addresses (naturally fixnums), so this class measures how checking
 *    fares when corruption hits control state rather than data
 *    structure — the region where tag checking has the least leverage.
 *
 * Everything is derived from FaultSpec::seed with a splitmix64 stream:
 * the same (spec, compiled unit) pair always yields the same injected
 * fault, so campaigns are replayable cell by cell. Faults are applied
 * through RunRequest::hooks' imageMutator and pause seams, i.e. to the
 * per-run expanded image and the live run — never to the engine's
 * cached compiled unit.
 */

#ifndef MXLISP_FAULTS_FAULT_INJECTOR_H_
#define MXLISP_FAULTS_FAULT_INJECTOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/engine.h"

namespace mxl {

/** The injectable fault classes. */
enum class FaultClass
{
    TagCorrupt,     ///< corrupt the tag field of a static pointer word
    BitFlip,        ///< flip one data bit in the pristine image
    CallArgType,    ///< ill-typed argument substitution at a call boundary
    HeapTagCorrupt,  ///< corrupt the tag of a live heap word mid-run
    HeapBitFlip,     ///< flip one bit of a live heap word mid-run
    StackTagCorrupt, ///< corrupt the tag of a live stack slot mid-run
    StackBitFlip     ///< flip one bit of a live stack slot mid-run
};

const char *faultClassName(FaultClass cls);

/** True for the classes injected into a paused run's live heap. */
bool faultClassIsHeap(FaultClass cls);

/** True for the classes injected into a paused run's live stack. */
bool faultClassIsStack(FaultClass cls);

/** True for every class injected at a mid-run pause (call-argument,
 *  heap- and stack-resident faults); these require a nonzero
 *  FaultSpec::pauseCycle. */
bool faultClassNeedsPause(FaultClass cls);

/**
 * CallArgType corrupts the N-th executed call, with N drawn from
 * [0, kCallWindow). A small window keeps the fault early enough that
 * most trials actually reach it (trials where the program performs
 * fewer calls are classified Masked — the fault never fired, which is
 * itself a data point).
 */
inline constexpr uint64_t kCallWindow = 16;

/**
 * Cycles at which the first kCallWindow calls (Jal/Jalr) issue in a
 * fault-free interpreter run of @p unit as the Engine runs it (expanded
 * image, trap handlers on); fewer if it stops or passes @p maxCycles.
 */
std::vector<uint64_t> scanCallCycles(const CompiledUnit &unit,
                                     uint64_t maxCycles);

/** FaultSpec::pauseCycle of a CallArgType fault: one cycle before the
 *  seed's N-th call in @p callCycles, or 0 (unarmed) if there is none. */
uint64_t callArgPauseCycle(uint64_t seed,
                           std::span<const uint64_t> callCycles);

/** One fully specified fault: class plus the seed that selects the
 *  injection site. */
struct FaultSpec
{
    FaultClass cls = FaultClass::BitFlip;
    uint64_t seed = 0;

    /**
     * Cycle at which pause-based faults stop the run and inject
     * (Hooks::pauseAtCycle). Required nonzero for the live-run
     * classes — campaigns take it from a call scan or scale it to the
     * golden run's cycle count so the pause lands mid-execution;
     * ignored by the static classes.
     */
    uint64_t pauseCycle = 0;

    std::string describe() const;
};

/**
 * Deterministic splitmix64 generator — the only randomness source in
 * the fault subsystem, so a campaign is a pure function of its seed.
 */
class FaultRng
{
  public:
    explicit FaultRng(uint64_t seed) : x_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (x_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform value in [0, n); n must be nonzero. */
    uint64_t below(uint64_t n) { return next() % n; }

    /** Derive an independent stream for subkey @p k (campaign cells). */
    static uint64_t
    mix(uint64_t seed, uint64_t k)
    {
        FaultRng r(seed ^ (k * 0xD6E8FEB86659FD93ull));
        return r.next();
    }

  private:
    uint64_t x_;
};

/**
 * Attach @p spec to @p req: installs the imageMutator (TagCorrupt,
 * BitFlip) or pauseAtCycle + pauseHook (call-argument, heap and stack
 * classes) that applies the fault to each run of the request. The
 * request's other fields are untouched;
 * in particular the compiled-unit cache key is unchanged, so all trials
 * of one grid cell share a single compilation.
 */
void armFault(RunRequest &req, const FaultSpec &spec);

} // namespace mxl

#endif // MXLISP_FAULTS_FAULT_INJECTOR_H_
