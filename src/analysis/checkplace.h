/**
 * @file
 * Check placement: the tag-flow solver (analysis/tagflow.h) used to
 * *move* checks, not just delete them.
 *
 * Three transformations, applied in order by placeChecks():
 *
 *   1. Loop-invariant hoisting. A tag-check branch inside a natural
 *      loop (analysis/dom.h) whose checked value round-trips through a
 *      stack slot that no instruction in the loop stores to is checked
 *      once in a new *preheader* — a check sequence inserted
 *      immediately before the loop header, on the path every loop
 *      entry takes (loop entries are retargeted to it; back edges keep
 *      targeting the header). The preheader's branch refinement then
 *      flows around the loop through the slot fact, which survives
 *      calls and joins, making every in-loop check of that slot
 *      provably redundant.
 *   2. Redundant-check elimination (analysis/checkelim.h): deletes the
 *      now-redundant in-loop checks along with everything it already
 *      proved.
 *   3. Global cleanup: extract feeders whose register is dead under a
 *      whole-program liveness analysis (checkelim's same-block scan
 *      misses cross-block dead extracts), and *check sinking* — error
 *      blocks whose only predecessors were deleted never-taken check
 *      branches are unreachable from every root and are removed
 *      entirely, so the checks that lived on those cold paths vanish
 *      from the unit.
 *
 * Placement legality (docs/ANALYSIS.md states the full argument):
 * hoisting may execute a check *earlier* than the original program
 * would — "look before you leap". On every type-correct execution the
 * hoisted check passes exactly like its in-loop original and the
 * executed useful-instruction sequence is unchanged; on an erroneous
 * execution the unit reaches the same error handler, possibly before
 * entering the loop. Checks are only hoisted when their error target
 * is the terminal error stub (never a resuming slow path), the slot is
 * provably loop-invariant, sp tracking is intact, and the scratch
 * registers used are dead at both the header and the error target.
 *
 * The optimizer is *untrusted*: every transformed unit is re-proven by
 * the independent load-time verifier (analysis/verify.h) before the
 * engine runs it.
 */

#ifndef MXLISP_ANALYSIS_CHECKPLACE_H_
#define MXLISP_ANALYSIS_CHECKPLACE_H_

#include <memory>
#include <string>

#include "analysis/checkelim.h"
#include "compiler/unit.h"

namespace mxl {

struct PlaceStats
{
    int loopsFound = 0;        ///< natural loops in the unit
    int hoistCandidates = 0;   ///< in-loop invariant checks seen
    int hoisted = 0;           ///< preheader check sequences inserted
    int hoistInstructions = 0; ///< instructions those sequences added
    int feedersRemoved = 0;    ///< cross-block dead extracts deleted
    int sunkInstructions = 0;  ///< orphaned error-path instructions
    ElimStats elim;            ///< the elimination pass that follows
    bool skipped = false;      ///< malformed CFG: unit left untouched
    std::string diagnostic;    ///< why the unit was skipped

    /** Net instruction-count change (inserted - removed). */
    int
    netInstructions() const
    {
        return hoistInstructions - elim.instructionsRemoved -
               feedersRemoved - sunkInstructions;
    }
};

/**
 * Optimize check placement in @p unit in place: hoist loop-invariant
 * checks, eliminate proven-redundant ones, remove dead feeders and
 * orphaned error paths. Renumbers branch targets, symbols, entry/trap
 * points and image function cells.
 */
PlaceStats placeChecks(CompiledUnit &unit);

/**
 * Hooks::unitTransform adapter (core/engine.h): clone @p unit, run
 * placeChecks, return the optimized copy. @p stats (optional) receives
 * the counts. Memoized per input unit object exactly like
 * checkElimTransform (same output and stats for the same object,
 * computed once, released after the input dies); the input must be
 * immutable.
 */
std::shared_ptr<const CompiledUnit>
checkPlaceTransform(const std::shared_ptr<const CompiledUnit> &unit,
                    PlaceStats *stats = nullptr);

struct FixStats
{
    int unproven = 0;   ///< list accesses with no dominating check
    int inserted = 0;   ///< guard sequences inserted (mxlint --fix)
    int unfixable = 0;  ///< sites no sound guard could be built for
    int instructionsInserted = 0;
    bool skipped = false; ///< malformed CFG: unit left untouched
};

/**
 * Insert provably-missing tag checks (mxlint --fix): every list-class
 * memory access whose base is not proven to carry a single pointer tag
 * on all paths gets a guard sequence inserted immediately before it,
 * branching to the terminal error stub. Only sound insertions are
 * made: the tagged source register must be known (detag provenance)
 * and a dead scratch register must exist at the site; anything else is
 * counted unfixable and left for the verifier to reject.
 */
FixStats insertMissingChecks(CompiledUnit &unit);

} // namespace mxl

#endif // MXLISP_ANALYSIS_CHECKPLACE_H_
