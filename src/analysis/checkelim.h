/**
 * @file
 * Proven redundant-check elimination.
 *
 * A tag check the compiler emitted under Checking::Full is *redundant*
 * when the tag-flow solver (analysis/tagflow.h) proves its error edge
 * dead — the checked value carries a compatible tag on every path into
 * the check. Such a check branch is deleted, together with its Noop
 * delay-slot pads and its tag-extract feeder instructions when the
 * extracted temp is provably dead afterwards; all branch targets,
 * symbols and image function cells are then re-linked to the renumbered
 * instruction indices.
 *
 * Soundness: only never-taken branches are deleted, so the executed
 * instruction sequence on every dynamic path is unchanged except for
 * the removed (side-effect-free) check instructions; a jump into a
 * removed region lands on the next kept instruction, which is exactly
 * where execution would have continued. A unit whose CFG is malformed
 * (Cfg::malformed non-empty) is left untouched.
 *
 * Validation is end-to-end: bench_checkelim runs every benchmark
 * program in both forms through mxl::Engine and requires byte-identical
 * output (tests/test_analysis.cc does the same in tier 1).
 */

#ifndef MXLISP_ANALYSIS_CHECKELIM_H_
#define MXLISP_ANALYSIS_CHECKELIM_H_

#include <memory>
#include <string>
#include <vector>

#include "compiler/unit.h"

namespace mxl {

struct ElimStats
{
    int checksConsidered = 0;   ///< fromChecking tag-check branches seen
    int checksEliminated = 0;   ///< branches proven never-taken, deleted
    int instructionsRemoved = 0; ///< total instructions deleted
    int extractsRemoved = 0;    ///< feeder tag-extract instructions
    int padsRemoved = 0;        ///< Noop delay-slot pads
    /** Unit refused and left untouched: malformed CFG, or the trap
     *  table referenced an instruction the rewrite would delete. */
    bool skipped = false;
    std::string diagnostic;     ///< why the unit was refused
};

/** Deep-copy a compiled unit (the scheme is re-made from opts). */
CompiledUnit cloneUnit(const CompiledUnit &unit);

/** @p unit's CFG roots: its entry and whichever trap handlers it has. */
std::vector<int> unitRoots(const CompiledUnit &unit);

/**
 * Delete the instructions @p remove marks from @p unit and renumber:
 * every branch target, symbol, entry and trap point maps to the first
 * kept instruction at or after its old index, and the image's function
 * cells are re-linked. A rewrite that must not move a trap handler
 * refuses before calling this.
 */
void removeInstructions(CompiledUnit &unit, const std::vector<bool> &remove);

/**
 * Delete provably redundant checks from @p unit in place, renumbering
 * branch targets, symbols, entry/trap points and image function cells.
 */
ElimStats eliminateRedundantChecks(CompiledUnit &unit);

/**
 * Hooks::unitTransform adapter (core/engine.h): clone @p unit, eliminate,
 * return the optimized copy. @p stats (optional) receives the counts.
 *
 * Memoized per input unit *object* (support/owner_memo.h): every call
 * with the same object returns the same optimized unit and the same
 * stats, computed once even under concurrent first calls, so the
 * engine verifies and translates that output once too. The memo holds
 * the input only weakly and drops an entry (releasing its output) on
 * the first call after the input dies. The input must be immutable:
 * a unit changed after its first call keeps its old rewrite.
 */
std::shared_ptr<const CompiledUnit>
checkElimTransform(const std::shared_ptr<const CompiledUnit> &unit,
                   ElimStats *stats = nullptr);

} // namespace mxl

#endif // MXLISP_ANALYSIS_CHECKELIM_H_
