/**
 * @file
 * Cycle accounting: the measurement half of the paper.
 *
 * Every executed cycle is attributed to a Purpose (useful work or one of
 * the four tag operations), a CheckCat (Table 1's arith/vector/list
 * split), and whether the instruction exists only because run-time
 * checking is on (Figure 1's added-by-checking component). Dynamic
 * instruction-class counts (Figure 2: and/move/noop/squash) are kept
 * alongside.
 */

#ifndef MXLISP_MACHINE_CYCLE_STATS_H_
#define MXLISP_MACHINE_CYCLE_STATS_H_

#include <cstdint>
#include <string>

#include "isa/annotation.h"
#include "isa/opcode.h"

namespace mxl {

struct CycleStats
{
    /** Total executed cycles (including stalls and squashed slots). */
    uint64_t total = 0;

    /** Dynamic instruction count (excluding stalls/squashes). */
    uint64_t instructions = 0;

    /** cycles[purpose][fromChecking] */
    uint64_t byPurpose[numPurposes][2] = {};

    /** cycles[cat][fromChecking] */
    uint64_t byCat[numCheckCats][2] = {};

    /** Dynamic counts of interesting instruction kinds (Figure 2). */
    uint64_t andOps = 0;    ///< And/Andi instructions (tag masks live here)
    uint64_t moveOps = 0;   ///< Mov instructions
    uint64_t noops = 0;     ///< executed Noop instructions
    uint64_t squashed = 0;  ///< annulled delay-slot cycles
    uint64_t loadStalls = 0; ///< load-delay interlock cycles
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;

    bool operator==(const CycleStats &) const = default;

    /** Charge @p cycles for an executed instruction. */
    void
    charge(const Annotation &ann, int cycles)
    {
        total += static_cast<uint64_t>(cycles);
        int f = ann.fromChecking ? 1 : 0;
        byPurpose[static_cast<int>(ann.purpose)][f] +=
            static_cast<uint64_t>(cycles);
        byCat[static_cast<int>(ann.cat)][f] +=
            static_cast<uint64_t>(cycles);
    }

    /** Cycles spent on @p p across both checking components. */
    uint64_t
    purposeTotal(Purpose p) const
    {
        int i = static_cast<int>(p);
        return byPurpose[i][0] + byPurpose[i][1];
    }

    /** Cycles in category @p c that were added by run-time checking. */
    uint64_t
    catChecking(CheckCat c) const
    {
        return byCat[static_cast<int>(c)][1];
    }

    /** Human-readable summary. */
    std::string summary() const;
};

} // namespace mxl

#endif // MXLISP_MACHINE_CYCLE_STATS_H_
