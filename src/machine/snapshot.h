/**
 * @file
 * Checkpointed machine state.
 *
 * A MachineSnapshot is the complete, self-contained execution state of
 * a paused Machine: architectural state (registers, memory, trap
 * handlers), pipeline state (pending load delay, in-flight branch and
 * its remaining delay slots), and the accounting that the paper's
 * measurements are made of (CycleStats, output, stop/error state).
 *
 * The defining invariant, enforced by tests/test_snapshots.cc:
 *
 *     run(entry, N); snap = snapshot(); restore(snap); resume(M);
 *
 * is cycle-identical to run(entry, M) — snapshotting is invisible to
 * the simulation, for any pause point N, including pauses between a
 * branch and its delay slots.
 *
 * Snapshots serialize to a deterministic byte stream (fixed field
 * order, little-endian), so equal states produce equal bytes — the
 * foundation for resumable fault campaigns (src/faults/): pause a run
 * at cycle N, perturb the snapshot's live heap, restore, resume.
 */

#ifndef MXLISP_MACHINE_SNAPSHOT_H_
#define MXLISP_MACHINE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "machine/machine.h"
#include "support/zeroed.h"

namespace mxl {

struct MachineSnapshot
{
    // Architectural state.
    uint32_t regs[32] = {};
    int pc = 0;
    int trapHandler[3] = {-1, -1, -1};
    /** Full image, word-indexed; lazily zeroed storage holding only the
     *  machine's nonzero pages (support/zeroed.h). */
    ZeroedArray<uint32_t> memory;

    /** memTagging per-word locks in the machine's encoding (key + 1,
     *  0 = unpainted); empty when the feature is off. The serialized
     *  form stores the key itself and 0xff for unpainted. */
    ZeroedArray<uint8_t> memTagLocks;

    // Pipeline state (machine.h's in-flight branch fields).
    int pendingLoadReg = -1;
    int slotsRemaining = 0;
    bool branchTaken = false;
    bool annulSlots = false;
    int branchTarget = -1;
    int branchIdx = -1;

    // Accounting and run outcome.
    CycleStats stats;
    std::string output;
    uint32_t exitValue = 0;
    int64_t errorCode = 0;
    StopReason stop = StopReason::Running;
    int faultIndex = -1;

    bool operator==(const MachineSnapshot &) const = default;

    /** Deterministic byte encoding: equal snapshots, equal bytes. */
    std::string serialize() const;

    /** Inverse of serialize(); false on malformed/truncated input. */
    static bool deserialize(const std::string &bytes, MachineSnapshot *out);
};

} // namespace mxl

#endif // MXLISP_MACHINE_SNAPSHOT_H_
