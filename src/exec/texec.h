/**
 * @file
 * The translated execution backend: a CompiledUnit is translated once
 * into directly-threaded code (one pre-decoded op per instruction, each
 * holding the host address of its handler) and then executed by a
 * computed-goto dispatch loop, with each control transfer *fused* with
 * its two delay slots into a single dispatch.
 *
 * The contract is byte-identical equivalence with machine/machine.cc:
 * CycleStats, program output, stop reason, error code, exit value,
 * fault index, the GC cells and the per-PC profile all match the
 * interpreter exactly, for every program the translator accepts, and
 * so does the pause: it stops on the interpreter's cycle and hands the
 * hook the same memory and registers (tests/test_backend.cc proves
 * this differentially over the whole benchmark suite, at every
 * cycle-limit stop and every pause point of short programs).
 * Accounting is kept per basic block: entering a block adds its static
 * cycle cost and bumps one counter, and the run-end fold turns the
 * block counts back into the interpreter's per-instruction CycleStats.
 * Blocks that could cross the cycle budget, and entries into the middle
 * of a block, run on per-instruction counted handlers instead.
 *
 * What the backend does NOT support — and why refusal is safe:
 * translateUnit() declines units it cannot prove equivalent (memory
 * tagging, malformed delay-slot structure per analysis::buildCfg,
 * tag-hardware opcodes without the matching HardwareConfig bit,
 * trap-capable ops scheduled into delay slots). The Engine treats a
 * refusal as its one tier-fallback condition: with
 * ExecPolicy::backend == Auto the run transparently drops to the
 * interpreter (core/engine.h).
 */

#ifndef MXLISP_EXEC_TEXEC_H_
#define MXLISP_EXEC_TEXEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "compiler/unit.h"
#include "core/run.h"

namespace mxl {

/**
 * Pre-decoded instruction: operands flattened, handler resolved.
 * Exactly 32 bytes and 32-byte aligned, so two share a cache line and
 * none straddles one — the executor's working set is this array.
 */
struct alignas(32) TranslatedOp
{
    /** Host dispatch address: the op's semantics-only block handler,
     *  or on a block leader the block-entry handler. */
    const void *handler = nullptr;
    uint32_t blk = 0;              ///< index of the block holding the op
    uint32_t readMask = 0;         ///< bit r set when the op reads reg r
    uint32_t uimm = 0;             ///< uint32(imm); Beqi/Bnei compare i32
    int32_t target = -1;           ///< static control-transfer target
    uint8_t kind = 0;              ///< TKind (texec.cc's dispatch token)
    uint8_t wslot = 32;            ///< write slot; 32 discards (rd == 0)
    uint8_t rs = 0;
    uint8_t rt = 0;
    uint8_t pendReg = 0;           ///< load interlock register (inst.rd)
    uint8_t cycles = 1;            ///< opCycles(op)
    uint8_t annul = 0;             ///< bit0 annul-on-taken, bit1 on-fall
    uint8_t timm = 0;              ///< tag immediate (Ldt/Stt/Btag/Bntag)
};
static_assert(sizeof(TranslatedOp) == 32);
static_assert(alignof(TranslatedOp) == 32);

/**
 * A basic block: the ops from a leader up to the next leader. Leaders
 * are the entry, the trap handlers, every static branch target, the
 * return point after every trap-capable op, and the op after every
 * control group, so a block holds at most one control group, as its
 * last three ops, and every op in it runs once per entry unless the
 * group squashes its slots or the run stops inside the block.
 */
struct TranslatedBlock
{
    const void *body = nullptr; ///< block handler of the leader op
    /** Cycles of one run through the block with the group's slots
     *  executed: op cycles plus the load-interlock stalls between its
     *  ops, which straight-line code fixes; the leader's own stall
     *  depends on the predecessor and is charged at entry. */
    uint32_t cost = 0;
    /** Cycle change when the group squashes its slots: two squashed
     *  cycles replace two slots of 1-12 cycles each and a stall, so it
     *  lies in [-23, 0]. */
    int8_t squashDelta = 0;
    uint8_t exitPend = 32;      ///< interlock register after the last
                                ///< op (slots executed); 32 = none
};
static_assert(sizeof(TranslatedBlock) == 16);


/**
 * A unit translated for the threaded executor. Immutable after
 * translation and safe to share across threads (the engine keeps one
 * per CompiledUnit object it runs). Holds no pointer back
 * into the CompiledUnit; runTranslated() takes both.
 */
struct TranslatedUnit
{
    /** One op per instruction plus a pc-out-of-range sentinel. */
    std::vector<TranslatedOp> ops;
    size_t nInsts = 0; ///< ops.size() - 1
    /** The blocks in index order; the last is the sentinel's. */
    std::vector<TranslatedBlock> blocks;

    int entry = -1;

    // Tag-scheme specialization: the virtual TagScheme calls of the
    // interpreter become constant masks and shifts.
    uint32_t tagShift = 0;  ///< primaryTag(w) = (w >> tagShift) & tagMask
    uint32_t tagMask = 0;
    uint32_t detagMask = 0xffffffffu; ///< detagAddr(w) = w & detagMask
    uint32_t memMask = 0xffffffffu;   ///< effective-address mask
                                      ///< (detagMask when
                                      ///< hw.ignoreTagOnMemory, else ~0)
    unsigned dataBits = 32; ///< fixnum field width (high-tag schemes)
    bool lowTags = false;   ///< fixnum encoding family

    // Trap handler indices, pre-gated exactly like runUnitOn(): set
    // only when the hardware feature is on and the unit compiled a
    // handler. RunControls::installTrapHandlers gates them again at run
    // time.
    int arithTrap = -1;
    int tagTrap = -1;

    uint32_t gcCountAddr = 0;
    uint32_t heapUsedAddr = 0;
};

/** Outcome of a translation attempt. */
struct TranslateResult
{
    std::shared_ptr<const TranslatedUnit> unit; ///< null on refusal
    std::string note; ///< refusal reason when unit is null
};

/**
 * Translate @p unit for the threaded backend. Never throws for
 * refusable input: a unit the translator cannot prove equivalent comes
 * back with a null `unit` and a diagnostic `note` (the engine's Auto
 * tier falls back to the interpreter on refusal).
 */
TranslateResult translateUnit(const CompiledUnit &unit);

/**
 * Execute @p tu (translated from @p unit) on @p image. Semantics and
 * RunResult contents are byte-identical to
 * runUnitOn(unit, image, controls), the pause included.
 */
RunResult runTranslated(const CompiledUnit &unit, const TranslatedUnit &tu,
                        Memory image, const RunControls &controls);

} // namespace mxl

#endif // MXLISP_EXEC_TEXEC_H_
