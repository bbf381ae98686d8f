/**
 * @file
 * Shared internals of the translated backend: the dispatch-token enum
 * the translator assigns and the executor's handler table resolves, and
 * the static interlock rule both use to cost blocks. Private to
 * src/exec/.
 */

#ifndef MXLISP_EXEC_TEXEC_INTERNAL_H_
#define MXLISP_EXEC_TEXEC_INTERNAL_H_

#include <cstdint>

#include "exec/texec.h"

namespace mxl {

/**
 * Specialized dispatch kinds. One per straight-line opcode semantics
 * (with the tag-scheme placement baked in where it matters), one per
 * control transfer, one per Sys code, plus the pc-out-of-range
 * sentinel appended after the last instruction. Order must match the
 * executor's label table (texec.cc).
 */
enum TKind : uint16_t
{
    // ALU register-register
    TAdd, TSub, TAnd, TOr, TXor, TSll, TSrl, TSra, TMul, TDiv, TRem,
    // ALU register-immediate
    TAddi, TAndi, TOri, TXori, TSlli, TSrli, TSrai,
    // Moves / constants
    TLi, TMov, TNoop,
    // Memory
    TLd, TSt, TLdt, TStt,
    // Trapping tagged arithmetic, by tag placement
    TAddtHigh, TSubtHigh, TAddtLow, TSubtLow,
    // Sys, by code
    TSysHalt, TSysPutChar, TSysPutFixRaw, TSysPutFix, TSysError,
    // Control transfers (executed fused with their two delay slots)
    TBeq, TBne, TBlt, TBge, TBle, TBgt, TBeqi, TBnei, TBtag, TBntag,
    TJ, TJal, TJr, TJalr,
    // Sentinel at instruction index n
    TEnd,
    // Block entry: the handler of every leader (texec.cc's L_Enter).
    TEnter,
    // Fused straight-line pairs: one block-mode dispatch executes two
    // adjacent instructions of one block. The translator installs these
    // as the first op's block handler only — every index keeps its
    // standalone TKind, which the counted path and the delay-slot
    // switch dispatch on. Chosen by dynamic pair frequency over the
    // benchmark suite; these 14 cover >90% of the fusable issue stream.
    TF_Addi_St, TF_St_Ld, TF_St_St, TF_And_Ld, TF_Ld_Srli, TF_Ld_Addi,
    TF_Ld_And, TF_Ld_Ld, TF_Ld_Li, TF_Mov_Ld, TF_Slli_Srai, TF_Addi_Ld,
    TF_St_Li, TF_Ld_Slli,
    kNumTKinds,
};

/**
 * Block-mode host dispatch addresses indexed by TKind, or null when the
 * build has no computed-goto support (translation then refuses every
 * unit and the engine stays on the interpreter tier).
 */
const void *const *texecLabelTable();

/** True for the control transfers (TBeq..TJalr). */
constexpr bool
isXferKind(unsigned kind)
{
    return kind >= TBeq && kind <= TJalr;
}

/**
 * The load-interlock stall of op @p i when it follows op i - 1 in
 * straight-line code: 1 when that op is a load whose register op i
 * reads. Only meaningful for an op that is not its block's leader.
 */
inline uint32_t
staticStall(const TranslatedOp *ops, size_t i)
{
    const TranslatedOp &prev = ops[i - 1];
    return (prev.kind == TLd || prev.kind == TLdt) &&
           ((ops[i].readMask >> prev.pendReg) & 1u);
}

} // namespace mxl

#endif // MXLISP_EXEC_TEXEC_INTERNAL_H_
