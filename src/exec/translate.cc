/**
 * @file
 * CompiledUnit -> TranslatedUnit: the discovery/validation pass of the
 * translated backend. analysis::buildCfg() proves the delay-slot
 * structure well-formed (no control transfers, trap-capable ops, or
 * Sys calls inside slots; no targets into slots; no truncated groups),
 * and the per-instruction pass pre-decodes operands, bakes the tag
 * scheme into constant masks, and resolves every op to its executor
 * handler address.
 *
 * The block pass partitions the unit at its leaders and costs each
 * block statically (docs/BACKEND.md, "Block accounting").
 *
 * Refusal, never failure: any unit the translator cannot prove
 * equivalent to the interpreter comes back with a diagnostic note and
 * no TranslatedUnit. In the engine's Auto tier a refusal just means the
 * interpreter runs — including for units whose execution would panic
 * (e.g. tag-hardware opcodes without the hardware bit), so the
 * interpreter's diagnostics are preserved verbatim.
 */

#include <algorithm>
#include <cstdint>
#include <initializer_list>

#include "analysis/cfg.h"
#include "exec/texec.h"
#include "exec/texec_internal.h"
#include "support/format.h"

namespace mxl {

namespace {

TranslateResult
refuse(std::string note)
{
    return {nullptr, std::move(note)};
}

} // namespace

TranslateResult
translateUnit(const CompiledUnit &unit)
{
    const void *const *labels = texecLabelTable();
    if (!labels)
        return refuse("host compiler has no computed-goto support");
    if (!unit.scheme)
        return refuse("unit has no tag scheme");

    const auto &code = unit.prog.code;
    const int n = static_cast<int>(code.size());
    if (n == 0)
        return refuse("empty program");
    if (unit.entry < 0 || unit.entry >= n)
        return refuse(strcat("entry point ", unit.entry, " out of range"));

    const Cfg cfg = buildCfg(unit.prog);
    if (!cfg.ok()) {
        const auto &m = cfg.malformed.front();
        return refuse(strcat("malformed delay-slot structure at pc ",
                             m.pc, ": ", m.what));
    }

    const TagScheme &scheme = *unit.scheme;
    const HardwareConfig &hw = unit.opts.hw;
    if (hw.memTagging)
        return refuse("memory-tagging hardware is interpreter-only");
    const bool lowTags = scheme.placement() == TagPlacement::Low;

    auto tu = std::make_shared<TranslatedUnit>();
    tu->nInsts = static_cast<size_t>(n);
    tu->entry = unit.entry;
    tu->tagShift = scheme.tagShift();
    tu->tagMask = (1u << scheme.tagBits()) - 1u;
    // All built-in schemes detag with a constant mask; derive it from
    // the virtual call and verify the model holds so a future
    // non-mask scheme refuses instead of mistranslating.
    tu->detagMask = scheme.detagAddr(0xffffffffu);
    for (uint32_t probe : {0u, 0x5a5a5a5au, 0xa5a5a5a5u, 0x00000007u}) {
        if (scheme.detagAddr(probe) != (probe & tu->detagMask) ||
            scheme.primaryTag(probe) !=
                ((probe >> tu->tagShift) & tu->tagMask))
            return refuse(strcat("tag scheme '", scheme.name(),
                                 "' is not mask-representable"));
    }
    // The executor's fixnum handling (Addt/Subt, sys putfix) hardcodes
    // the two built-in encoding families.
    switch (unit.opts.scheme) {
      case SchemeKind::High5:
      case SchemeKind::High6:
      case SchemeKind::Low2:
      case SchemeKind::Low3:
        break;
      default:
        return refuse(strcat("unknown scheme kind for '", scheme.name(),
                             "'"));
    }
    tu->memMask = hw.ignoreTagOnMemory ? tu->detagMask : 0xffffffffu;
    tu->dataBits = scheme.dataBits();
    tu->lowTags = lowTags;

    // Pre-gate trap handlers exactly like runUnitOn(): a handler is
    // live only when the hardware feature exists and the unit compiled
    // one. A live handler must be a real instruction index (the
    // executor dispatches straight to it).
    tu->arithTrap =
        (hw.genericArith && unit.arithTrap >= 0) ? unit.arithTrap : -1;
    tu->tagTrap = (hw.checkedMemory != CheckedMem::None &&
                   unit.tagTrap >= 0)
                      ? unit.tagTrap
                      : -1;
    if (tu->arithTrap >= n)
        return refuse(strcat("arith trap handler ", tu->arithTrap,
                             " out of range"));
    if (tu->tagTrap >= n)
        return refuse(strcat("tag trap handler ", tu->tagTrap,
                             " out of range"));

    tu->gcCountAddr = unit.layout.cellAddr(Cell::GcCount);
    tu->heapUsedAddr = unit.layout.cellAddr(Cell::HeapUsed);

    tu->ops.resize(static_cast<size_t>(n) + 1);
    for (int i = 0; i < n; ++i) {
        const Instruction &inst = code[i];
        TranslatedOp &op = tu->ops[i];

        int kind = -1;
        switch (inst.op) {
          case Opcode::Add:  kind = TAdd;  break;
          case Opcode::Sub:  kind = TSub;  break;
          case Opcode::And:  kind = TAnd;  break;
          case Opcode::Or:   kind = TOr;   break;
          case Opcode::Xor:  kind = TXor;  break;
          case Opcode::Sll:  kind = TSll;  break;
          case Opcode::Srl:  kind = TSrl;  break;
          case Opcode::Sra:  kind = TSra;  break;
          case Opcode::Mul:  kind = TMul;  break;
          case Opcode::Div:  kind = TDiv;  break;
          case Opcode::Rem:  kind = TRem;  break;
          case Opcode::Addi: kind = TAddi; break;
          case Opcode::Andi: kind = TAndi; break;
          case Opcode::Ori:  kind = TOri;  break;
          case Opcode::Xori: kind = TXori; break;
          case Opcode::Slli: kind = TSlli; break;
          case Opcode::Srli: kind = TSrli; break;
          case Opcode::Srai: kind = TSrai; break;
          case Opcode::Li:   kind = TLi;   break;
          case Opcode::Mov:  kind = TMov;  break;
          case Opcode::Noop: kind = TNoop; break;
          case Opcode::Ld:   kind = TLd;   break;
          case Opcode::St:   kind = TSt;   break;
          case Opcode::Ldt:
          case Opcode::Stt:
            if (hw.checkedMemory == CheckedMem::None)
                return refuse(strcat(opcodeName(inst.op), " at pc ", i,
                                     " without checked-memory hardware"));
            kind = inst.op == Opcode::Ldt ? TLdt : TStt;
            break;
          case Opcode::Addt:
          case Opcode::Subt:
            if (!hw.genericArith)
                return refuse(strcat(opcodeName(inst.op), " at pc ", i,
                                     " without generic-arith hardware"));
            if (inst.op == Opcode::Addt)
                kind = lowTags ? TAddtLow : TAddtHigh;
            else
                kind = lowTags ? TSubtLow : TSubtHigh;
            break;
          case Opcode::Beq:  kind = TBeq;  break;
          case Opcode::Bne:  kind = TBne;  break;
          case Opcode::Blt:  kind = TBlt;  break;
          case Opcode::Bge:  kind = TBge;  break;
          case Opcode::Ble:  kind = TBle;  break;
          case Opcode::Bgt:  kind = TBgt;  break;
          case Opcode::Beqi: kind = TBeqi; break;
          case Opcode::Bnei: kind = TBnei; break;
          case Opcode::Btag:
          case Opcode::Bntag:
            if (!hw.branchOnTag)
                return refuse(strcat(opcodeName(inst.op), " at pc ", i,
                                     " without branch-on-tag hardware"));
            kind = inst.op == Opcode::Btag ? TBtag : TBntag;
            break;
          case Opcode::J:    kind = TJ;    break;
          case Opcode::Jal:  kind = TJal;  break;
          case Opcode::Jr:   kind = TJr;   break;
          case Opcode::Jalr: kind = TJalr; break;
          case Opcode::Sys:
            switch (inst.imm) {
              case static_cast<int>(SysCode::Halt):
                kind = TSysHalt;
                break;
              case static_cast<int>(SysCode::PutChar):
                kind = TSysPutChar;
                break;
              case static_cast<int>(SysCode::PutFixRaw):
                kind = TSysPutFixRaw;
                break;
              case static_cast<int>(SysCode::PutFix):
                kind = TSysPutFix;
                break;
              case static_cast<int>(SysCode::Error):
                kind = TSysError;
                break;
              default:
                return refuse(strcat("unknown sys code ", inst.imm,
                                     " at pc ", i));
            }
            break;
        }
        if (kind < 0)
            return refuse(strcat("untranslatable opcode at pc ", i));

        // A statically-targeted transfer must land inside the program
        // (the executor threads straight to ops[target]).
        if (isControl(inst.op) && inst.op != Opcode::Jr &&
            inst.op != Opcode::Jalr &&
            (inst.target < 0 || inst.target >= n))
            return refuse(strcat("branch target ", inst.target,
                                 " out of range at pc ", i));

        // uimm preserves interpreter semantics for every user: ALU
        // immediates and memory offsets truncate to uint32, shift
        // amounts mask to 5 bits, and Beqi/Bnei compare int32 — which
        // is only equivalent when the immediate fits int32.
        if ((inst.op == Opcode::Beqi || inst.op == Opcode::Bnei) &&
            (inst.imm < INT32_MIN || inst.imm > INT32_MAX))
            return refuse(strcat("branch immediate ", inst.imm,
                                 " out of int32 range at pc ", i));
        if (inst.timm > 0xff)
            return refuse(strcat("tag immediate ", inst.timm,
                                 " out of range at pc ", i));

        op.kind = static_cast<uint8_t>(kind);
        op.handler = labels[kind];
        op.uimm = static_cast<uint32_t>(inst.imm);
        op.timm = static_cast<uint8_t>(inst.timm);
        op.target = inst.target;
        op.rs = inst.rs;
        op.rt = inst.rt;
        op.wslot = inst.rd == 0 ? 32 : inst.rd;
        op.pendReg = inst.rd;
        op.cycles = static_cast<uint8_t>(opCycles(inst.op));
        op.annul = (inst.annul == Annul::OnTaken ? 1 : 0) |
                   (inst.annul == Annul::OnNotTaken ? 2 : 0);

        Reg rr[3];
        int nr = 0;
        inst.readRegs(rr, nr);
        for (int k = 0; k < nr; ++k)
            op.readMask |= 1u << rr[k];
    }

    // Leaders: the entry, the trap handlers, every static target, the
    // re-entry point of every trap-capable op (a trap returns to i + 1)
    // and the op after every control group. Index 0 starts the first
    // block; the sentinel at n is a leader of its own.
    std::vector<char> grp(static_cast<size_t>(n), 0);
    std::vector<char> leader(static_cast<size_t>(n) + 1, 0);
    leader[0] = leader[n] = 1;
    leader[unit.entry] = 1;
    if (tu->arithTrap >= 0)
        leader[tu->arithTrap] = 1;
    if (tu->tagTrap >= 0)
        leader[tu->tagTrap] = 1;
    for (int i = 0; i < n; ++i) {
        const Instruction &inst = code[i];
        if (isControl(inst.op)) {
            grp[i] = grp[i + 1] = grp[i + 2] = 1;
            leader[i + 3] = 1;
            if (inst.op != Opcode::Jr && inst.op != Opcode::Jalr)
                leader[inst.target] = 1;
        } else if (inst.op == Opcode::Ldt || inst.op == Opcode::Stt ||
                   inst.op == Opcode::Addt || inst.op == Opcode::Subt) {
            leader[i + 1] = 1;
        }
    }
    // A leader inside a delay slot would split its group.
    for (int i = 0; i < n; ++i)
        if (leader[i] && grp[i] && !isControl(code[i].op))
            return refuse(strcat("block leader inside a delay slot at pc ",
                                 i));

    // Fusion pass: adjacent straight-line ops of one block whose
    // (kind, kind) pair has a fused handler dispatch as one in block
    // mode. Only the first op's handler changes — its TKind and the
    // second op stay untouched, so the counted path still runs the
    // standalone semantics. Pairs never span a control group or a
    // leader.
    auto fusedKind = [](uint8_t a, uint8_t b) -> int {
        switch (a) {
          case TAddi:
            return b == TSt ? TF_Addi_St
                   : b == TLd ? TF_Addi_Ld : -1;
          case TSt:
            return b == TLd   ? TF_St_Ld
                   : b == TSt ? TF_St_St
                   : b == TLi ? TF_St_Li : -1;
          case TAnd:
            return b == TLd ? TF_And_Ld : -1;
          case TLd:
            switch (b) {
              case TSrli: return TF_Ld_Srli;
              case TAddi: return TF_Ld_Addi;
              case TAnd:  return TF_Ld_And;
              case TLd:   return TF_Ld_Ld;
              case TLi:   return TF_Ld_Li;
              case TSlli: return TF_Ld_Slli;
              default:    return -1;
            }
          case TMov:
            return b == TLd ? TF_Mov_Ld : -1;
          case TSlli:
            return b == TSrai ? TF_Slli_Srai : -1;
          default:
            return -1;
        }
    };
    for (int i = 0; i + 1 < n;) {
        const int fk = grp[i] || grp[i + 1] || leader[i + 1]
                           ? -1
                           : fusedKind(tu->ops[i].kind, tu->ops[i + 1].kind);
        if (fk >= 0)
            tu->ops[i].handler = labels[fk];
        i += fk >= 0 ? 2 : 1;
    }

    // Sentinel: falling off the end dispatches to the pc-out-of-range
    // handler instead of reading past the array.
    TranslatedOp &end = tu->ops[n];
    end.kind = TEnd;
    end.handler = labels[TEnd];

    // Block pass: cost each block and move its leader's handler into
    // the block, leaving the block-entry handler on the leader.
    tu->blocks.reserve(
        static_cast<size_t>(std::count(leader.begin(), leader.end(), 1)));
    for (int s = 0; s <= n;) {
        int e = s + 1;
        while (e <= n && !leader[e])
            ++e;
        TranslatedBlock b;
        b.body = tu->ops[s].handler;
        for (int i = s; i < e && i < n; ++i) {
            tu->ops[i].blk = static_cast<uint32_t>(tu->blocks.size());
            b.cost += tu->ops[i].cycles + (i > s ? staticStall(&tu->ops[0], i)
                                                 : 0);
        }
        if (e - 1 < n) {
            const TranslatedOp &last = tu->ops[e - 1];
            if (last.kind == TLd || last.kind == TLdt)
                b.exitPend = last.pendReg;
        }
        if (e - s >= 3 && e <= n && isXferKind(tu->ops[e - 3].kind))
            b.squashDelta = static_cast<int8_t>(
                2 - static_cast<int>(tu->ops[e - 2].cycles +
                                     tu->ops[e - 1].cycles +
                                     staticStall(&tu->ops[0], e - 1)));
        tu->ops[s].blk = static_cast<uint32_t>(tu->blocks.size());
        tu->ops[s].handler = labels[TEnter];
        tu->blocks.push_back(b);
        s = e;
    }

    return {std::move(tu), ""};
}

} // namespace mxl
