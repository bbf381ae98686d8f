#include "analysis/checkplace.h"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/cfg.h"
#include "analysis/dom.h"
#include "analysis/tagflow.h"
#include "machine/machine.h"
#include "support/format.h"
#include "support/owner_memo.h"
#include "support/panic.h"

namespace mxl {

namespace {

std::vector<int>
unitRoots(const CompiledUnit &unit)
{
    std::vector<int> roots;
    for (int r : {unit.entry, unit.arithTrap, unit.tagTrap})
        if (r >= 0)
            roots.push_back(r);
    return roots;
}

// ---------------------------------------------------------------------
// Whole-program register liveness (block level, 32-bit masks).
//
// Call boundaries follow the ABI the tag-flow solver and checkelim's
// regDeadAfter already assume: callees receive arguments in r2..r9,
// read the preserved globals, and may clobber (without reading) the
// temporaries and scratch. Returns (Jr) and halting Sys stops treat
// everything except the temporaries/scratch as live. Writes sitting in
// an annulled delay slot do not count as kills (they may not execute);
// reads always count (they may).
// ---------------------------------------------------------------------

uint32_t
regBit(Reg r)
{
    return 1u << r;
}

uint32_t
callReadMask()
{
    uint32_t m = regBit(abi::zero);
    for (Reg r = abi::arg0; r <= abi::argLast; ++r)
        m |= regBit(r);
    for (Reg r : {abi::treg, abi::nilreg, abi::maskreg, abi::sp,
                  abi::stkbase, abi::hp, abi::hl, abi::link})
        m |= regBit(r);
    return m;
}

uint32_t
callClobberMask()
{
    uint32_t m = regBit(abi::ret) | regBit(abi::link) |
                 regBit(abi::scratch) | regBit(abi::trapA) |
                 regBit(abi::trapB) | regBit(abi::hp) | regBit(abi::hl);
    for (Reg r = abi::arg0; r <= abi::argLast; ++r)
        m |= regBit(r);
    for (Reg r = abi::tmp0; r <= abi::tmpLast; ++r)
        m |= regBit(r);
    return m;
}

uint32_t
returnLiveMask()
{
    uint32_t m = ~0u;
    for (Reg r = abi::tmp0; r <= abi::tmpLast; ++r)
        m &= ~regBit(r);
    m &= ~regBit(abi::scratch);
    return m;
}

struct Liveness
{
    std::vector<uint32_t> liveIn;
    std::vector<uint32_t> liveOut;
};

/** A write that may be annulled (sits in the slot of a squashing
 *  transfer) must not count as a kill. */
bool
slotWriteMayNotExecute(const Program &prog, const Cfg &cfg, int idx)
{
    const int owner = cfg.slotOf[idx];
    return owner >= 0 && prog.code[owner].annul != Annul::Never;
}

Liveness
computeLiveness(const Program &prog, const Cfg &cfg,
                const std::vector<bool> *removed = nullptr)
{
    const size_t nb = cfg.blocks.size();
    Liveness lv;
    lv.liveIn.assign(nb, 0);
    lv.liveOut.assign(nb, 0);

    std::vector<uint32_t> use(nb, 0), def(nb, 0);
    std::vector<uint32_t> exitLive(nb, 0); // live past the block's end
    for (size_t b = 0; b < nb; ++b) {
        const CfgBlock &blk = cfg.blocks[b];
        uint32_t u = 0, d = 0;
        for (int i = blk.first; i <= blk.last; ++i) {
            if (removed && (*removed)[i])
                continue;
            const Instruction &q = prog.code[i];
            Reg reads[3];
            int nr = 0;
            q.readRegs(reads, nr);
            for (int k = 0; k < nr; ++k)
                u |= regBit(reads[k]) & ~d;
            const int wr = q.writeReg();
            if (wr >= 0 && !slotWriteMayNotExecute(prog, cfg, i))
                d |= regBit(static_cast<Reg>(wr));
        }
        if (blk.xfer >= 0) {
            const Opcode xop = prog.code[blk.xfer].op;
            if (xop == Opcode::Jal || xop == Opcode::Jalr) {
                u |= callReadMask() & ~d;
                d |= callClobberMask();
            } else if (xop == Opcode::Jr) {
                exitLive[b] = returnLiveMask();
            }
        } else if (blk.sysStop) {
            exitLive[b] = returnLiveMask();
        }
        use[b] = u;
        def[b] = d;
    }

    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t b = nb; b-- > 0;) {
            uint32_t out = exitLive[b];
            for (const CfgEdge &e : cfg.blocks[b].out)
                out |= lv.liveIn[e.to];
            uint32_t in = use[b] | (out & ~def[b]);
            if (out != lv.liveOut[b] || in != lv.liveIn[b]) {
                lv.liveOut[b] = out;
                lv.liveIn[b] = in;
                changed = true;
            }
        }
    }
    return lv;
}

/**
 * Is register @p r dead immediately before instruction @p from in its
 * block? Forward scan to the block end, then the block's liveOut.
 */
bool
regDeadAt(const Program &prog, const Cfg &cfg, const Liveness &lv,
          int block, int from, Reg r,
          const std::vector<bool> *removed = nullptr)
{
    const CfgBlock &blk = cfg.blocks[block];
    for (int i = from; i <= blk.last; ++i) {
        if (removed && (*removed)[i])
            continue;
        const Instruction &q = prog.code[i];
        Reg reads[3];
        int nr = 0;
        q.readRegs(reads, nr);
        for (int k = 0; k < nr; ++k)
            if (reads[k] == r)
                return false;
        if (q.writeReg() == int{r} &&
            !slotWriteMayNotExecute(prog, cfg, i))
            return true;
    }
    if (blk.xfer >= 0) {
        const Opcode xop = prog.code[blk.xfer].op;
        if (xop == Opcode::Jal || xop == Opcode::Jalr) {
            if (callReadMask() & regBit(r))
                return false;
            if (callClobberMask() & regBit(r))
                return true;
        } else if (xop == Opcode::Jr) {
            return (returnLiveMask() & regBit(r)) == 0;
        }
    } else if (blk.sysStop) {
        return (returnLiveMask() & regBit(r)) == 0;
    }
    return (lv.liveOut[block] & regBit(r)) == 0;
}

// ---------------------------------------------------------------------
// Insertion rewriter.
//
// Inserts instruction sequences *before* given old indices and renumbers
// everything. Branch targets pointing at an insertion point are, by
// default, retargeted to the start of the inserted code (the inserted
// guard dominates its old target); branches listed in keepTargetFrom
// keep pointing at the original instruction — this is how loop back
// edges skip a hoisted preheader check. Inserted control instructions
// carry *old* indices in their target field and are remapped like
// everything else.
// ---------------------------------------------------------------------

struct InsertPlan
{
    int before = -1;
    std::vector<Instruction> code;
    std::set<int> keepTargetFrom; ///< old xfer indices that bypass the insert
};

void
applyInsertions(CompiledUnit &unit, std::vector<InsertPlan> &plans)
{
    if (plans.empty())
        return;
    std::stable_sort(plans.begin(), plans.end(),
                     [](const InsertPlan &a, const InsertPlan &b) {
                         return a.before < b.before;
                     });
    Program &prog = unit.prog;
    const int n = static_cast<int>(prog.code.size());

    // cum[i]: instructions inserted at positions <= i; lenAt[i]: at i.
    std::vector<int> lenAt(static_cast<size_t>(n) + 1, 0);
    for (const InsertPlan &p : plans) {
        MXL_ASSERT(p.before >= 0 && p.before <= n,
                   "insertion point out of range: ", p.before);
        lenAt[p.before] += static_cast<int>(p.code.size());
    }
    std::vector<int> cum(static_cast<size_t>(n) + 1, 0);
    int running = 0;
    for (int i = 0; i <= n; ++i) {
        running += lenAt[i];
        cum[i] = running;
    }
    auto newIdx = [&](int i) { return i + cum[i]; };
    auto insStart = [&](int i) { return i + cum[i] - lenAt[i]; };

    // Merged bypass sets per insertion point.
    std::map<int, std::set<int>> keepAt;
    for (const InsertPlan &p : plans)
        keepAt[p.before].insert(p.keepTargetFrom.begin(),
                                p.keepTargetFrom.end());

    auto mapTarget = [&](int t, int fromOld) {
        if (t < 0 || t > n)
            return t;
        if (lenAt[t] > 0) {
            auto it = keepAt.find(t);
            if (it == keepAt.end() || !it->second.count(fromOld))
                return insStart(t);
        }
        return newIdx(t);
    };

    std::vector<Instruction> code;
    code.reserve(static_cast<size_t>(n + running));
    size_t next = 0;
    for (int i = 0; i <= n; ++i) {
        while (next < plans.size() && plans[next].before == i) {
            for (Instruction q : plans[next].code) {
                if (isControl(q.op) && q.target >= 0)
                    q.target = mapTarget(q.target, -1);
                code.push_back(q);
            }
            ++next;
        }
        if (i == n)
            break;
        Instruction q = prog.code[i];
        if (q.target >= 0)
            q.target = mapTarget(q.target, i);
        code.push_back(q);
    }
    prog.code = std::move(code);

    for (auto &[name, idx] : prog.symbols) {
        (void)name;
        idx = mapTarget(idx, -1);
    }
    auto renum = [&](int &idx) {
        if (idx >= 0)
            idx = mapTarget(idx, -1);
    };
    renum(unit.entry);
    renum(unit.arithTrap);
    renum(unit.tagTrap);
    unit.objectWords = static_cast<int>(prog.code.size());

    for (const auto &[sym, addr] : unit.fnCells) {
        const int idx = prog.symbol(sym);
        MXL_ASSERT(idx >= 0, "function cell for unknown symbol ", sym);
        unit.memory.word(addr >> 2) = Machine::codeAddr(idx);
    }
}

/** Delete the marked instructions and renumber (checkelim's scheme). */
int
applyRemovals(CompiledUnit &unit, const std::vector<bool> &remove)
{
    Program &prog = unit.prog;
    const int n = static_cast<int>(prog.code.size());
    int removed = 0;
    for (int i = 0; i < n; ++i)
        if (remove[i])
            ++removed;
    if (removed == 0)
        return 0;

    std::vector<int> mapFwd(static_cast<size_t>(n) + 1, 0);
    int ni = 0;
    for (int i = 0; i < n; ++i) {
        mapFwd[i] = ni;
        if (!remove[i])
            ++ni;
    }
    mapFwd[n] = ni;

    std::vector<Instruction> code;
    code.reserve(static_cast<size_t>(ni));
    for (int i = 0; i < n; ++i) {
        if (remove[i])
            continue;
        Instruction q = prog.code[i];
        if (q.target >= 0 && q.target <= n)
            q.target = mapFwd[q.target];
        code.push_back(q);
    }
    prog.code = std::move(code);
    for (auto &[name, idx] : prog.symbols) {
        (void)name;
        if (idx >= 0 && idx <= n)
            idx = mapFwd[idx];
    }
    auto renum = [&](int &idx) {
        if (idx >= 0 && idx <= n)
            idx = mapFwd[idx];
    };
    renum(unit.entry);
    renum(unit.arithTrap);
    renum(unit.tagTrap);
    unit.objectWords = static_cast<int>(prog.code.size());

    for (const auto &[sym, addr] : unit.fnCells) {
        const int idx = prog.symbol(sym);
        MXL_ASSERT(idx >= 0, "function cell for unknown symbol ", sym);
        unit.memory.word(addr >> 2) = Machine::codeAddr(idx);
    }
    return removed;
}

// ---------------------------------------------------------------------
// Loop-invariant hoisting.
// ---------------------------------------------------------------------

/** One check worth hoisting: (loop, slot, required fact). */
struct HoistCand
{
    int loop = -1;
    int32_t off = 0;     ///< entry-relative slot byte offset
    bool fixnum = false; ///< fixnum check (Slli;Srai;Bne) vs tag check
    uint32_t tag = 0;    ///< required tag field value when !fixnum
    bool btagForm = false; ///< in-loop check used Btag/Bntag hardware
    CheckCat cat = CheckCat::None;
    int errTarget = -1;  ///< old index of the terminal error stub
    bool contradicted = false; ///< same slot checked for different facts
};

/**
 * Is stack slot @p off (entry-relative) invariant across @p loop?
 * Every store through sp in the loop must have a known sp delta and
 * must address a different slot; an sp-tracking loss anywhere in the
 * loop gives up. Non-sp stores cannot touch the frame under the
 * compiler's stack discipline (docs/ANALYSIS.md).
 */
bool
slotInvariantInLoop(const TagFlow &flow, const Program &prog,
                    const NaturalLoop &loop, int32_t off)
{
    bool ok = true;
    for (int lb : loop.blocks) {
        if (!ok)
            break;
        if (!flow.blockIn(lb).reachable)
            continue;
        flow.walkBlock(lb, [&](int idx, const TagState &before) {
            if (!ok || !before.reachable)
                return;
            const Instruction &q = prog.code[idx];
            if ((q.op == Opcode::St || q.op == Opcode::Stt) &&
                q.rs == abi::sp) {
                if (!before.spKnown ||
                    before.spDelta + static_cast<int32_t>(q.imm) == off)
                    ok = false;
            }
        });
    }
    return ok;
}

struct HoistEngine
{
    const CompiledUnit &unit;
    const Program &prog;
    const Cfg &cfg;
    const TagFlow &flow;
    const DomTree &dom;
    const LoopForest &loops;
    const Liveness &lv;
    std::set<int> symbolIdx;

    HoistEngine(const CompiledUnit &u, const Cfg &c, const TagFlow &f,
                const DomTree &d, const LoopForest &l, const Liveness &liv)
        : unit(u), prog(u.prog), cfg(c), flow(f), dom(d), loops(l), lv(liv)
    {
        for (const auto &[name, idx] : prog.symbols) {
            (void)name;
            symbolIdx.insert(idx);
        }
    }

    /** Can a preheader be placed before this loop's header? */
    bool
    headerHoistable(const NaturalLoop &loop) const
    {
        const int h = loop.header;
        const int hFirst = cfg.blocks[h].first;
        if (symbolIdx.count(hFirst) || unit.entry == hFirst ||
            unit.arithTrap == hFirst || unit.tagTrap == hFirst)
            return false;
        // Every in-loop predecessor must reach the header through an
        // explicit branch/jump target (retargetable to bypass the
        // preheader). A latch falling or call-returning into the
        // header would execute the preheader every iteration.
        for (int p : cfg.blocks[h].preds) {
            if (!loop.contains(p))
                continue;
            const CfgBlock &pb = cfg.blocks[p];
            if (pb.xfer < 0 || prog.code[pb.xfer].target != hFirst)
                return false;
        }
        return true;
    }

    /** Pick scratch registers dead at the header and the error stub. */
    bool
    pickTemps(const NaturalLoop &loop, int errTarget, Reg &rT,
              Reg &rU) const
    {
        const int h = loop.header;
        const int eb = cfg.blockAt(errTarget);
        uint32_t busy = lv.liveIn[h];
        if (eb >= 0)
            busy |= lv.liveIn[eb];
        std::vector<Reg> cand;
        for (Reg r = abi::tmp0; r <= abi::tmpLast; ++r)
            cand.push_back(r);
        cand.push_back(abi::scratch);
        std::vector<Reg> free;
        for (Reg r : cand)
            if (!(busy & regBit(r)))
                free.push_back(r);
        if (free.size() < 2)
            return false;
        rT = free[0];
        rU = free[1];
        return true;
    }

    /**
     * Resolve a check branch to the stack slot it guards. Returns
     * false when the branch is not a hoistable slot-invariant check.
     */
    bool
    resolve(int block, HoistCand &cand) const
    {
        const CfgBlock &blk = cfg.blocks[block];
        const Instruction &x = prog.code[blk.xfer];
        const TagState s = flow.stateAtXfer(block);
        if (!s.reachable || !s.spKnown)
            return false;
        if (flow.edgeDead(s, x, /*taken=*/true))
            return false; // already redundant; elimination handles it

        Reg src = 0;
        const uint32_t tagMask =
            (1u << unit.scheme->tagBits()) - 1u;
        switch (x.op) {
          case Opcode::Bnei: {
            const Prov &p = s.regs[x.rs].prov;
            if (p.kind != Prov::Kind::TagExtract || p.mask != tagMask)
                return false;
            src = p.src;
            cand.tag = static_cast<uint32_t>(x.imm);
            break;
          }
          case Opcode::Bntag:
            src = x.rs;
            cand.tag = x.timm;
            cand.btagForm = true;
            break;
          case Opcode::Bne: {
            const Prov &a = s.regs[x.rs].prov;
            const Prov &b = s.regs[x.rt].prov;
            if (a.kind == Prov::Kind::SxtOf && a.src == x.rt)
                src = x.rt;
            else if (b.kind == Prov::Kind::SxtOf && b.src == x.rs)
                src = x.rs;
            else
                return false;
            cand.fixnum = true;
            break;
          }
          default:
            return false;
        }
        const Prov &sv = s.regs[src].prov;
        if (sv.kind != Prov::Kind::Slot)
            return false;
        cand.off = sv.slot;
        cand.cat = x.ann.cat;
        cand.errTarget = x.target;
        return true;
    }

    /** Emit the preheader check sequence for one candidate. */
    void
    emit(std::vector<Instruction> &out, const HoistCand &cand,
         int32_t spImm, Reg rT, Reg rU) const
    {
        const TagScheme &scheme = *unit.scheme;
        const Annotation extAnn{Purpose::TagExtract, cand.cat, true};
        const Annotation chkAnn{Purpose::TagCheck, cand.cat, true};

        Instruction ld;
        ld.op = Opcode::Ld;
        ld.rd = rT;
        ld.rs = abi::sp;
        ld.imm = spImm;
        ld.ann = extAnn;
        out.push_back(ld);

        auto branch = [&](Opcode op, Reg rs, Reg rt, int64_t imm,
                          uint32_t timm) {
            Instruction b;
            b.op = op;
            b.rs = rs;
            b.rt = rt;
            b.imm = imm;
            b.timm = timm;
            b.target = cand.errTarget;
            b.hintFall = true;
            b.ann = chkAnn;
            out.push_back(b);
            Instruction pad;
            pad.op = Opcode::Noop;
            pad.ann = chkAnn;
            out.push_back(pad);
            out.push_back(pad);
        };

        if (cand.fixnum) {
            Instruction sll;
            sll.op = Opcode::Slli;
            sll.rd = rU;
            sll.rs = rT;
            sll.imm = scheme.tagBits();
            sll.ann = extAnn;
            out.push_back(sll);
            Instruction sra = sll;
            sra.op = Opcode::Srai;
            sra.rs = rU;
            out.push_back(sra);
            branch(Opcode::Bne, rU, rT, 0, 0);
            return;
        }
        if (cand.btagForm) {
            branch(Opcode::Bntag, rT, 0, 0, cand.tag);
            return;
        }
        Instruction ext;
        ext.rd = rU;
        ext.rs = rT;
        ext.ann = extAnn;
        if (scheme.placement() == TagPlacement::High) {
            ext.op = Opcode::Srli;
            ext.imm = scheme.tagShift();
        } else {
            ext.op = Opcode::Andi;
            ext.imm = (1u << scheme.tagBits()) - 1u;
        }
        out.push_back(ext);
        branch(Opcode::Bnei, rU, 0, cand.tag, 0);
    }
};

/** Phase 1: find and insert preheader checks. */
void
hoistInvariantChecks(CompiledUnit &unit, PlaceStats &st)
{
    const Program &prog = unit.prog;
    Cfg cfg = buildCfg(prog, unitRoots(unit));
    if (!cfg.ok())
        return; // placeChecks already verified; defensive
    TagFlow flow(prog, cfg, *unit.scheme);
    flow.solve();
    DomTree dom = computeDominators(cfg);
    LoopForest loops = findLoops(cfg, dom);
    st.loopsFound = static_cast<int>(loops.loops.size());
    if (loops.loops.empty())
        return;
    Liveness lv = computeLiveness(prog, cfg);
    HoistEngine eng(unit, cfg, flow, dom, loops, lv);

    const int errSym = prog.symbol("rt_error");
    if (errSym < 0)
        return;

    // Collect candidates, deduplicated per (loop, slot, fact); a slot
    // checked for two *different* facts in one loop must not be hoisted
    // at all (the loop may take disjoint paths; checking both at the
    // preheader could trap an execution the original never trapped).
    std::map<std::pair<int, int32_t>, HoistCand> bySlot;
    std::map<std::pair<int, int32_t>, bool> invariant;
    for (size_t b = 0; b < cfg.blocks.size(); ++b) {
        const CfgBlock &blk = cfg.blocks[b];
        if (!cfg.reachable[b] || blk.xfer < 0)
            continue;
        const Instruction &x = prog.code[blk.xfer];
        if (!isCondBranch(x.op) || x.ann.purpose != Purpose::TagCheck ||
            !x.ann.fromChecking)
            continue;
        const int li = loops.innermost[static_cast<int>(b)];
        if (li < 0 || x.target != errSym)
            continue;
        HoistCand cand;
        cand.loop = li;
        if (!eng.resolve(static_cast<int>(b), cand))
            continue;
        ++st.hoistCandidates;

        const auto key = std::make_pair(li, cand.off);
        auto it = bySlot.find(key);
        if (it != bySlot.end()) {
            HoistCand &prev = it->second;
            if (prev.fixnum != cand.fixnum ||
                (!cand.fixnum && prev.tag != cand.tag))
                prev.contradicted = true;
            continue;
        }
        const NaturalLoop &loop = loops.loops[li];
        if (!eng.headerHoistable(loop))
            continue;
        auto inv = invariant.find(key);
        if (inv == invariant.end())
            inv = invariant
                      .emplace(key, slotInvariantInLoop(flow, prog, loop,
                                                        cand.off))
                      .first;
        if (!inv->second)
            continue;
        // The slot must live at or above the header's sp so the
        // preheader can address (and safely read) it.
        const TagState &hin = flow.blockIn(loop.header);
        if (!hin.reachable || !hin.spKnown || cand.off - hin.spDelta < 0)
            continue;
        bySlot.emplace(key, cand);
    }

    // Group the surviving candidates into one insertion per header.
    std::map<int, InsertPlan> plansByHeader; // header block -> plan
    for (auto &[key, cand] : bySlot) {
        if (cand.contradicted)
            continue;
        const NaturalLoop &loop = loops.loops[cand.loop];
        Reg rT, rU;
        if (!eng.pickTemps(loop, cand.errTarget, rT, rU))
            continue;
        const int hFirst = cfg.blocks[loop.header].first;
        const TagState &hin = flow.blockIn(loop.header);
        InsertPlan &plan = plansByHeader[loop.header];
        if (plan.before < 0) {
            plan.before = hFirst;
            for (int latch : loop.latches)
                plan.keepTargetFrom.insert(cfg.blocks[latch].xfer);
        }
        const size_t sizeBefore = plan.code.size();
        eng.emit(plan.code, cand, cand.off - hin.spDelta, rT, rU);
        ++st.hoisted;
        st.hoistInstructions +=
            static_cast<int>(plan.code.size() - sizeBefore);
    }
    if (plansByHeader.empty())
        return;
    std::vector<InsertPlan> plans;
    for (auto &[h, p] : plansByHeader) {
        (void)h;
        plans.push_back(std::move(p));
    }
    applyInsertions(unit, plans);
}

// ---------------------------------------------------------------------
// Phase 3: global cleanup — cross-block dead extract feeders and
// orphaned (never-reachable) error-path blocks.
// ---------------------------------------------------------------------

bool
pureAluOp(Opcode op)
{
    switch (op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::And:
      case Opcode::Or:  case Opcode::Xor: case Opcode::Sll:
      case Opcode::Srl: case Opcode::Sra: case Opcode::Mul:
      case Opcode::Addi: case Opcode::Andi: case Opcode::Ori:
      case Opcode::Xori: case Opcode::Slli: case Opcode::Srli:
      case Opcode::Srai: case Opcode::Li: case Opcode::Mov:
        return true;
      default:
        return false;
    }
}

void
globalCleanup(CompiledUnit &unit, PlaceStats &st)
{
    const Program &prog = unit.prog;
    const int n = static_cast<int>(prog.code.size());
    Cfg cfg = buildCfg(prog, unitRoots(unit));
    if (!cfg.ok())
        return;
    Liveness lv = computeLiveness(prog, cfg);
    std::vector<bool> remove(static_cast<size_t>(n), false);

    // Dead extract feeders, found by whole-program liveness instead of
    // checkelim's bounded same-block scan. Only pure ALU instructions
    // outside delay slots are candidates; division by Mul/Div cost is
    // irrelevant (they are never extract-stamped).
    for (size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (!cfg.reachable[b])
            continue;
        const CfgBlock &blk = cfg.blocks[b];
        // Reverse order so a dead pair (Slli feeding Srai) unravels.
        for (int i = blk.last; i >= blk.first; --i) {
            const Instruction &q = prog.code[i];
            if (cfg.slotOf[i] != -1 || !pureAluOp(q.op))
                continue;
            if (q.ann.purpose != Purpose::TagExtract ||
                !q.ann.fromChecking || !q.ann.stamped)
                continue;
            const int wr = q.writeReg();
            if (wr <= 0)
                continue;
            if (regDeadAt(prog, cfg, lv, static_cast<int>(b), i + 1,
                          static_cast<Reg>(wr), &remove)) {
                remove[i] = true;
                ++st.feedersRemoved;
            }
        }
    }

    // Orphaned blocks: unreachable from every root. After elimination
    // deleted a never-taken check branch, the error path it guarded
    // (e.g. a generic-arithmetic slow-path island) loses its only
    // predecessor and can be sunk out of the unit entirely. Roots are
    // symbols and the entry/trap points, so no removable block can be
    // entered by a call, a return, or a trap.
    for (size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (cfg.reachable[b])
            continue;
        const CfgBlock &blk = cfg.blocks[b];
        for (int i = blk.first; i <= blk.last; ++i) {
            if (!remove[i]) {
                remove[i] = true;
                ++st.sunkInstructions;
            }
        }
    }

    applyRemovals(unit, remove);
}

} // namespace

PlaceStats
placeChecks(CompiledUnit &unit)
{
    PlaceStats st;
    {
        Cfg cfg = buildCfg(unit.prog, unitRoots(unit));
        if (!cfg.ok()) {
            st.skipped = true;
            st.diagnostic = strcat("malformed CFG (",
                                   cfg.malformed.size(),
                                   " structural violation(s))");
            return st;
        }
    }
    hoistInvariantChecks(unit, st);
    st.elim = eliminateRedundantChecks(unit);
    if (st.elim.skipped) {
        // The hoister never produces a malformed unit; this is
        // defensive (and covers the trap-table refusal diagnostic).
        st.skipped = true;
        st.diagnostic = st.elim.diagnostic.empty()
                            ? "elimination refused the unit"
                            : st.elim.diagnostic;
        return st;
    }
    globalCleanup(unit, st);
    return st;
}

std::shared_ptr<const CompiledUnit>
checkPlaceTransform(const std::shared_ptr<const CompiledUnit> &unit,
                    PlaceStats *stats)
{
    struct Rewrite
    {
        std::shared_ptr<const CompiledUnit> unit;
        PlaceStats stats;
    };
    static OwnerMemo<const CompiledUnit, Rewrite> memo;
    Rewrite r = memo.get(unit, [&] {
        auto copy = std::make_shared<CompiledUnit>(cloneUnit(*unit));
        PlaceStats st = placeChecks(*copy);
        return Rewrite{std::move(copy), std::move(st)};
    });
    if (stats)
        *stats = r.stats;
    return r.unit;
}

// ---------------------------------------------------------------------
// mxlint --fix: insert provably-missing checks.
// ---------------------------------------------------------------------

FixStats
insertMissingChecks(CompiledUnit &unit)
{
    FixStats st;
    const Program &prog = unit.prog;
    Cfg cfg = buildCfg(prog, unitRoots(unit));
    if (!cfg.ok()) {
        st.skipped = true;
        return st;
    }
    if (unit.opts.checking != Checking::Full)
        return st; // the discipline only applies under full checking
    TagFlow flow(prog, cfg, *unit.scheme);
    flow.solve();
    Liveness lv = computeLiveness(prog, cfg);
    const TagScheme &scheme = *unit.scheme;
    const int errSym = prog.symbol("rt_error");
    const uint32_t pairTag = scheme.pointerTag(TypeId::Pair);

    auto singleTag = [](uint64_t tags) {
        return tags != 0 && (tags & (tags - 1)) == 0;
    };

    std::vector<InsertPlan> plans;
    for (size_t b = 0; b < cfg.blocks.size(); ++b) {
        if (!cfg.reachable[b])
            continue;
        const CfgBlock &blk = cfg.blocks[b];
        TagState s = flow.blockIn(static_cast<int>(b));
        if (!s.reachable)
            continue;
        // Registers proven by a guard inserted earlier in this block.
        uint32_t fixedProven = 0;
        for (int i = blk.first; i <= blk.last; ++i) {
            const Instruction &inst = prog.code[i];
            const bool isAccess =
                (inst.op == Opcode::Ld || inst.op == Opcode::St) &&
                inst.ann.cat == CheckCat::List;
            if (isAccess) {
                Reg base = inst.rs;
                uint64_t tags = s.regs[base].tags;
                Reg src = base;
                if (s.regs[base].prov.kind == Prov::Kind::Detag) {
                    src = s.regs[base].prov.src;
                    tags = s.regs[src].tags;
                }
                const bool proven =
                    (singleTag(tags) &&
                     (tags & ~flow.pointerTags()) == 0) ||
                    (fixedProven & regBit(src));
                if (!proven) {
                    ++st.unproven;
                    // Build a guard when the tagged source is known,
                    // the site is not inside a delay slot, the error
                    // stub exists, and a dead scratch register (or the
                    // branch-on-tag hardware) is available.
                    bool fixable = errSym >= 0 &&
                                   cfg.slotOf[i] == -1 && src != base;
                    Reg rU = 0;
                    const bool btag = unit.opts.hw.branchOnTag;
                    if (fixable && !btag) {
                        bool found = false;
                        for (Reg r = abi::tmp0; r <= abi::scratch + 1;
                             ++r) {
                            if (r > abi::tmpLast && r != abi::scratch)
                                continue;
                            if (r == src || r == base)
                                continue;
                            const int eb = cfg.blockAt(errSym);
                            if (eb >= 0 &&
                                (lv.liveIn[eb] & regBit(r)))
                                continue;
                            if (regDeadAt(prog, cfg, lv,
                                          static_cast<int>(b), i, r)) {
                                rU = r;
                                found = true;
                                break;
                            }
                        }
                        fixable = found;
                    }
                    if (fixable) {
                        InsertPlan plan;
                        plan.before = i;
                        const Annotation extAnn{Purpose::TagExtract,
                                                CheckCat::List, true};
                        const Annotation chkAnn{Purpose::TagCheck,
                                                CheckCat::List, true};
                        if (btag) {
                            Instruction br;
                            br.op = Opcode::Bntag;
                            br.rs = src;
                            br.timm = pairTag;
                            br.target = errSym;
                            br.hintFall = true;
                            br.ann = chkAnn;
                            plan.code.push_back(br);
                        } else {
                            Instruction ext;
                            ext.rd = rU;
                            ext.rs = src;
                            ext.ann = extAnn;
                            if (scheme.placement() ==
                                TagPlacement::High) {
                                ext.op = Opcode::Srli;
                                ext.imm = scheme.tagShift();
                            } else {
                                ext.op = Opcode::Andi;
                                ext.imm =
                                    (1u << scheme.tagBits()) - 1u;
                            }
                            plan.code.push_back(ext);
                            Instruction br;
                            br.op = Opcode::Bnei;
                            br.rs = rU;
                            br.imm = pairTag;
                            br.target = errSym;
                            br.hintFall = true;
                            br.ann = chkAnn;
                            plan.code.push_back(br);
                        }
                        Instruction pad;
                        pad.op = Opcode::Noop;
                        pad.ann = chkAnn;
                        plan.code.push_back(pad);
                        plan.code.push_back(pad);
                        st.instructionsInserted +=
                            static_cast<int>(plan.code.size());
                        plans.push_back(std::move(plan));
                        ++st.inserted;
                        fixedProven |= regBit(src);
                    } else {
                        ++st.unfixable;
                    }
                }
            }
            // Track kills of locally-proven registers.
            const int wr = inst.writeReg();
            if (wr >= 0)
                fixedProven &= ~regBit(static_cast<Reg>(wr));
            flow.applyInst(s, inst);
        }
    }
    applyInsertions(unit, plans);
    return st;
}

} // namespace mxl
