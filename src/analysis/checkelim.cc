#include "analysis/checkelim.h"

#include "analysis/cfg.h"
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

/**
 * Is @p r provably dead after the (removed) branch at @p from?
 * Scans forward over kept instructions: a read makes it live, a write
 * kills it, a call kills caller-clobbered temps; any other control
 * transfer (after its delay slots) ends the scan conservatively.
 */
bool
regDeadAfter(const Program &prog, const std::vector<bool> &remove,
             int from, Reg r)
{
    const int n = static_cast<int>(prog.code.size());
    int budget = 64;
    auto callClobbers = [&](Reg x) {
        return (x >= abi::tmp0 && x <= abi::tmpLast) || x == abi::scratch;
    };
    for (int i = from; i < n && budget > 0; ++i) {
        if (remove[i])
            continue;
        --budget;
        const Instruction &q = prog.code[i];
        Reg reads[3];
        int nr = 0;
        q.readRegs(reads, nr);
        for (int k = 0; k < nr; ++k)
            if (reads[k] == r)
                return false;
        if (isControl(q.op)) {
            // The two delay slots still execute; inspect them, then
            // give up on following the transfer.
            for (int s = i + 1; s <= i + 2 && s < n; ++s) {
                if (remove[s])
                    continue;
                const Instruction &si = prog.code[s];
                int snr = 0;
                si.readRegs(reads, snr);
                for (int k = 0; k < snr; ++k)
                    if (reads[k] == r)
                        return false;
            }
            for (int s = i + 1; s <= i + 2 && s < n; ++s)
                if (!remove[s] && prog.code[s].writeReg() == int{r})
                    return true;
            if ((q.op == Opcode::Jal || q.op == Opcode::Jalr) &&
                callClobbers(r))
                return true;
            return false;
        }
        if (q.writeReg() == int{r})
            return true;
    }
    return false;
}

} // namespace

CompiledUnit
cloneUnit(const CompiledUnit &unit)
{
    CompiledUnit out;
    out.prog = unit.prog;
    out.memory = unit.memory;
    out.scheme = makeScheme(unit.opts.scheme);
    out.opts = unit.opts;
    out.layout = unit.layout;
    out.entry = unit.entry;
    out.arithTrap = unit.arithTrap;
    out.tagTrap = unit.tagTrap;
    out.fnCells = unit.fnCells;
    out.procedures = unit.procedures;
    out.objectWords = unit.objectWords;
    out.sourceLines = unit.sourceLines;
    return out;
}

ElimStats
eliminateRedundantChecks(CompiledUnit &unit)
{
    ElimStats st;
    Program &prog = unit.prog;
    const int n = static_cast<int>(prog.code.size());
    Cfg cfg = buildCfg(prog, unitRoots(unit));
    if (!cfg.ok()) {
        st.skipped = true;
        st.diagnostic = strcat("malformed CFG (", cfg.malformed.size(),
                               " structural violation(s)); first at pc ",
                               cfg.malformed.front().pc, ": ",
                               cfg.malformed.front().what);
        return st;
    }
    TagFlow flow(prog, cfg, *unit.scheme);
    flow.solve();

    std::vector<bool> remove(static_cast<size_t>(n), false);
    for (size_t b = 0; b < cfg.blocks.size(); ++b) {
        const CfgBlock &blk = cfg.blocks[b];
        if (!cfg.reachable[b] || blk.xfer < 0)
            continue;
        const Instruction &x = prog.code[blk.xfer];
        if (!isCondBranch(x.op) || x.ann.purpose != Purpose::TagCheck ||
            !x.ann.fromChecking)
            continue;
        ++st.checksConsidered;
        const TagState s = flow.stateAtXfer(static_cast<int>(b));
        if (!s.reachable || !flow.edgeDead(s, x, /*taken=*/true))
            continue;

        // The error edge is provably dead: delete the branch and its
        // Noop pads (filled slots carry fall-path work and stay).
        ++st.checksEliminated;
        remove[blk.xfer] = true;
        ++st.instructionsRemoved;
        for (int sidx = blk.xfer + 1; sidx <= blk.xfer + 2; ++sidx) {
            if (prog.code[sidx].op == Opcode::Noop) {
                remove[sidx] = true;
                ++st.padsRemoved;
                ++st.instructionsRemoved;
            }
        }

        // Its tag-extract feeders immediately above die with it when
        // nothing else consumes the extracted temp.
        std::vector<int> feeders;
        for (int f = blk.xfer - 1; f >= blk.first; --f) {
            const Instruction &q = prog.code[f];
            if (cfg.slotOf[f] != -1 || remove[f])
                break;
            if (q.writeReg() != int{x.rs} ||
                q.ann.purpose != Purpose::TagExtract || !q.ann.fromChecking)
                break;
            feeders.push_back(f);
        }
        if (!feeders.empty() &&
            regDeadAfter(prog, remove, blk.xfer + 1, x.rs)) {
            for (int f : feeders) {
                remove[f] = true;
                ++st.extractsRemoved;
                ++st.instructionsRemoved;
            }
        }
    }
    if (st.instructionsRemoved == 0)
        return st;

    // Refuse a unit whose trap-handler table points at an instruction
    // this rewrite would delete: silently renumbering the handler to
    // the next kept instruction would change what runs on a trap.
    // (Branch targets and symbols are safe under that renumbering —
    // execution continues at the next kept instruction either way —
    // but a trap handler entry is an architectural contract.)
    for (const auto &[what, idx] :
         {std::pair<const char *, int>{"entry", unit.entry},
          {"arith trap handler", unit.arithTrap},
          {"tag trap handler", unit.tagTrap}}) {
        if (idx >= 0 && idx < n && remove[idx]) {
            st = ElimStats{};
            st.skipped = true;
            st.diagnostic =
                strcat(what, " at pc ", idx,
                       " references an instruction the rewrite would "
                       "delete; unit refused");
            return st;
        }
    }

    // Renumber: every target/symbol maps to the first kept instruction
    // at or after its old index.
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

    // Function cells in the image hold absolute code addresses.
    for (const auto &[sym, addr] : unit.fnCells) {
        const int idx = prog.symbol(sym);
        MXL_ASSERT(idx >= 0, "function cell for unknown symbol ", sym);
        unit.memory.word(addr >> 2) = Machine::codeAddr(idx);
    }
    return st;
}

std::shared_ptr<const CompiledUnit>
checkElimTransform(const std::shared_ptr<const CompiledUnit> &unit,
                   ElimStats *stats)
{
    struct Rewrite
    {
        std::shared_ptr<const CompiledUnit> unit;
        ElimStats stats;
    };
    static OwnerMemo<const CompiledUnit, Rewrite> memo;
    Rewrite r = memo.get(unit, [&] {
        auto copy = std::make_shared<CompiledUnit>(cloneUnit(*unit));
        ElimStats st = eliminateRedundantChecks(*copy);
        return Rewrite{std::move(copy), std::move(st)};
    });
    if (stats)
        *stats = r.stats;
    return r.unit;
}

} // namespace mxl
