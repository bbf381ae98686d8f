#include "faults/fault_injector.h"

#include <algorithm>
#include <span>
#include <vector>

#include "support/format.h"
#include "support/panic.h"

namespace mxl {

namespace {

/**
 * Where a memory fault may land: words [lo, hi) of an image (the
 * scanners clamp hi to the image), preferably one holding a pair
 * pointer to a byte address in [targetLo, targetHi).
 */
struct Region
{
    uint32_t lo, hi;
    uint64_t targetLo, targetHi;
};

/**
 * The static data area of the pristine image. Preferred sites are the
 * cells of quoted list structure, pair pointers back into the static
 * area: corrupting one models exactly the fault tag checking exists to
 * catch, a list cell whose type field no longer matches its contents.
 */
Region
staticRegion(const CompiledUnit &unit)
{
    return {unit.layout.staticDataBase / 4, unit.layout.staticLimit / 4,
            unit.layout.staticBase, unit.layout.staticLimit};
}

/**
 * The live heap of a paused run: [from-space base, heap allocation
 * pointer), clamped to the image. Everything in it was allocated by the
 * program since startup (or survived its last collection); preferred
 * sites are the cons cells it built, pair pointers back into this range.
 */
Region
liveHeap(std::span<const uint32_t> memory, std::span<const uint32_t, 32> regs,
         const CompiledUnit &unit)
{
    uint32_t words = static_cast<uint32_t>(memory.size());
    uint32_t fromLo = memory[unit.layout.cellAddr(Cell::FromLo) / 4];
    uint32_t lo = std::min(fromLo / 4, words);
    uint32_t hi = std::max(lo, std::min(regs[abi::hp] / 4, words));
    return {lo, hi, uint64_t{lo} * 4, uint64_t{hi} * 4};
}

/**
 * The live stack of a paused run: [sp, stackTop). The stack grows down
 * from stackTop and sp is a raw byte address, so every word in it is a
 * live slot: saved registers, spilled values, return addresses.
 * Preferred sites are saved list values, pair pointers into the heap or
 * static area.
 */
Region
liveStack(std::span<const uint32_t, 32> regs, const CompiledUnit &unit)
{
    return {regs[abi::sp] / 4, unit.layout.stackTop / 4,
            unit.layout.staticBase, unit.layout.stackTop};
}

/** Words of @p r holding a pair pointer into its target range. */
std::vector<uint32_t>
pairPointerWords(std::span<const uint32_t> memory, const Region &r,
                 const TagScheme &s)
{
    std::vector<uint32_t> out;
    uint32_t hi = std::min<uint64_t>(r.hi, memory.size());
    for (uint32_t i = r.lo; i < hi; ++i) {
        uint32_t w = memory[i];
        if (w == 0 || s.primaryTag(w) != s.pointerTag(TypeId::Pair))
            continue;
        uint32_t a = s.detagAddr(w);
        if (a >= r.targetLo && a < r.targetHi)
            out.push_back(i);
    }
    return out;
}

/** All nonzero words of @p r. */
std::vector<uint32_t>
nonzeroWords(std::span<const uint32_t> memory, const Region &r)
{
    std::vector<uint32_t> out;
    uint32_t hi = std::min<uint64_t>(r.hi, memory.size());
    for (uint32_t i = r.lo; i < hi; ++i)
        if (memory[i] != 0)
            out.push_back(i);
    return out;
}

/**
 * XOR a nonzero delta into the tag field of one word of @p r, a
 * preferred site if there is one, else any nonzero word (where the
 * corruption turns a datum into something pointer-shaped). The word
 * keeps its data part (address) but claims a different type.
 */
void
corruptTag(std::span<uint32_t> memory, const Region &r, const TagScheme &s,
           uint64_t seed)
{
    FaultRng rng(seed);
    std::vector<uint32_t> sites = pairPointerWords(memory, r, s);
    if (sites.empty())
        sites = nonzeroWords(memory, r);
    if (sites.empty())
        return; // nothing to corrupt; the trial will classify as Masked
    uint32_t idx = sites[rng.below(sites.size())];
    uint32_t tagMask = (1u << s.tagBits()) - 1u;
    uint32_t delta = 1u + static_cast<uint32_t>(rng.below(tagMask));
    memory[idx] ^= delta << s.tagShift();
}

/** Flip one bit of one nonzero word of @p r. */
void
flipBit(std::span<uint32_t> memory, const Region &r, uint64_t seed)
{
    FaultRng rng(seed);
    std::vector<uint32_t> sites = nonzeroWords(memory, r);
    if (sites.empty())
        return;
    uint32_t idx = sites[rng.below(sites.size())];
    memory[idx] ^= 1u << rng.below(32);
}

/**
 * Substitute an ill-typed value (a pair pointer for a fixnum, else a
 * fixnum) into an argument register. The seed's first draw picked the
 * call (callArgPauseCycle); the next two pick the register and fixnum.
 */
void
corruptCallArg(std::span<uint32_t, 32> regs, const CompiledUnit &unit,
               uint64_t seed)
{
    FaultRng rng(seed);
    rng.below(kCallWindow);
    uint32_t &arg = regs[abi::arg0 + rng.below(2)];
    const TagScheme &s = *unit.scheme;
    uint32_t align = s.alignment(TypeId::Pair);
    uint32_t pairAddr = (unit.layout.heapABase + align - 1) & ~(align - 1);
    uint32_t fixWord =
        s.encodeFixnum(static_cast<int64_t>(1 + rng.below(1000)));
    arg = s.wordIsFixnum(arg) ? s.encodePointer(TypeId::Pair, pairAddr)
                              : fixWord;
}

} // namespace

std::vector<uint64_t>
scanCallCycles(const CompiledUnit &unit, uint64_t maxCycles)
{
    Machine m(unit.prog, Memory(unit.layout.memBytes, unit.memory),
              unit.opts.hw, unit.scheme.get());
    installTrapHandlers(m, unit);
    std::vector<uint64_t> cycles;
    m.traceHook = [&](int, const Instruction &inst) {
        if ((inst.op == Opcode::Jal || inst.op == Opcode::Jalr) &&
            cycles.size() < kCallWindow)
            cycles.push_back(m.stats().total);
    };
    // Short chunks: the window's calls come early in every run.
    StopReason stop = m.run(unit.entry, std::min<uint64_t>(1024, maxCycles));
    while (stop == StopReason::CycleLimit && cycles.size() < kCallWindow &&
           m.stats().total <= maxCycles)
        stop = m.resume(std::min(m.stats().total + 1024, maxCycles));
    return cycles;
}

uint64_t
callArgPauseCycle(uint64_t seed, std::span<const uint64_t> callCycles)
{
    uint64_t n = FaultRng(seed).below(kCallWindow);
    if (n >= callCycles.size())
        return 0;
    // The pause stops before the first step that starts past it.
    MXL_ASSERT(callCycles[n] > 1, "call ", n, " is too early to pause");
    return callCycles[n] - 1;
}

const char *
faultClassName(FaultClass cls)
{
    switch (cls) {
      case FaultClass::TagCorrupt:
        return "tag-corrupt";
      case FaultClass::BitFlip:
        return "bit-flip";
      case FaultClass::CallArgType:
        return "call-arg-type";
      case FaultClass::HeapTagCorrupt:
        return "heap-tag-corrupt";
      case FaultClass::HeapBitFlip:
        return "heap-bit-flip";
      case FaultClass::StackTagCorrupt:
        return "stack-tag-corrupt";
      case FaultClass::StackBitFlip:
        return "stack-bit-flip";
    }
    return "?";
}

bool
faultClassIsHeap(FaultClass cls)
{
    return cls == FaultClass::HeapTagCorrupt ||
           cls == FaultClass::HeapBitFlip;
}

bool
faultClassIsStack(FaultClass cls)
{
    return cls == FaultClass::StackTagCorrupt ||
           cls == FaultClass::StackBitFlip;
}

bool
faultClassNeedsPause(FaultClass cls)
{
    return cls == FaultClass::CallArgType || faultClassIsHeap(cls) ||
           faultClassIsStack(cls);
}

std::string
FaultSpec::describe() const
{
    if (faultClassNeedsPause(cls))
        return strcat(faultClassName(cls), "(seed=", seed,
                      ",pause=", pauseCycle, ")");
    return strcat(faultClassName(cls), "(seed=", seed, ")");
}

void
armFault(RunRequest &req, const FaultSpec &spec)
{
    if (faultClassNeedsPause(spec.cls)) {
        MXL_ASSERT(spec.pauseCycle > 0,
                   "live-run faults need FaultSpec::pauseCycle");
        req.hooks.pauseAtCycle = spec.pauseCycle;
    }
    switch (spec.cls) {
      case FaultClass::TagCorrupt:
        req.hooks.imageMutator = [seed = spec.seed](Memory &image,
                                              const CompiledUnit &unit) {
            corruptTag(image.words(), staticRegion(unit), *unit.scheme,
                       seed);
        };
        break;
      case FaultClass::BitFlip:
        req.hooks.imageMutator = [seed = spec.seed](Memory &image,
                                              const CompiledUnit &unit) {
            flipBit(image.words(), staticRegion(unit), seed);
        };
        break;
      case FaultClass::CallArgType:
        req.hooks.pauseHook = [seed = spec.seed](std::span<uint32_t>,
                                                 std::span<uint32_t, 32> regs,
                                                 const CompiledUnit &unit) {
            corruptCallArg(regs, unit, seed);
        };
        break;
      case FaultClass::HeapTagCorrupt:
      case FaultClass::HeapBitFlip:
      case FaultClass::StackTagCorrupt:
      case FaultClass::StackBitFlip:
        req.hooks.pauseHook = [spec](std::span<uint32_t> memory,
                                     std::span<uint32_t, 32> regs,
                                     const CompiledUnit &unit) {
            Region r = faultClassIsHeap(spec.cls)
                           ? liveHeap(memory, regs, unit)
                           : liveStack(regs, unit);
            if (spec.cls == FaultClass::HeapTagCorrupt ||
                spec.cls == FaultClass::StackTagCorrupt)
                corruptTag(memory, r, *unit.scheme, spec.seed);
            else
                flipBit(memory, r, spec.seed);
        };
        break;
    }
}

} // namespace mxl
