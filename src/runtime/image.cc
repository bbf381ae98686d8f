#include "runtime/image.h"

#include <utility>

#include "support/panic.h"

namespace mxl {

ImageBuilder::ImageBuilder(const RuntimeLayout &layout,
                           const TagScheme &scheme)
    : layout_(layout), scheme_(scheme),
      mem_(layout.memBytes),
      allocPtr_(layout.staticDataBase)
{
    // nil and t exist from the start; their value cells name themselves.
    uint32_t nilAddr = symbolAddr("nil");
    uint32_t tAddr = symbolAddr("t");
    setWord(nilAddr + symoff::value, symbolWord("nil"));
    setWord(tAddr + symoff::value, symbolWord("t"));
}

uint32_t
ImageBuilder::allocStatic(uint32_t bytes, uint32_t align)
{
    uint32_t addr = (allocPtr_ + align - 1) & ~(align - 1);
    if (addr + bytes > layout_.staticLimit)
        fatal("static area exhausted (", layout_.staticLimit, " bytes)");
    allocPtr_ = addr + bytes;
    return addr;
}

void
ImageBuilder::setWord(uint32_t addr, uint32_t w)
{
    MXL_ASSERT(addr % 4 == 0 && addr < layout_.staticLimit,
               "bad static address ", addr);
    mem_.word(addr / 4) = w;
}

uint32_t
ImageBuilder::getWord(uint32_t addr) const
{
    MXL_ASSERT(addr % 4 == 0 && addr < layout_.staticLimit,
               "bad static address ", addr);
    return mem_.word(addr / 4);
}

uint32_t
ImageBuilder::symbolAddr(const std::string &name)
{
    auto it = symbols_.find(name);
    if (it != symbols_.end())
        return it->second;

    uint32_t addr = allocStatic(symoff::size,
                                scheme_.alignment(TypeId::Symbol));
    symbols_.emplace(name, addr);
    setWord(addr + symoff::header, (5u << 3) | SubtSymbol);
    setWord(addr + symoff::name, stringWord(name));
    // Value cell: nil (note: interning "nil" itself recurses one level;
    // the constructor patches nil's own value cell afterwards).
    uint32_t nilWord = name == "nil"
        ? scheme_.encodePointer(TypeId::Symbol, addr)
        : symbolWord("nil");
    setWord(addr + symoff::value, nilWord);
    setWord(addr + symoff::plist, nilWord);
    setWord(addr + symoff::fn, 0); // code index 0 = undefined-fn stub

    // The mutable symbol cells are GC roots.
    rootCells_.push_back(addr + symoff::value);
    rootCells_.push_back(addr + symoff::plist);
    return addr;
}

uint32_t
ImageBuilder::symbolWord(const std::string &name)
{
    return scheme_.encodePointer(TypeId::Symbol, symbolAddr(name));
}

uint32_t
ImageBuilder::stringWord(const std::string &s)
{
    auto it = strings_.find(s);
    if (it != strings_.end())
        return it->second;
    uint32_t len = static_cast<uint32_t>(s.size());
    uint32_t addr = allocStatic(4 * (len + 1),
                                scheme_.alignment(TypeId::String));
    setWord(addr, (len << 3) | SubtString);
    for (uint32_t i = 0; i < len; ++i)
        setWord(addr + 4 + 4 * i, static_cast<unsigned char>(s[i]));
    uint32_t w = scheme_.encodePointer(TypeId::String, addr);
    strings_.emplace(s, w);
    return w;
}

uint32_t
ImageBuilder::constWord(const Sx *form)
{
    switch (form->kind) {
      case SxKind::Int:
        return scheme_.encodeFixnum(form->ival);
      case SxKind::Sym:
        return symbolWord(form->text);
      case SxKind::Str:
        return stringWord(form->text);
      case SxKind::Pair: {
        auto it = consts_.find(form);
        if (it != consts_.end())
            return it->second;
        uint32_t addr =
            allocStatic(8, scheme_.alignment(TypeId::Pair));
        uint32_t w = scheme_.encodePointer(TypeId::Pair, addr);
        // Memoize before recursing so cyclic constants fail loudly in
        // the recursion depth rather than looping (source can't express
        // cycles anyway).
        consts_.emplace(form, w);
        setWord(addr, constWord(form->car));
        setWord(addr + 4, constWord(form->cdr));
        return w;
      }
    }
    panic("constWord: bad node");
}

Memory
ImageBuilder::finalize()
{
    // Root list.
    if (rootCells_.size() > layout_.rootReserveWords)
        fatal("too many GC roots: ", rootCells_.size());
    for (size_t i = 0; i < rootCells_.size(); ++i)
        setWord(layout_.rootBase + 4 * static_cast<uint32_t>(i),
                rootCells_[i]);

    // Runtime cells: semispace A is the initial from-space.
    setWord(layout_.cellAddr(Cell::FromLo), layout_.heapABase);
    setWord(layout_.cellAddr(Cell::FromHi),
            layout_.heapABase + layout_.heapBytes);
    setWord(layout_.cellAddr(Cell::ToLo), layout_.heapBBase);
    setWord(layout_.cellAddr(Cell::ToHi),
            layout_.heapBBase + layout_.heapBytes);
    setWord(layout_.cellAddr(Cell::StackTop), layout_.stackTop);
    setWord(layout_.cellAddr(Cell::RootBase), layout_.rootBase);
    setWord(layout_.cellAddr(Cell::RootCount),
            static_cast<uint32_t>(rootCells_.size()));
    setWord(layout_.cellAddr(Cell::GcCount), 0);
    setWord(layout_.cellAddr(Cell::HeapUsed), 0);
    return std::move(mem_);
}

} // namespace mxl
