#include "machine/memory.h"

#include "support/format.h"
#include "support/panic.h"

namespace mxl {

Memory::Memory(uint32_t bytes) : words_((bytes + 3) / 4)
{
}

Memory::Memory(uint32_t bytes, const Memory &from)
    : words_((bytes + 3) / 4, from.words_)
{
}

uint32_t
Memory::load(uint32_t addr) const
{
    uint32_t idx = addr >> 2;
    if (idx >= words_.size())
        fatal("memory load out of bounds: ", hex32(addr));
    return words_[idx];
}

void
Memory::store(uint32_t addr, uint32_t w)
{
    uint32_t idx = addr >> 2;
    if (idx >= words_.size())
        fatal("memory store out of bounds: ", hex32(addr));
    words_[idx] = w;
}

uint32_t &
Memory::word(uint32_t index)
{
    MXL_ASSERT(index < words_.size(), "word index out of range");
    return words_[index];
}

uint32_t
Memory::word(uint32_t index) const
{
    MXL_ASSERT(index < words_.size(), "word index out of range");
    return words_[index];
}

} // namespace mxl
