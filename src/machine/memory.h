/**
 * @file
 * Simulated data memory: a flat, word-aligned 32-bit address space.
 *
 * Like MIPS-X, memory is word-addressed: the bottom two bits of every
 * effective address are dropped before the access (this is what makes
 * 2-bit low tags free, §5.2).
 *
 * Out-of-range accesses are deterministic, never UB: load()/store()
 * beyond the image raise fatal() (an MxlError), and callers that need a
 * non-throwing path — the Machine turns a wild access into a
 * StopReason::IllegalAccess stop — probe with inBounds() first.
 *
 * The words are lazily zeroed storage (support/zeroed.h): building an
 * image writes nothing, a page costs host memory only once something
 * touches it, and a copy carries only the source's nonzero pages. A
 * run of the default 32 MiB image dirties a few hundred KiB of it (the
 * static area, the heap it allocates, the stack it uses), so images
 * are cheap to make per compile and per run.
 */

#ifndef MXLISP_MACHINE_MEMORY_H_
#define MXLISP_MACHINE_MEMORY_H_

#include <cstdint>
#include <span>

#include "support/zeroed.h"

namespace mxl {

class Memory
{
  public:
    /** An all-zero image of @p bytes (rounded up to whole words). */
    explicit Memory(uint32_t bytes);

    /** An image of @p bytes whose leading words are @p from's (as many
     *  as fit) and whose remaining words are zero. */
    Memory(uint32_t bytes, const Memory &from);

    /** Size in bytes. */
    uint32_t size() const { return static_cast<uint32_t>(words_.size()) * 4; }

    /** True if byte address @p addr falls inside the image. */
    bool
    inBounds(uint32_t addr) const
    {
        return (addr >> 2) < words_.size();
    }

    /** Load the word at byte address @p addr (bottom 2 bits dropped).
     *  fatal() when out of range. */
    uint32_t load(uint32_t addr) const;

    /** Store @p w at byte address @p addr (bottom 2 bits dropped).
     *  fatal() when out of range. */
    void store(uint32_t addr, uint32_t w);

    /** Direct word access for image building and tests. */
    uint32_t &word(uint32_t index);
    uint32_t word(uint32_t index) const;

    /** The whole image, word-indexed, in place (the pause hook's view
     *  of a live run; core/run.h). */
    std::span<uint32_t> words() { return {words_.data(), words_.size()}; }

  private:
    ZeroedArray<uint32_t> words_;
};

} // namespace mxl

#endif // MXLISP_MACHINE_MEMORY_H_
