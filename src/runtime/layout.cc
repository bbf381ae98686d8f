#include "runtime/layout.h"

#include <cstdint>

#include "support/panic.h"

namespace mxl {

RuntimeLayout
RuntimeLayout::compute(const CompilerOptions &opts)
{
    RuntimeLayout l;
    l.memBytes = opts.memBytes;
    l.staticBase = 0x100;
    l.cellBase = l.staticBase;
    uint32_t cellsEnd =
        l.cellBase + 4u * static_cast<uint32_t>(Cell::NumCells);
    l.rootBase = (cellsEnd + 7u) & ~7u;
    l.rootReserveWords = 64 * 1024; // up to 32k symbols' worth of roots
    l.staticLimit = opts.staticBytes;
    l.staticDataBase = l.rootBase + 4u * l.rootReserveWords;
    l.heapBytes = opts.heapBytes;
    l.stackTop = opts.memBytes & ~7u;

    // The regions are summed in 64 bits, so a layout past the 32-bit
    // address space fails here instead of wrapping into one that fits.
    // Memory rounds the image up to whole words, and its byte size is a
    // uint32_t too.
    const uint64_t heapABase = (uint64_t{l.staticLimit} + 7) & ~uint64_t{7};
    const uint64_t stackLimit = heapABase + 2 * uint64_t{l.heapBytes} + 4096;
    const uint64_t imageBytes = (uint64_t{opts.memBytes} + 3) & ~uint64_t{3};
    if (l.staticDataBase >= l.staticLimit || stackLimit >= l.stackTop ||
        imageBytes > UINT32_MAX)
        fatal("memory layout does not fit: mem=", opts.memBytes,
              " static=", opts.staticBytes, " heap=2x", opts.heapBytes);
    l.heapABase = static_cast<uint32_t>(heapABase);
    l.heapBBase = l.heapABase + l.heapBytes;
    l.stackLimit = static_cast<uint32_t>(stackLimit);
    return l;
}

} // namespace mxl
