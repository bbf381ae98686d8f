#include "support/zeroed.h"

#include <sys/mman.h>
#include <cstdint>
#include <cstring>
#include <new>

namespace mxl {

namespace {

constexpr size_t kChunk = 4096;

bool
allZero(const unsigned char *p, size_t n)
{
    uint64_t acc = 0;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        std::memcpy(&w, p + i, 8);
        acc |= w;
    }
    for (; i < n; ++i)
        acc |= p[i];
    return acc == 0;
}

} // namespace

void *
zeroedAlloc(size_t bytes)
{
    if (bytes == 0)
        return nullptr;
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
}

void
zeroedFree(void *p, size_t bytes)
{
    if (!p)
        return;
    munmap(p, bytes);
}

void
copyNonzeroPages(void *dst, const void *src, size_t bytes)
{
    auto *d = static_cast<unsigned char *>(dst);
    const auto *s = static_cast<const unsigned char *>(src);
    for (size_t off = 0; off < bytes; off += kChunk) {
        size_t n = std::min(kChunk, bytes - off);
        if (!allZero(s + off, n))
            std::memcpy(d + off, s + off, n);
    }
}

} // namespace mxl
