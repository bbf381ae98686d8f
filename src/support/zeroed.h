/**
 * @file
 * Lazily zeroed storage: fixed-size arrays whose pages come straight
 * from the kernel, so constructing one writes nothing.
 *
 * Fresh anonymous pages already read as zero, and the kernel faults a
 * page in only when it is first touched. A 32 MiB simulated image of
 * which a run dirties a few hundred KiB therefore costs a few hundred
 * KiB, not a 32 MiB fill. The pages come from mmap/munmap and not
 * from calloc: once glibc has freed a large block it raises its mmap
 * threshold and serves later calloc()s of that size from the heap,
 * memset included.
 *
 * A copy is fresh storage holding only the source's pages that have a
 * nonzero byte: it costs one read pass over the source plus what the
 * source has written, and leaves the rest of the copy untouched.
 */

#ifndef MXLISP_SUPPORT_ZEROED_H_
#define MXLISP_SUPPORT_ZEROED_H_

#include <algorithm>
#include <cstddef>
#include <type_traits>
#include <utility>

namespace mxl {

/** @p bytes of zeroed, untouched storage (nullptr for 0); throws
 *  std::bad_alloc when the kernel refuses. */
void *zeroedAlloc(size_t bytes);

/** Release storage from zeroedAlloc(@p bytes). */
void zeroedFree(void *p, size_t bytes);

/**
 * Copy @p bytes from @p src to @p dst, which must read as zero, one
 * 4 KiB chunk at a time, skipping every chunk of @p src that is all
 * zero: the untouched pages of @p dst stay untouched.
 */
void copyNonzeroPages(void *dst, const void *src, size_t bytes);

/** A fixed-size, lazily zeroed array of trivially copyable @p T. */
template <class T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    ZeroedArray() = default;

    /** @p n elements, all zero. */
    explicit ZeroedArray(size_t n)
        : n_(n), p_(static_cast<T *>(zeroedAlloc(n * sizeof(T))))
    {}

    /** @p n elements: the first min(n, from.size()) are @p from's, the
     *  rest zero. */
    ZeroedArray(size_t n, const ZeroedArray &from) : ZeroedArray(n)
    {
        copyNonzeroPages(p_, from.p_, std::min(n, from.n_) * sizeof(T));
    }

    ZeroedArray(const ZeroedArray &o) : ZeroedArray(o.n_, o) {}

    ZeroedArray(ZeroedArray &&o) noexcept
        : n_(std::exchange(o.n_, 0)), p_(std::exchange(o.p_, nullptr))
    {}

    ZeroedArray &
    operator=(ZeroedArray o) noexcept
    {
        std::swap(n_, o.n_);
        std::swap(p_, o.p_);
        return *this;
    }

    ~ZeroedArray() { zeroedFree(p_, n_ * sizeof(T)); }

    size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    T *data() { return p_; }
    const T *data() const { return p_; }
    T &operator[](size_t i) { return p_[i]; }
    const T &operator[](size_t i) const { return p_[i]; }
    T *begin() { return p_; }
    T *end() { return p_ + n_; }
    const T *begin() const { return p_; }
    const T *end() const { return p_ + n_; }

  private:
    size_t n_ = 0;
    T *p_ = nullptr;
};

} // namespace mxl

#endif // MXLISP_SUPPORT_ZEROED_H_
