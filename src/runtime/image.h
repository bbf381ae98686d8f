/**
 * @file
 * Builds the initial data-memory image: symbol blocks, interned strings,
 * quoted constants, runtime cells, and the GC root list.
 *
 * Static data is immutable at the Lisp level except for symbol cells
 * (value/plist/function), which are exactly the cells registered in the
 * GC root list. Quoted constants therefore never point into the heap
 * and the collector neither moves nor scans them.
 */

#ifndef MXLISP_RUNTIME_IMAGE_H_
#define MXLISP_RUNTIME_IMAGE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "machine/memory.h"
#include "runtime/layout.h"
#include "sexpr/sexpr.h"
#include "tags/tag_scheme.h"

namespace mxl {

class ImageBuilder
{
  public:
    ImageBuilder(const RuntimeLayout &layout, const TagScheme &scheme);

    /** Allocate @p bytes of static space aligned to @p align. */
    uint32_t allocStatic(uint32_t bytes, uint32_t align);

    /** Write a raw word at byte address @p addr, which must lie in
     *  the static area [0, layout.staticLimit): nothing a compile
     *  writes lands above it, so the image's live prefix ends there. */
    void setWord(uint32_t addr, uint32_t w);
    uint32_t getWord(uint32_t addr) const;

    /** Intern @p name; returns the symbol block's byte address. */
    uint32_t symbolAddr(const std::string &name);

    /** Tagged word for the symbol @p name. */
    uint32_t symbolWord(const std::string &name);

    /** Tagged word for an interned static string. */
    uint32_t stringWord(const std::string &s);

    /** Tagged word for a quoted constant (builds static structure). */
    uint32_t constWord(const Sx *form);

    /** Number of interned symbols so far. */
    int numSymbols() const { return static_cast<int>(symbols_.size()); }

    /** Write runtime cells and the root list; then hand over the
     *  image (the builder is spent). */
    Memory finalize();

    const RuntimeLayout &layout() const { return layout_; }
    const TagScheme &scheme() const { return scheme_; }

  private:
    const RuntimeLayout &layout_;
    const TagScheme &scheme_;
    Memory mem_; ///< the image itself, built in place
    uint32_t allocPtr_;
    std::unordered_map<std::string, uint32_t> symbols_;   // name -> addr
    std::unordered_map<std::string, uint32_t> strings_;   // text -> word
    std::unordered_map<const Sx *, uint32_t> consts_;     // node -> word
    std::vector<uint32_t> rootCells_;  // addresses of GC root cells
};

} // namespace mxl

#endif // MXLISP_RUNTIME_IMAGE_H_
