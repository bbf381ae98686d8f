/**
 * @file
 * Stack frame model and lexical environment.
 *
 * The compiler uses a strict push/pop discipline: sp always points at
 * the last pushed word and every word in [sp, stackTop) is a tagged
 * value (return addresses are naturally fixnums). This is the GC-safety
 * invariant: the collector can scan the whole live stack without frame
 * maps. Variable bindings are identified by their push depth; the byte
 * offset from the current sp follows from the current depth.
 */

#ifndef MXLISP_COMPILER_FRAME_H_
#define MXLISP_COMPILER_FRAME_H_

#include <vector>

#include "sexpr/sexpr.h"

namespace mxl {

class FrameEnv
{
  public:
    /** Record one pushed word (not a named binding). */
    void push() { ++depth_; }

    /** Record @p n popped words. */
    void pop(int n = 1);

    /** Bind @p sym to the most recently pushed word. */
    void bind(Sx *sym);

    /** Bind @p sym to the word pushed when the frame depth became
     *  @p depth (parallel `let` binds after pushing all inits). */
    void bindAt(Sx *sym, int depth);

    /** Remove the last @p n bindings (their words must be popped too). */
    void unbind(int n);

    /**
     * Byte offset from the current sp of @p sym's slot, or -1 if the
     * symbol is not lexically bound (then it is a global).
     */
    int offsetOf(const Sx *sym) const;

    /** Words currently pushed in this frame. */
    int depth() const { return depth_; }

  private:
    struct Binding
    {
        Sx *sym;
        int depth; ///< frame depth just after this binding's push
    };

    int depth_ = 0;
    std::vector<Binding> bindings_;
};

} // namespace mxl

#endif // MXLISP_COMPILER_FRAME_H_
