/**
 * @file
 * Length-prefixed frames: the one byte-stream codec of the process
 * pool (support/procpool.h) and the measurement service
 * (serve/wire.h). Every message on a worker channel or a client
 * socket is one frame:
 *
 *     <decimal byte length of payload> '\n' <payload> '\n'
 *
 * where the payload is a single-line JSON object (the compact dump,
 * support/json.h). The explicit length keeps framing robust against
 * payloads of any size and lets a reader reject runaway input before
 * buffering it; the trailing newline keeps captured streams greppable
 * and JSONL-toolable.
 */

#ifndef MXLISP_SUPPORT_FRAME_H_
#define MXLISP_SUPPORT_FRAME_H_

#include <cstddef>
#include <string>

#include "support/json.h"

namespace mxl {

/** Frames larger than this are a protocol error (runaway guard). */
inline constexpr size_t kMaxFrameBytes = 64u << 20;

/** Encode @p payload as one frame. */
std::string encodeFrame(const std::string &payload);

/** Json convenience: encodeFrame(j.dump()). */
std::string encodeFrame(const Json &j);

/**
 * Incremental frame decoder. Feed raw bytes; next() yields complete
 * payloads in arrival order. A malformed prefix (non-digit length,
 * oversized frame, missing terminator) poisons the reader — error()
 * stays set and next() returns false forever; the connection owning
 * the stream must be dropped.
 */
class FrameReader
{
  public:
    void feed(const char *data, size_t n);
    void feed(const std::string &s) { feed(s.data(), s.size()); }

    /** Pop the next complete payload; false when none (or error). */
    bool next(std::string *payload);

    bool error() const { return error_; }
    const std::string &errorText() const { return errorText_; }

    /** Bytes buffered but not yet consumed (tests). */
    size_t pendingBytes() const { return buf_.size(); }

  private:
    std::string buf_;
    bool error_ = false;
    std::string errorText_;
};

} // namespace mxl

#endif // MXLISP_SUPPORT_FRAME_H_
