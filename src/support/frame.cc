#include "support/frame.h"

#include <cctype>

#include "support/format.h"

namespace mxl {

std::string
encodeFrame(const std::string &payload)
{
    std::string out = std::to_string(payload.size());
    out += '\n';
    out += payload;
    out += '\n';
    return out;
}

std::string
encodeFrame(const Json &j)
{
    return encodeFrame(j.dump());
}

void
FrameReader::feed(const char *data, size_t n)
{
    if (error_)
        return;
    buf_.append(data, n);
}

bool
FrameReader::next(std::string *payload)
{
    if (error_)
        return false;
    // <digits>'\n'<len bytes>'\n'
    size_t nl = buf_.find('\n');
    if (nl == std::string::npos) {
        if (buf_.size() > 32) {
            error_ = true;
            errorText_ = "frame length prefix is not a number";
        }
        return false;
    }
    if (nl == 0 || nl > 20) {
        error_ = true;
        errorText_ = "frame length prefix is not a number";
        return false;
    }
    size_t len = 0;
    for (size_t i = 0; i < nl; ++i) {
        char c = buf_[i];
        if (!std::isdigit(static_cast<unsigned char>(c))) {
            error_ = true;
            errorText_ = "frame length prefix is not a number";
            return false;
        }
        len = len * 10 + static_cast<size_t>(c - '0');
        // Checked per digit, so the value is rejected before 20
        // digits can wrap size_t into a small length.
        if (len > kMaxFrameBytes) {
            error_ = true;
            errorText_ = strcat("frame length ", buf_.substr(0, nl),
                                " exceeds the ", kMaxFrameBytes,
                                "-byte limit");
            return false;
        }
    }
    if (buf_.size() < nl + 1 + len + 1)
        return false; // incomplete; wait for more bytes
    if (buf_[nl + 1 + len] != '\n') {
        error_ = true;
        errorText_ = "frame payload is not newline-terminated";
        return false;
    }
    payload->assign(buf_, nl + 1, len);
    buf_.erase(0, nl + 1 + len + 1);
    return true;
}

} // namespace mxl
