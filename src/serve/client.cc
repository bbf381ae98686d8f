#include "serve/client.h"

#include "support/format.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <cerrno>
#include <cstring>

namespace mxl {

ServeClient::~ServeClient()
{
    close();
}

void
ServeClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    in_ = FrameReader();
}

bool
ServeClient::connectUnix(const std::string &path, std::string *err)
{
    close();
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path) {
        *err = strcat("unix socket path too long: ", path);
        return false;
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        *err = strcat("socket: ", std::strerror(errno));
        return false;
    }
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        *err = strcat("connect ", path, ": ", std::strerror(errno));
        close();
        return false;
    }
    return true;
}

bool
ServeClient::connectTcp(const std::string &host, int port,
                        std::string *err)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
        *err = strcat("socket: ", std::strerror(errno));
        return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        *err = strcat("bad address: ", host);
        close();
        return false;
    }
    if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        *err = strcat("connect ", host, ":", port, ": ",
                      std::strerror(errno));
        close();
        return false;
    }
    return true;
}

bool
ServeClient::sendPayload(const std::string &payload, std::string *err)
{
    if (fd_ < 0) {
        *err = "not connected";
        return false;
    }
    std::string frame = encodeFrame(payload);
    size_t off = 0;
    while (off < frame.size()) {
        ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            *err = strcat("send: ", std::strerror(errno));
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

bool
ServeClient::readFrame(Json *out, std::string *err)
{
    std::string payload;
    char buf[8192];
    for (;;) {
        if (in_.next(&payload)) {
            if (!Json::parse(payload, out)) {
                *err = "server sent malformed JSON";
                return false;
            }
            return true;
        }
        if (in_.error()) {
            *err = strcat("bad frame from server: ", in_.errorText());
            return false;
        }
        ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
        if (n == 0) {
            *err = "server closed the connection";
            return false;
        }
        if (n < 0) {
            if (errno == EINTR)
                continue;
            *err = strcat("recv: ", std::strerror(errno));
            return false;
        }
        in_.feed(buf, static_cast<size_t>(n));
    }
}

ServeClient::GridOutcome
ServeClient::runGrid(const std::string &requestId,
                     const std::vector<Json> &cells, int64_t deadlineMs,
                     const CellFn &onCell)
{
    GridOutcome out;
    out.traceId = makeTraceId();
    Json req = Json::object();
    req.set("type", "grid");
    req.set("id", requestId);
    req.set("traceId", out.traceId);
    if (deadlineMs > 0)
        req.set("deadlineMs", static_cast<uint64_t>(deadlineMs));
    Json arr = Json::array();
    for (const Json &c : cells)
        arr.push(c);
    req.set("cells", std::move(arr));
    std::string err;
    if (!sendPayload(req.dump(), &err)) {
        out.message = err;
        return out;
    }
    for (;;) {
        Json resp;
        if (!readFrame(&resp, &err)) {
            out.message = err;
            return out;
        }
        const Json *type = resp.find("type");
        std::string verb =
            type && type->isString() ? type->str() : std::string();
        if (verb == "cell") {
            const Json *idx = resp.find("index");
            const Json *report = resp.find("report");
            if (onCell && idx && report)
                onCell(static_cast<size_t>(idx->asUint(0)), *report);
            continue;
        }
        if (verb == "done") {
            out.kind = GridOutcome::Kind::Done;
            if (const Json *c = resp.find("cells"))
                out.cells = static_cast<size_t>(c->asUint(0));
            if (const Json *f = resp.find("failed"))
                out.failed = static_cast<size_t>(f->asUint(0));
            return out;
        }
        if (verb == "overloaded") {
            out.kind = GridOutcome::Kind::Overloaded;
            if (const Json *r = resp.find("retryAfterMs"))
                out.retryAfterMs = r->asInt(0);
            return out;
        }
        if (verb == "error") {
            out.kind = GridOutcome::Kind::Error;
            if (const Json *m = resp.find("message"))
                out.message = m->str();
            return out;
        }
        // Unrelated frame (e.g. stale health response): skip.
    }
}

bool
ServeClient::health(Json *out, std::string *err)
{
    if (!sendPayload("{\"type\":\"health\"}", err))
        return false;
    for (;;) {
        if (!readFrame(out, err))
            return false;
        const Json *type = out->find("type");
        if (type && type->isString() && type->str() == "health")
            return true;
    }
}

bool
ServeClient::ping(std::string *err)
{
    if (!sendPayload("{\"type\":\"ping\"}", err))
        return false;
    Json resp;
    for (;;) {
        if (!readFrame(&resp, err))
            return false;
        const Json *type = resp.find("type");
        if (type && type->isString() && type->str() == "pong")
            return true;
    }
}

} // namespace mxl
