#pragma once

// Listening TCP socket on an EventLoop: binds, listens, and invokes an
// accept callback with each new connection fd, already non-blocking and
// with TCP_NODELAY set. The Listener owns the listening fd; accepted fds
// belong to the callback (typically wrapped in a net::Conn immediately).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "mvreju/net/event_loop.hpp"

namespace mvreju::net {

struct ListenerOptions {
    std::string host = "127.0.0.1";  ///< dotted-quad IPv4 address to bind
    int port = 0;                    ///< 0 picks an ephemeral port
    int backlog = 16;                ///< listen(2) queue depth
};

class Listener {
public:
    /// Called once per accepted connection with a non-blocking,
    /// TCP_NODELAY fd.
    using AcceptFn = std::function<void(int fd)>;

    /// Bind + listen + register with `loop`. Returns nullptr on failure and,
    /// when `error` is non-null, a human-readable reason.
    [[nodiscard]] static std::unique_ptr<Listener> open(EventLoop& loop,
                                                        const ListenerOptions& options,
                                                        AcceptFn on_accept,
                                                        std::string* error = nullptr);

    ~Listener();
    Listener(const Listener&) = delete;
    Listener& operator=(const Listener&) = delete;

    /// The actually bound port (resolves an ephemeral request).
    [[nodiscard]] int port() const noexcept { return port_; }
    [[nodiscard]] int fd() const noexcept { return fd_; }

private:
    Listener(EventLoop& loop, int fd, int port, AcceptFn on_accept);
    void on_readable();

    EventLoop& loop_;
    int fd_;
    int port_;
    AcceptFn on_accept_;
};

}  // namespace mvreju::net
