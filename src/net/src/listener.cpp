#include "mvreju/net/listener.hpp"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

namespace mvreju::net {

namespace {

void set_nonblocking(int fd) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

}  // namespace

std::unique_ptr<Listener> Listener::open(EventLoop& loop, const ListenerOptions& options,
                                         AcceptFn on_accept, std::string* error) {
    auto fail = [&](const std::string& why) -> std::unique_ptr<Listener> {
        if (error) *error = why;
        return nullptr;
    };
    if (!on_accept) return fail("no accept callback");
    if (options.port < 0 || options.port > 65535)
        return fail("bad port " + std::to_string(options.port));
    if (options.backlog < 1)
        return fail("bad backlog " + std::to_string(options.backlog));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options.port));
    if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1)
        return fail("bad IPv4 address '" + options.host + "'");

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return fail(std::string("socket(): ") + std::strerror(errno));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, options.backlog) != 0) {
        const std::string why = "cannot bind " + options.host + ":" +
                                std::to_string(options.port) + ": " +
                                std::strerror(errno);
        ::close(fd);
        return fail(why);
    }
    set_nonblocking(fd);

    int bound_port = options.port;
    socklen_t addr_len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) == 0)
        bound_port = ntohs(addr.sin_port);

    auto listener = std::unique_ptr<Listener>(
        new Listener(loop, fd, bound_port, std::move(on_accept)));
    if (!loop.add(fd, kReadable,
                  [raw = listener.get()](std::uint32_t) { raw->on_readable(); })) {
        return fail("event loop refused the listening fd");
    }
    return listener;
}

Listener::Listener(EventLoop& loop, int fd, int port, AcceptFn on_accept)
    : loop_(loop), fd_(fd), port_(port), on_accept_(std::move(on_accept)) {}

Listener::~Listener() {
    loop_.remove(fd_);
    ::close(fd_);
}

void Listener::on_readable() {
    // Accept everything queued: with edge-ish readiness semantics one event
    // may announce several pending connections.
    for (;;) {
        const int client = ::accept(fd_, nullptr, nullptr);
        if (client < 0) {
            // Same EINTR discipline as Conn's send/recv paths: a signal
            // (SIGPROF from the sampling profiler most likely — accept() is
            // not restarted by SA_RESTART on all kernels) must not end the
            // drain early, or connections already queued behind the
            // interrupted call would wait for a wakeup that never comes.
            if (errno == EINTR) continue;
            return;  // EAGAIN/EWOULDBLOCK or transient error
        }
        set_nonblocking(client);
        // No Nagle: a reply written while an earlier segment is unacked
        // would otherwise wait for the peer's (possibly delayed) ACK.
        const int one = 1;
        ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        on_accept_(client);
    }
}

}  // namespace mvreju::net
