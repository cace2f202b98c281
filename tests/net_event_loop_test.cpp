// Tests for the net layer the exporter and the serving layer share: the
// EventLoop's registration bookkeeping and dispatch safety (a callback
// removing a registration, or reusing a closed fd's number, mid-dispatch),
// an epoll_create1 failure reported as an error, cross-thread stop() waking
// a parked loop, and a full Listener + Conn echo round trip on an accepted
// socket that carries TCP_NODELAY.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mvreju/net/conn.hpp"
#include "mvreju/net/event_loop.hpp"
#include "mvreju/net/listener.hpp"

namespace {

using namespace mvreju;

/// Blocking loopback client socket for driving the loop under test.
int connect_to(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    return fd;
}

TEST(NetEventLoopTest, RegistrationBookkeeping) {
    net::EventLoop loop;
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);

    // The self-pipe read end is pre-registered.
    const std::size_t baseline = loop.watched();
    EXPECT_TRUE(loop.add(pipe_fds[0], net::kReadable, [](std::uint32_t) {}));
    EXPECT_TRUE(loop.watching(pipe_fds[0]));
    EXPECT_EQ(loop.watched(), baseline + 1);

    // Double registration and bad arguments are rejected.
    EXPECT_FALSE(loop.add(pipe_fds[0], net::kReadable, [](std::uint32_t) {}));
    EXPECT_FALSE(loop.add(-1, net::kReadable, [](std::uint32_t) {}));
    EXPECT_FALSE(loop.add(pipe_fds[1], net::kReadable, nullptr));

    EXPECT_TRUE(loop.modify(pipe_fds[0], net::kReadable | net::kWritable));
    EXPECT_FALSE(loop.modify(pipe_fds[1], net::kReadable));  // never added

    loop.remove(pipe_fds[0]);
    EXPECT_FALSE(loop.watching(pipe_fds[0]));
    loop.remove(pipe_fds[0]);  // idempotent

    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
}

TEST(NetEventLoopTest, DispatchesReadableAndHonoursTimeout) {
    net::EventLoop loop;
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);
    int calls = 0;
    std::uint32_t seen = 0;
    ASSERT_TRUE(loop.add(pipe_fds[0], net::kReadable, [&](std::uint32_t ready) {
        ++calls;
        seen = ready;
        char sink[8];
        EXPECT_GT(::read(pipe_fds[0], sink, sizeof sink), 0);
    }));

    EXPECT_EQ(loop.poll_once(0), 0);  // nothing ready yet
    ASSERT_EQ(::write(pipe_fds[1], "x", 1), 1);
    EXPECT_GE(loop.poll_once(1000), 1);
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(seen & net::kReadable);

    ::close(pipe_fds[1]);
    ::close(pipe_fds[0]);
    loop.remove(pipe_fds[0]);
}

TEST(NetEventLoopTest, CallbackMayRemoveItselfDuringDispatch) {
    net::EventLoop loop;
    int a[2];
    int b[2];
    ASSERT_EQ(::pipe(a), 0);
    ASSERT_EQ(::pipe(b), 0);
    int calls = 0;
    // Both become readable in the same poll; the first callback removes the
    // *other* registration, which dispatch must re-validate before invoking.
    ASSERT_TRUE(loop.add(a[0], net::kReadable, [&](std::uint32_t) {
        ++calls;
        loop.remove(b[0]);
        loop.remove(a[0]);
    }));
    ASSERT_TRUE(loop.add(b[0], net::kReadable, [&](std::uint32_t) {
        ++calls;
        loop.remove(a[0]);
        loop.remove(b[0]);
    }));
    ASSERT_EQ(::write(a[1], "x", 1), 1);
    ASSERT_EQ(::write(b[1], "x", 1), 1);
    EXPECT_GE(loop.poll_once(1000), 1);
    EXPECT_EQ(calls, 1);  // exactly one fired; the other was unregistered
    for (int fd : {a[0], a[1], b[0], b[1]}) ::close(fd);
}

TEST(NetEventLoopTest, ReusedFdNumberIsNotDispatchedStaleReadiness) {
    net::EventLoop loop;
    int a[2];
    int b[2];
    int fresh[2];
    ASSERT_EQ(::pipe(a), 0);
    ASSERT_EQ(::pipe(b), 0);
    ASSERT_EQ(::pipe(fresh), 0);
    int original_calls = 0;
    int fresh_calls = 0;
    int reused = -1;
    // Both pipes become readable in the same poll. Whichever callback runs
    // first closes the other pipe's read end and registers the fresh pipe's
    // read end under that fd number (dup2 closes and reuses the number in one
    // step, as accept() handing out a just-closed number would). The
    // readiness captured for the closed pipe must not reach the newcomer.
    auto original = [&](int self, int other) {
        return [&, self, other](std::uint32_t) {
            ++original_calls;
            char sink[8];
            EXPECT_GT(::read(self, sink, sizeof sink), 0);
            if (reused >= 0) return;
            reused = other;
            loop.remove(other);
            ASSERT_EQ(::dup2(fresh[0], other), other);
            ASSERT_TRUE(
                loop.add(other, net::kReadable, [&](std::uint32_t) { ++fresh_calls; }));
        };
    };
    ASSERT_TRUE(loop.add(a[0], net::kReadable, original(a[0], b[0])));
    ASSERT_TRUE(loop.add(b[0], net::kReadable, original(b[0], a[0])));
    ASSERT_EQ(::write(a[1], "x", 1), 1);
    ASSERT_EQ(::write(b[1], "x", 1), 1);
    ASSERT_EQ(loop.poll_once(1000), 2);  // both ready in one dispatch
    EXPECT_EQ(original_calls, 1);
    ASSERT_GE(reused, 0);
    EXPECT_EQ(fresh_calls, 0);  // the stale readiness was not dispatched

    // The new registration still receives its own readiness.
    ASSERT_EQ(::write(fresh[1], "y", 1), 1);
    EXPECT_EQ(loop.poll_once(1000), 1);
    EXPECT_EQ(fresh_calls, 1);
    EXPECT_EQ(original_calls, 1);
    for (int fd : {a[0], a[1], b[0], b[1], fresh[0], fresh[1]}) ::close(fd);
}

TEST(NetEventLoopTest, EpollCreateFailureIsReported) {
    // With no fd numbers to hand out, epoll_create1 fails in the constructor.
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit none = saved;
    none.rlim_cur = 0;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &none), 0);
    net::EventLoop loop;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

    // The failure surfaces through add(), poll_once() and Listener::open;
    // nothing falls back to another readiness call.
    int pipe_fds[2];
    ASSERT_EQ(::pipe(pipe_fds), 0);
    EXPECT_FALSE(loop.add(pipe_fds[0], net::kReadable, [](std::uint32_t) {}));
    EXPECT_FALSE(loop.watching(pipe_fds[0]));
    EXPECT_EQ(loop.poll_once(0), -1);
    std::string error;
    EXPECT_EQ(net::Listener::open(loop, net::ListenerOptions{}, [](int) {}, &error),
              nullptr);
    EXPECT_EQ(error, "event loop refused the listening fd");
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
}

TEST(NetEventLoopTest, StopFromAnotherThreadWakesParkedLoop) {
    net::EventLoop loop;
    const auto start = std::chrono::steady_clock::now();
    std::thread stopper([&loop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        loop.stop();
    });
    loop.run(/*tick_ms=*/10000);  // would park ~10 s without the self-pipe
    stopper.join();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(),
              5000);
    EXPECT_TRUE(loop.stop_requested());
    loop.reset_stop();
    EXPECT_FALSE(loop.stop_requested());
}

TEST(NetEventLoopTest, ListenerConnEcho) {
    net::EventLoop loop;
    std::string error;
    auto listener = net::Listener::open(
        loop, net::ListenerOptions{},
        [&loop](int fd) {
            // Every accepted socket, the exporter's included, gets
            // TCP_NODELAY from the Listener.
            int nodelay = 0;
            socklen_t len = sizeof nodelay;
            EXPECT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
            EXPECT_EQ(nodelay, 1);
            auto conn = net::Conn::adopt(loop, fd, [](net::Conn& c) {
                // Echo and close once a full line arrived.
                if (c.rx().find('\n') == std::string::npos) return;
                c.send(c.rx());
                c.rx().clear();
                c.close_after_send();
            });
            ASSERT_NE(conn, nullptr);
        },
        &error);
    ASSERT_NE(listener, nullptr) << error;
    ASSERT_GT(listener->port(), 0);

    std::thread service([&loop] { loop.run(10); });
    const int fd = connect_to(listener->port());
    const std::string message = "ping over the event loop\n";
    ASSERT_EQ(::send(fd, message.data(), message.size(), 0),
              static_cast<ssize_t>(message.size()));
    std::string reply;
    char buf[256];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0) break;  // server closed after echoing
        reply.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(reply, message);
    ::close(fd);
    loop.stop();
    service.join();
}

TEST(NetEventLoopTest, ListenerRejectsBadOptions) {
    net::EventLoop loop;
    std::string error;
    net::ListenerOptions bad_host;
    bad_host.host = "not-an-address";
    EXPECT_EQ(net::Listener::open(loop, bad_host, [](int) {}, &error), nullptr);
    EXPECT_FALSE(error.empty());

    net::ListenerOptions bad_port;
    bad_port.port = -5;
    EXPECT_EQ(net::Listener::open(loop, bad_port, [](int) {}, &error), nullptr);
}

}  // namespace
