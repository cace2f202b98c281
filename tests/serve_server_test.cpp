// End-to-end tests for serve::Server over real sockets: request/response
// round trips with echoed frame ids, cross-stream batching of concurrent
// clients, admission control beyond max_streams, the two load-shedding
// paths (hard-cap drops and degraded single-version replies), and clean
// stop with connections open.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mvreju/serve/protocol.hpp"
#include "mvreju/serve/server.hpp"
#include "mvreju/serve/session.hpp"
#include "mvreju/util/rng.hpp"

namespace {

using namespace mvreju;

const serve::ModelSet& shared_set() {
    static const serve::ModelSet set = serve::make_model_set();
    return set;
}

int connect_to(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    return fd;
}

/// Read exactly `n` bytes; false on timeout or close.
bool recv_exact(int fd, unsigned char* out, std::size_t n) {
    while (n > 0) {
        const ssize_t got = ::recv(fd, out, n, 0);
        if (got <= 0) return false;
        out += got;
        n -= static_cast<std::size_t>(got);
    }
    return true;
}

/// Receive exactly one length-prefixed response frame, leaving any later
/// frame on the socket.
bool recv_response(int fd, serve::ResponseFrame& response) {
    unsigned char prefix[4];
    if (!recv_exact(fd, prefix, sizeof prefix)) return false;
    const std::size_t length = prefix[0] | (prefix[1] << 8) | (prefix[2] << 16) |
                               (static_cast<std::size_t>(prefix[3]) << 24);
    std::vector<unsigned char> payload(length);
    return recv_exact(fd, payload.data(), length) &&
           serve::decode_response(reinterpret_cast<const char*>(payload.data()),
                                  length, response);
}

std::string random_request(util::Rng& rng, std::uint64_t frame_id) {
    serve::RequestFrame request;
    request.frame_id = frame_id;
    request.image.resize(shared_set().sample_size());
    for (float& v : request.image) v = static_cast<float>(rng.uniform());
    return serve::encode_request(request);
}

serve::Server::Options fast_options() {
    serve::Server::Options options;
    options.batch_delay_us = 500;
    options.tick_ms = 2;
    options.slo_budget_ms = 1e9;  // no shedding noise in functional tests
    return options;
}

TEST(ServeServerTest, AnswersRequestsWithEchoedIds) {
    serve::Server server(shared_set(), fast_options());
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    ASSERT_GT(server.port(), 0);

    const int fd = connect_to(server.port());
    util::Rng rng(21);
    for (std::uint64_t frame = 1; frame <= 10; ++frame) {
        serve::RequestFrame request;
        request.frame_id = frame * 100;
        request.image.resize(shared_set().sample_size());
        for (float& v : request.image) v = static_cast<float>(rng.uniform());
        const std::string wire = serve::encode_request(request);
        ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
                  static_cast<ssize_t>(wire.size()));
        serve::ResponseFrame response;
        ASSERT_TRUE(recv_response(fd, response));
        EXPECT_EQ(response.frame_id, frame * 100);
        // With a fresh health process every version is functional: the vote
        // either decides or (rarely) safely skips; it never errors.
        EXPECT_TRUE(response.status == serve::ResponseStatus::decided ||
                    response.status == serve::ResponseStatus::skipped);
        EXPECT_FALSE(response.degraded);
        EXPECT_GT(response.functional_modules, 0u);
        if (response.status == serve::ResponseStatus::decided) {
            EXPECT_GE(response.label, 0);
            EXPECT_GE(response.agreeing, 1);
        }
    }
    ::close(fd);

    const serve::Server::Stats stats = server.stats();
    EXPECT_EQ(stats.frames, 10u);
    EXPECT_EQ(stats.decided + stats.skipped + stats.no_output, 10u);
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(ServeServerTest, BatchesAcrossConcurrentStreams) {
    serve::Server::Options options = fast_options();
    options.batch_max = 8;
    options.batch_delay_us = 20000;  // wide window: coalesce the burst
    serve::Server server(shared_set(), options);
    ASSERT_TRUE(server.start());

    // A burst of clients all in flight at once; every stream must get its
    // own answer even though their inferences share batches.
    constexpr int kStreams = 12;
    std::vector<int> fds;
    util::Rng rng(22);
    for (int s = 0; s < kStreams; ++s) fds.push_back(connect_to(server.port()));
    for (int s = 0; s < kStreams; ++s) {
        serve::RequestFrame request;
        request.frame_id = static_cast<std::uint64_t>(s);
        request.image.resize(shared_set().sample_size());
        for (float& v : request.image) v = static_cast<float>(rng.uniform());
        const std::string wire = serve::encode_request(request);
        ASSERT_EQ(::send(fds[static_cast<std::size_t>(s)], wire.data(), wire.size(), 0),
                  static_cast<ssize_t>(wire.size()));
    }
    for (int s = 0; s < kStreams; ++s) {
        serve::ResponseFrame response;
        ASSERT_TRUE(recv_response(fds[static_cast<std::size_t>(s)], response));
        EXPECT_EQ(response.frame_id, static_cast<std::uint64_t>(s));
        EXPECT_NE(response.status, serve::ResponseStatus::error);
    }
    for (const int fd : fds) ::close(fd);

    const serve::Server::Stats stats = server.stats();
    EXPECT_EQ(stats.frames, static_cast<std::uint64_t>(kStreams));
    EXPECT_EQ(stats.connections, static_cast<std::uint64_t>(kStreams));
    server.stop();
}

TEST(ServeServerTest, RefusesStreamsBeyondMaxStreams) {
    serve::Server::Options options = fast_options();
    options.max_streams = 2;
    serve::Server server(shared_set(), options);
    ASSERT_TRUE(server.start());

    const int first = connect_to(server.port());
    const int second = connect_to(server.port());
    // Nudge the loop so both accepts land before the third connection.
    serve::RequestFrame request;
    request.frame_id = 1;
    request.image.assign(shared_set().sample_size(), 0.25f);
    const std::string wire = serve::encode_request(request);
    ASSERT_EQ(::send(first, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    serve::ResponseFrame response;
    ASSERT_TRUE(recv_response(first, response));

    const int third = connect_to(server.port());
    serve::ResponseFrame refusal;
    ASSERT_TRUE(recv_response(third, refusal));
    EXPECT_EQ(refusal.status, serve::ResponseStatus::error);
    // The refused connection is then closed by the server.
    char buf[16];
    EXPECT_EQ(::recv(third, buf, sizeof buf, 0), 0);

    // Existing streams keep working.
    ASSERT_EQ(::send(second, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    ASSERT_TRUE(recv_response(second, response));
    EXPECT_NE(response.status, serve::ResponseStatus::error);

    EXPECT_GE(server.stats().admission_refusals, 1u);
    for (const int fd : {first, second, third}) ::close(fd);
    server.stop();
}

TEST(ServeServerTest, DropsFramesBeyondMaxInflight) {
    // The first frame waits out a long batch deadline; the second arrives
    // while it is still staged, finds the one inflight slot taken, and is
    // answered `shed` at once without running inference.
    serve::Server::Options options = fast_options();
    options.max_inflight = 1;
    options.batch_delay_us = 300'000;
    serve::Server server(shared_set(), options);
    ASSERT_TRUE(server.start());

    const int fd = connect_to(server.port());
    util::Rng rng(23);
    const std::string wire = random_request(rng, 1) + random_request(rng, 2);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    for (int i = 0; i < 2; ++i) {
        serve::ResponseFrame response;
        ASSERT_TRUE(recv_response(fd, response));
        if (response.frame_id == 2) {
            EXPECT_EQ(response.status, serve::ResponseStatus::shed);
        } else {
            EXPECT_EQ(response.frame_id, 1u);
            EXPECT_TRUE(response.status == serve::ResponseStatus::decided ||
                        response.status == serve::ResponseStatus::skipped);
        }
        EXPECT_FALSE(response.degraded);
    }
    ::close(fd);

    const serve::Server::Stats stats = server.stats();
    EXPECT_EQ(stats.frames, 2u);
    EXPECT_EQ(stats.dropped, 1u);
    server.stop();
}

TEST(ServeServerTest, DegradesOnceTheOverloadControllerLatches) {
    // Every frame waits at least batch_delay_us for its deadline flush, so
    // every frame breaches a 1 ns budget. A window of 4 latches after two
    // breaches (half a window of evidence); from the third frame on, the
    // server answers from the primary version alone, flagged degraded.
    serve::Server::Options options = fast_options();
    options.slo_budget_ms = 1e-6;
    options.overload.window = 4;
    serve::Server server(shared_set(), options);
    ASSERT_TRUE(server.start());

    const int fd = connect_to(server.port());
    util::Rng rng(24);
    constexpr std::uint64_t kFrames = 6;
    for (std::uint64_t frame = 1; frame <= kFrames; ++frame) {
        const std::string wire = random_request(rng, frame);
        ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
                  static_cast<ssize_t>(wire.size()));
        serve::ResponseFrame response;
        ASSERT_TRUE(recv_response(fd, response));
        EXPECT_EQ(response.frame_id, frame);
        EXPECT_NE(response.status, serve::ResponseStatus::error);
        EXPECT_NE(response.status, serve::ResponseStatus::shed);
        EXPECT_EQ(response.degraded, frame > 2) << "frame " << frame;
    }
    ::close(fd);

    const serve::Server::Stats stats = server.stats();
    EXPECT_GT(stats.degraded, 0u);
    EXPECT_EQ(stats.degraded, kFrames - 2);
    EXPECT_EQ(stats.slo_breaches, kFrames);
    EXPECT_EQ(stats.dropped, 0u);
    server.stop();
}

TEST(ServeServerTest, StopsCleanlyWithConnectionsOpen) {
    serve::Server server(shared_set(), fast_options());
    ASSERT_TRUE(server.start());
    const int port = server.port();
    const int fd = connect_to(port);
    serve::RequestFrame request;
    request.frame_id = 7;
    request.image.assign(shared_set().sample_size(), 0.1f);
    const std::string wire = serve::encode_request(request);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    serve::ResponseFrame response;
    ASSERT_TRUE(recv_response(fd, response));

    server.stop();  // with the client still connected
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.port(), 0);
    ::close(fd);

    // And start() works again after a stop (fresh socket, fresh loop).
    ASSERT_TRUE(server.start());
    EXPECT_GT(server.port(), 0);
    server.stop();
}

}  // namespace
