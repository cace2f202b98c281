// End-to-end tests for serve::Server over real sockets: request/response
// round trips with echoed frame ids (in the reply and in the flight
// recorder's vote events), cross-stream batching of concurrent
// clients, a camera burst answered without waiting on the client's
// delayed ACK, even service across equal closed-loop connections,
// admission control beyond max_streams, the two load-shedding paths
// (hard-cap drops and degraded single-version replies), and clean stop
// with connections open.

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/obs/obs.hpp"
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

std::string random_request(util::Rng& rng, std::uint64_t frame_id,
                           const serve::ModelSet& set = shared_set()) {
    serve::RequestFrame request;
    request.frame_id = frame_id;
    request.image.resize(set.sample_size());
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

/// The global registry's value of counter `name` (0 before its first add).
std::uint64_t counter_value(const std::string& name) {
    for (const obs::CounterValue& counter : obs::metrics().snapshot().counters)
        if (counter.name == name) return counter.value;
    return 0;
}

double ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                     start)
        .count();
}

void set_nodelay(int fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
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

TEST(ServeServerTest, VoteEventsCarryTheClientFrameId) {
#ifdef MVREJU_OBS_DISABLED
    GTEST_SKIP() << "flight recorder compiled out";
#endif
    obs::FlightRecorder& recorder = obs::FlightRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);
    serve::Server server(shared_set(), fast_options());
    ASSERT_TRUE(server.start());
    const int fd = connect_to(server.port());
    util::Rng rng(23);
    for (const std::uint64_t frame : {1000u, 1001u}) {
        const std::string wire = random_request(rng, frame);
        ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
                  static_cast<ssize_t>(wire.size()));
        serve::ResponseFrame response;
        ASSERT_TRUE(recv_response(fd, response));
        EXPECT_EQ(response.frame_id, frame);
    }
    ::close(fd);
    server.stop();
    recorder.set_enabled(false);

    std::vector<std::uint64_t> vote_frames;
    for (const auto& thread : recorder.snapshot())
        for (const obs::EventRecord& e : thread.events)
            if (e.kind == obs::EventKind::vote_decided ||
                e.kind == obs::EventKind::vote_skipped ||
                e.kind == obs::EventKind::vote_no_output)
                vote_frames.push_back(e.frame);
    recorder.clear();
    std::sort(vote_frames.begin(), vote_frames.end());
    EXPECT_EQ(vote_frames, (std::vector<std::uint64_t>{1000, 1001}));
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

TEST(ServeServerTest, CameraBurstIsNotHeld) {
    // A 4-camera rig sends its frames in one send and waits for all four
    // answers. Like an ordinary RPC client it sets TCP_NODELAY on its own
    // socket and nothing else (no TCP_QUICKACK). Replies written one by one
    // on a Nagle socket would hold the 2nd to 4th behind the client's
    // delayed ACK (about 40 ms on Linux); one write per tick on a
    // TCP_NODELAY socket hands the burst over in one segment. The hold is
    // timed from each burst's 1st reply, so the inference before it (about
    // 1.5 ms here, over 100 ms under ThreadSanitizer) does not count.
    serve::Server server(shared_set(), fast_options());
    ASSERT_TRUE(server.start());
    const int fd = connect_to(server.port());
    set_nodelay(fd);
    util::Rng rng(25);
    constexpr int kBursts = 10;
    constexpr int kCameras = 4;
    const std::uint64_t writes_before = counter_value("serve.tx.writes");
    std::vector<double> held_ms;
    for (int burst = 0; burst < kBursts; ++burst) {
        std::string wire;
        for (int camera = 0; camera < kCameras; ++camera)
            wire += random_request(rng, static_cast<std::uint64_t>(burst * kCameras + camera));
        ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
                  static_cast<ssize_t>(wire.size()));
        std::chrono::steady_clock::time_point first;
        for (int camera = 0; camera < kCameras; ++camera) {
            serve::ResponseFrame response;
            ASSERT_TRUE(recv_response(fd, response));
            EXPECT_NE(response.status, serve::ResponseStatus::error);
            if (camera == 0) first = std::chrono::steady_clock::now();
        }
        held_ms.push_back(ms_since(first));
    }
    ::close(fd);
    server.stop();  // joins the service thread: every write is counted

    std::sort(held_ms.begin(), held_ms.end());
    const double median_ms = (held_ms[kBursts / 2 - 1] + held_ms[kBursts / 2]) / 2.0;
    EXPECT_LT(median_ms, 15.0) << "longest hold " << held_ms.back() << " ms";
    if (obs::enabled()) {
        // Each burst needs at least one write, and one is enough.
        const std::uint64_t writes = counter_value("serve.tx.writes") - writes_before;
        EXPECT_GE(writes, static_cast<std::uint64_t>(kBursts));
        EXPECT_LE(writes, static_cast<std::uint64_t>(kBursts));
    }
}

TEST(ServeServerTest, ServesEqualConnectionsEvenly) {
    // Four equal closed-loop clients, each keeping 32 frames in flight, for
    // about 2 s: together twice batch_max, so every flush is full and the
    // connections compete for places in it. Each client answers a reply by
    // sending its next frame at once, on a TCP_NODELAY socket. The fewest
    // answered over the most read 0.976-0.993 on an idle 4-vCPU host and
    // 0.950-1.0 under a concurrent ctest; with replies written one by one,
    // 0.884-0.971. The band guards against a connection falling well
    // behind; a band between those ranges would flake on a loaded host.
    constexpr int kConnections = 4;
    constexpr int kInFlight = 32;
    constexpr double kWindowMs = 2000.0;
    // 8x8 inputs keep inference cheap: a release build answers about 150
    // windows per connection in 2 s, so the ratio resolves to about 1%.
    static const serve::ModelSet small_set = [] {
        serve::ModelSetConfig config;
        config.side = 8;
        return serve::make_model_set(config);
    }();
    serve::Server::Options options;  // batch_max 64, 2 ms deadline: flushes fill
    options.slo_budget_ms = 1e9;     // no shedding: every frame runs all versions
    serve::Server server(small_set, options);
    ASSERT_TRUE(server.start());
    util::Rng rng(26);
    std::vector<std::string> pool;
    for (int i = 0; i < 16; ++i)
        pool.push_back(random_request(rng, static_cast<std::uint64_t>(i), small_set));

    struct Peer {
        int fd = -1;
        std::string tx, rx;
        std::size_t sent = 0, answered = 0;
    };
    std::vector<Peer> peers(kConnections);
    const auto flush = [](Peer& peer) {
        while (!peer.tx.empty()) {
            const ssize_t n = ::send(peer.fd, peer.tx.data(), peer.tx.size(), MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) return;
            peer.tx.erase(0, static_cast<std::size_t>(n));
        }
    };
    const auto send_frame = [&](Peer& peer) {
        peer.tx += pool[peer.sent++ % pool.size()];
        flush(peer);
    };
    for (Peer& peer : peers) {
        peer.fd = connect_to(server.port());
        set_nodelay(peer.fd);
        ::fcntl(peer.fd, F_SETFL, ::fcntl(peer.fd, F_GETFL) | O_NONBLOCK);
    }
    for (Peer& peer : peers)
        for (int i = 0; i < kInFlight; ++i) send_frame(peer);

    const auto start = std::chrono::steady_clock::now();
    std::vector<pollfd> fds(kConnections);
    for (int round = 0; ms_since(start) < kWindowMs; ++round) {
        for (int c = 0; c < kConnections; ++c) {
            fds[c] = pollfd{peers[c].fd,
                            static_cast<short>(POLLIN | (peers[c].tx.empty() ? 0 : POLLOUT)),
                            0};
        }
        if (::poll(fds.data(), fds.size(), 50) < 0 && errno != EINTR) FAIL() << "poll";
        // Rotate which connection answers first, so the client itself
        // favours none of them when it falls behind.
        for (int k = 0; k < kConnections; ++k) {
            const int c = (round + k) % kConnections;
            Peer& peer = peers[c];
            if (fds[c].revents & POLLOUT) flush(peer);
            if (!(fds[c].revents & (POLLIN | POLLERR | POLLHUP))) continue;
            char buf[65536];
            const ssize_t n = ::recv(peer.fd, buf, sizeof buf, 0);
            if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
            ASSERT_GT(n, 0) << "server closed connection " << c;
            peer.rx.append(buf, static_cast<std::size_t>(n));
            std::size_t pos = 0;
            while (peer.rx.size() - pos >= 4) {
                const auto* p = reinterpret_cast<const unsigned char*>(peer.rx.data() + pos);
                const std::size_t length = p[0] | (p[1] << 8) | (p[2] << 16) |
                                           (static_cast<std::size_t>(p[3]) << 24);
                if (peer.rx.size() - pos < 4 + length) break;
                serve::ResponseFrame response;
                ASSERT_TRUE(serve::decode_response(peer.rx.data() + pos + 4, length, response));
                EXPECT_NE(response.status, serve::ResponseStatus::error);
                pos += 4 + length;
                ++peer.answered;
                send_frame(peer);
            }
            peer.rx.erase(0, pos);
        }
    }
    for (const Peer& peer : peers) ::close(peer.fd);
    server.stop();

    std::size_t fewest = peers[0].answered, most = peers[0].answered, total = 0;
    std::string counts;
    for (const Peer& peer : peers) {
        fewest = std::min(fewest, peer.answered);
        most = std::max(most, peer.answered);
        total += peer.answered;
        counts.append(" ").append(std::to_string(peer.answered));
    }
    // Service moves in whole windows of kInFlight replies, so a band of 0.90
    // needs about 20 windows per connection to mean anything. A release
    // build answers over 100; sanitizer builds answer 1 to 13 in the window.
    if (total < static_cast<std::size_t>(kConnections * 20 * kInFlight))
        GTEST_SKIP() << "answered per connection:" << counts
                     << "; too few windows to resolve the band";
    const double evenness = static_cast<double>(fewest) / static_cast<double>(most);
    std::printf("answered per connection:%s; min/max %.3f\n", counts.c_str(), evenness);
    EXPECT_GE(evenness, 0.90) << "answered per connection:" << counts;
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
