// serve_camera and serve_saturate: serve::Server over loopback TCP, driven
// by a one-thread load generator speaking the stream_client wire format.
//
// Thread budget (nproc capped at 4, so at most 4 connections and one
// generator thread): the generator thread, the server's service thread,
// and infer_threads = 1, so the service thread runs every flush itself.
// A flush fanned out over more threads is a fork-join per batch; on a
// shared 4-vCPU VM one descheduled vCPU stalls the whole batch, and
// closed-loop throughput swung between 4.5k and 9.8k frames/s over ten
// runs, against +-5% with one inference thread.
//
// Client sockets behave like an ordinary latency-sensitive RPC client:
// TCP_NODELAY on its own sends and nothing else. In particular no
// TCP_QUICKACK: the server's accepted sockets run Nagle's algorithm, so the
// later responses of a camera burst wait for the client's next ACK, and
// that stall must stay visible (it shows as net.unattributed_us).

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>
#include <fcntl.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "mvreju/serve/protocol.hpp"
#include "mvreju/serve/server.hpp"
#include "mvreju/serve/session.hpp"
#include "mvreju/util/rng.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace serve = mvreju::serve;
namespace ml = mvreju::ml;

namespace {

constexpr int kCameraConnections = 4;       // open loop: one per vehicle
constexpr int kCamerasPerRig = 4;           // frames per open-loop burst
constexpr double kCameraPeriodUs = 1e6 / 30.0;
// Closed loop: one replay connection keeping twice batch_max in flight, so
// a full batch is always waiting when a flush ends and every flush is full.
// With 4 connections (x 16 or x 32 frames) the p99 moved by up to a third
// of its median between runs; perfbench/README.md has the measurements.
constexpr int kReplayConnections = 1;
constexpr int kInFlight = 128;
constexpr std::size_t kPool = 256;          // distinct seeded input frames
constexpr double kWarmupUs = 1e6;
constexpr double kDrainTimeoutUs = 5e6;
constexpr int kSetupRepeats = 51;

/// A frame in flight. The generator keeps per-frame state only until the
/// answer arrives and folds it into the Tally, so the benchmark's own
/// memory does not grow with the server's throughput (peak_rss_mb).
struct Pending {
    double base_us = 0.0;  ///< latency origin: due time (open) / send start (closed)
    double send_start_us = 0.0;
    double send_end_us = 0.0;
    std::uint32_t image = 0;
    int phase = 0;  ///< 0 warm-up, 1 timed, 2 timed + traced
};

/// What the run measured and checked, folded response by response.
struct Tally {
    std::size_t sent = 0;
    std::size_t failed = 0;         ///< shed, degraded, error or unanswered
    std::size_t unanswered = 0;
    std::size_t unexpected = 0;     ///< duplicate answers and unknown ids
    std::size_t malformed = 0;
    std::size_t errors = 0;
    std::size_t not_producible = 0;
    std::vector<float> latency_ms[3];  ///< by phase, in completion order
    std::vector<float> lag_us;         ///< timed frames: send start - due time
    std::size_t answered_in_window = 0;
    double last_answer_us = 0.0;      ///< latest answer to a phase-1 frame
    // Traced half: stage annex and the client-side remainder.
    std::vector<std::array<std::uint32_t, serve::kStageCount>> stages;
    std::vector<float> unattributed_us, covered, send_us, recv_us;
    std::size_t traced_answered = 0, traced_skipped = 0, traced_degraded = 0;
};

struct Client {
    int fd = -1;
    std::string rx;
    std::string tx;
    std::vector<std::pair<std::uint64_t, std::size_t>> unsent;  ///< (seq, tx end offset)
    std::unordered_map<std::uint64_t, Pending> pending;         ///< by seq
    std::uint64_t next_seq = 0;
    std::unique_ptr<OpenLoopSchedule> schedule;
};

std::uint64_t frame_id(int conn, std::size_t seq) {
    return (static_cast<std::uint64_t>(conn) << 40) | seq;
}

int connect_loopback(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("connect() to the server failed");
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

/// Server, models and connected client sockets: everything set up before
/// the first frame is sent.
struct Rig {
    std::unique_ptr<serve::ModelSet> set;
    std::unique_ptr<serve::Server> server;
    std::vector<int> fds;

    Rig() = default;
    Rig(const Rig&) = delete;
    Rig& operator=(const Rig&) = delete;
    ~Rig() { close(); }
    void close() {
        for (const int fd : fds) ::close(fd);
        fds.clear();
        if (server) server->stop();
        server.reset();
        set.reset();
    }
};

serve::Server::Options server_options() {
    serve::Server::Options options;  // batch_max 64, 2000 us, shedding on, SLO 50 ms
    options.infer_threads = 1;  // see the thread budget above
    return options;
}

void build_rig(Rig& rig, int connections) {
    serve::ModelSetConfig config;
    config.backend = "avx2";  // select_backend falls back to scalar without AVX2
    rig.set = std::make_unique<serve::ModelSet>(serve::make_model_set(config));
    rig.server = std::make_unique<serve::Server>(*rig.set, server_options());
    std::string error;
    if (!rig.server->start(&error)) throw std::runtime_error("server start: " + error);
    for (int c = 0; c < connections; ++c) rig.fds.push_back(connect_loopback(rig.server->port()));
}

/// The load generator: one thread, all connections, ppoll-driven.
class Generator {
public:
    Generator(Rig& rig, bool open_loop, std::uint64_t seed, bool traced_phase,
              const std::vector<std::string>& wire, const std::vector<std::string>& wire_traced,
              const std::vector<std::set<Outcome>>& allowed)
        : open_loop_(open_loop), seed_(seed), traced_phase_(traced_phase), wire_(wire),
          wire_traced_(wire_traced), allowed_(allowed) {
        for (const int fd : rig.fds) {
            Client c;
            c.fd = fd;
            clients_.push_back(std::move(c));
        }
    }

    /// Run: warm-up, then the timed window (split in two halves, untraced
    /// then traced, when traced_phase). `on_phase` runs at each boundary.
    void run(double seconds, const std::function<void(int)>& on_phase) {
        start_us_ = now_us();
        warm_end_us_ = start_us_ + kWarmupUs;
        const double timed_us = seconds * 1e6;
        a_end_us_ = warm_end_us_ + (traced_phase_ ? timed_us / 2 : timed_us);
        stop_us_ = warm_end_us_ + timed_us;
        for (std::size_t c = 0; c < clients_.size(); ++c) {
            const double phase = static_cast<double>(mix64(seed_ ^ (0xca3e7a + c)) % 1000000) *
                                 1e-6 * kCameraPeriodUs;
            clients_[c].schedule =
                std::make_unique<OpenLoopSchedule>(start_us_, phase, kCameraPeriodUs);
        }
        if (!open_loop_)
            for (std::size_t c = 0; c < clients_.size(); ++c)
                for (int i = 0; i < kInFlight; ++i) send_frame(static_cast<int>(c), now_us());

        int phase_seen = 0;
        std::vector<pollfd> fds(clients_.size());
        double drain_deadline = 0.0;
        for (;;) {
            const double now = now_us();
            const int phase = now < warm_end_us_ ? 0 : now < a_end_us_ ? 1 : now < stop_us_ ? 2 : 3;
            while (phase_seen < phase) on_phase(++phase_seen);
            const bool sending = now < stop_us_;
            if (!sending && drain_deadline == 0.0) drain_deadline = now + kDrainTimeoutUs;
            if (sending && open_loop_) {
                for (std::size_t c = 0; c < clients_.size(); ++c)
                    for (const std::uint64_t k : clients_[c].schedule->take_due(now))
                        for (int i = 0; i < kCamerasPerRig; ++i)
                            send_frame(static_cast<int>(c), clients_[c].schedule->due_us(k));
            }
            if (!sending && outstanding() == 0) break;
            if (!sending && now > drain_deadline) break;

            double wake = sending ? stop_us_ : drain_deadline;
            if (sending && open_loop_)
                for (const Client& c : clients_) wake = std::min(wake, c.schedule->due_us(c.schedule->next()));
            const double wait_us = std::max(0.0, wake - now_us());
            timespec timeout{static_cast<time_t>(wait_us / 1e6),
                             static_cast<long>(std::fmod(wait_us, 1e6) * 1e3)};
            for (std::size_t c = 0; c < clients_.size(); ++c) {
                fds[c].fd = clients_[c].fd;
                fds[c].events = static_cast<short>(POLLIN | (clients_[c].tx.empty() ? 0 : POLLOUT));
                fds[c].revents = 0;
            }
            if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 && errno != EINTR)
                throw std::runtime_error("ppoll failed");
            for (std::size_t c = 0; c < clients_.size(); ++c) {
                if (fds[c].revents & POLLOUT) flush(static_cast<int>(c));
                if (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) receive(static_cast<int>(c));
            }
        }
        while (phase_seen < 3) on_phase(++phase_seen);
        // Whatever is still in flight was never answered.
        for (Client& c : clients_) {
            for (const auto& [seq, f] : c.pending) {
                ++tally_.unanswered;
                ++tally_.failed;
                tally_.latency_ms[f.phase].push_back(std::numeric_limits<float>::infinity());
            }
            c.pending.clear();
        }
    }

    [[nodiscard]] const Tally& tally() const noexcept { return tally_; }
    [[nodiscard]] double window_start_us() const noexcept { return warm_end_us_; }
    /// Length of the untraced timed window (phase 1).
    [[nodiscard]] double window_us() const noexcept { return a_end_us_ - warm_end_us_; }

private:
    [[nodiscard]] std::size_t outstanding() const {
        std::size_t n = 0;
        for (const Client& c : clients_) n += c.pending.size();
        return n;
    }

    void send_frame(int conn, double base_us) {
        Client& c = clients_[static_cast<std::size_t>(conn)];
        const std::uint64_t seq = c.next_seq++;
        Pending f;
        f.base_us = base_us;
        f.phase = base_us < warm_end_us_ ? 0 : base_us < a_end_us_ ? 1 : 2;
        f.image = static_cast<std::uint32_t>(mix64(seed_ ^ frame_id(conn, seq)) % kPool);
        const std::string& wire = (traced_phase_ && f.phase == 2 ? wire_traced_ : wire_)[f.image];
        const std::uint64_t id = frame_id(conn, seq);
        f.send_start_us = now_us();
        const std::size_t at = c.tx.size();
        c.tx += wire;
        for (int b = 0; b < 8; ++b) c.tx[at + 4 + b] = static_cast<char>((id >> (8 * b)) & 0xff);
        c.pending.emplace(seq, f);
        c.unsent.emplace_back(seq, c.tx.size());
        ++tally_.sent;
        if (f.phase != 0) tally_.lag_us.push_back(static_cast<float>(f.send_start_us - base_us));
        flush(conn);
    }

    void flush(int conn) {
        Client& c = clients_[static_cast<std::size_t>(conn)];
        std::size_t sent = 0;
        while (sent < c.tx.size()) {
            const ssize_t n = ::send(c.fd, c.tx.data() + sent, c.tx.size() - sent, MSG_NOSIGNAL);
            if (n > 0) {
                sent += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            throw std::runtime_error("send to the server failed");
        }
        if (sent == 0) return;
        const double t = now_us();
        std::size_t done = 0;
        for (auto& [seq, end] : c.unsent) {
            if (end <= sent) {
                if (auto it = c.pending.find(seq); it != c.pending.end()) it->second.send_end_us = t;
                ++done;
            } else {
                end -= sent;
            }
        }
        c.unsent.erase(c.unsent.begin(), c.unsent.begin() + static_cast<long>(done));
        c.tx.erase(0, sent);
    }

    void receive(int conn) {
        Client& c = clients_[static_cast<std::size_t>(conn)];
        char buf[65536];
        for (;;) {
            const double t0 = now_us();
            const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
            const double t1 = now_us();
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
            if (n <= 0) throw std::runtime_error("server closed a client connection");
            c.rx.append(buf, static_cast<std::size_t>(n));
            std::size_t pos = 0;
            while (c.rx.size() - pos >= 4) {
                const auto* p = reinterpret_cast<const unsigned char*>(c.rx.data() + pos);
                const std::uint32_t len = p[0] | (p[1] << 8) | (p[2] << 16) |
                                          (static_cast<std::uint32_t>(p[3]) << 24);
                if (len > 1024) throw std::runtime_error("oversized response frame");
                if (c.rx.size() - pos < 4 + len) break;
                serve::ResponseFrame r;
                if (!serve::decode_response(c.rx.data() + pos + 4, len, r)) {
                    ++tally_.malformed;
                } else {
                    on_response(conn, r, t1, t1 - t0);
                }
                pos += 4 + len;
            }
            c.rx.erase(0, pos);
        }
    }

    void on_response(int conn, const serve::ResponseFrame& r, double t, double call_us) {
        Client& c = clients_[static_cast<std::size_t>(conn)];
        const auto it = (r.frame_id >> 40) == static_cast<std::uint64_t>(conn)
                            ? c.pending.find(r.frame_id & ((1ULL << 40) - 1))
                            : c.pending.end();
        if (it == c.pending.end()) {  // unknown id, or a second answer
            ++tally_.unexpected;
            return;
        }
        const Pending f = it->second;
        c.pending.erase(it);
        Tally& tl = tally_;
        const bool error = r.status == serve::ResponseStatus::error;
        const bool failure =
            error || r.degraded || r.status == serve::ResponseStatus::shed;
        tl.errors += error ? 1 : 0;
        tl.failed += failure ? 1 : 0;
        if (!failure) {
            const Outcome o{static_cast<int>(r.status), r.label, static_cast<int>(r.agreeing),
                            static_cast<int>(r.functional_modules)};
            tl.not_producible += allowed_[f.image].count(o) == 0 ? 1 : 0;
        }
        const double latency = t - f.base_us;
        tl.latency_ms[f.phase].push_back(
            failure ? std::numeric_limits<float>::infinity() : static_cast<float>(latency / 1e3));
        if (f.phase == 1 && !failure) {
            ++tl.answered_in_window;
            tl.last_answer_us = std::max(tl.last_answer_us, t);
        }
        if (f.phase == 2) {
            ++tl.traced_answered;
            tl.traced_skipped += r.status == serve::ResponseStatus::skipped ? 1 : 0;
            tl.traced_degraded += r.degraded ? 1 : 0;
            if (r.has_trace) {
                const double send = f.send_end_us - f.send_start_us;
                const double client = (f.send_start_us - f.base_us) + send + call_us;
                const double server = r.stage_us[static_cast<std::size_t>(serve::Stage::total)];
                tl.stages.push_back(r.stage_us);
                tl.unattributed_us.push_back(static_cast<float>(latency - client - server));
                tl.covered.push_back(static_cast<float>(latency > 0 ? (client + server) / latency : 1.0));
                tl.send_us.push_back(static_cast<float>(send));
                tl.recv_us.push_back(static_cast<float>(call_us));
            }
        }
        if (!open_loop_ && now_us() < stop_us_) send_frame(conn, now_us());
    }

    bool open_loop_;
    std::uint64_t seed_;
    bool traced_phase_;
    const std::vector<std::string>& wire_;
    const std::vector<std::string>& wire_traced_;
    const std::vector<std::set<Outcome>>& allowed_;
    std::vector<Client> clients_;
    Tally tally_;
    double start_us_ = 0, warm_end_us_ = 0, a_end_us_ = 0, stop_us_ = 0;
};

struct CounterSnap {
    double frames = 0, full = 0, deadline = 0;
};

CounterSnap batch_counters() {
    return {counter_value("serve.batch.frames"), counter_value("serve.batch.flushes_full"),
            counter_value("serve.batch.flushes_deadline")};
}

std::vector<double> widen(const std::vector<float>& v) { return {v.begin(), v.end()}; }

}  // namespace

void run_serve(const RunArgs& args, bool open_loop, Report& report, SpanLog& spans) {
    // --- Set-up (timed, repeated; the last rig serves the run) -------------
    const int connections = open_loop ? kCameraConnections : kReplayConnections;
    std::vector<double> setup_s;
    Rig rig;
    for (int r = 0; r < kSetupRepeats; ++r) {
        rig.close();
        const auto t0 = Clock::now();
        build_rig(rig, connections);
        setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    const serve::ModelSet& set = *rig.set;
    const serve::Server::Options options = server_options();
    report.note("workload " + args.workload + ": " +
                (open_loop ? "open loop, " + std::to_string(connections) + " connections x " +
                                 std::to_string(kCamerasPerRig) + " frames every " +
                                 fixed(kCameraPeriodUs / 1000.0, 2) + " ms"
                           : "closed loop, " + std::to_string(connections) +
                                 " connection x " + std::to_string(kInFlight) +
                                 " frames in flight"));
    report.note("  nproc " + std::to_string(std::thread::hardware_concurrency()) +
                ", budget " + std::to_string(thread_budget()) + ": connections " +
                std::to_string(connections) +
                ", generator threads 1, server service thread 1, infer_threads " +
                std::to_string(options.infer_threads) + "; backend bound: " + set.backend_name +
                "; seed " + std::to_string(args.seed));
    report.note("  server options: batch_max " + std::to_string(options.batch_max) +
                ", batch_delay_us " + std::to_string(options.batch_delay_us) + ", shedding " +
                (options.shedding ? "on" : "off") + ", slo_budget_ms " +
                fixed(options.slo_budget_ms, 1));

    // --- Inputs and the checker's reference labels (not timed) -------------
    mvreju::util::Rng rng(mix64(args.seed) ^ 0x5eed);
    std::vector<std::vector<float>> images(kPool, std::vector<float>(set.sample_size()));
    std::vector<std::string> wire(kPool), wire_traced(kPool);
    std::vector<std::set<Outcome>> allowed(kPool);
    for (std::size_t i = 0; i < kPool; ++i) {
        for (float& v : images[i]) v = static_cast<float>(rng.uniform());
        serve::RequestFrame request;
        request.image = images[i];
        wire[i] = serve::encode_request(request);
        request.want_trace = true;
        wire_traced[i] = serve::encode_request(request);
        const ml::Tensor input(set.input_shape, images[i]);
        std::vector<int> healthy, compromised;
        for (std::size_t m = 0; m < set.pointers.size(); ++m) {
            const auto& kb = set.pointers.backend_for(m);
            healthy.push_back(set.pointers.healthy[m]->predict(input, kb));
            compromised.push_back(set.pointers.compromised[m]->predict(input, kb));
        }
        allowed[i] = producible_outcomes(healthy, compromised);
    }

    // --- Warm-up + timed window --------------------------------------------
    Generator gen(rig, open_loop, args.seed, args.trace, wire, wire_traced, allowed);
    CounterSnap traced_start, traced_end;
    gen.run(args.seconds, [&](int phase) {
        if (phase == 2) traced_start = batch_counters();
        if (phase == 3) traced_end = batch_counters();
    });
    for (const int fd : rig.fds) ::close(fd);
    rig.fds.clear();
    rig.server->stop();

    // --- Output checks ------------------------------------------------------
    const Tally& t = gen.tally();
    report.attempted = t.sent;
    report.failed = t.failed;
    report.note("  checks: " + std::to_string(t.sent) + " frames sent, " +
                std::to_string(t.unanswered) + " unanswered, " + std::to_string(t.unexpected) +
                " duplicate or unknown answers, " + std::to_string(t.malformed) + " malformed, " +
                std::to_string(t.errors) + " error responses, " +
                std::to_string(t.not_producible) + " outcomes no voter assignment produces");
    report.note("  failed_share = " +
                fixed(t.sent ? static_cast<double>(t.failed) / static_cast<double>(t.sent) : 0.0, 6) +
                " (" + std::to_string(t.failed) + " of " + std::to_string(t.sent) +
                " frames shed, degraded, errored or unanswered)");
    if (t.unanswered || t.unexpected || t.malformed || t.errors || t.not_producible)
        report.check_failed("serve: every frame must be answered exactly once by id, with no "
                            "error, and with an outcome core::Voter can produce");

    // --- Metrics ------------------------------------------------------------
    const std::vector<double> lat_ms = widen(t.latency_ms[1]);
    const WindowedPercentile p50 = windowed_percentile(lat_ms, 0.50);
    const WindowedPercentile tail = windowed_percentile(lat_ms, 0.99);
    if (p50.windows == 0 || tail.windows == 0)
        throw std::runtime_error("too few timed frames for a tail percentile");
    // Answered frames per second: frames whose latency origin falls in the
    // timed window, over the span from the window start to the last of
    // their answers (a backlog left at the end of the window lengthens it).
    const double span_us =
        std::max(t.last_answer_us, gen.window_start_us() + gen.window_us()) - gen.window_start_us();
    const double rate = static_cast<double>(t.answered_in_window) / (span_us * 1e-6);
    const Percentile lag99 = percentile(widen(t.lag_us), 0.99);
    report.note("  latency (timed from each frame's " +
                std::string(open_loop ? "due time" : "send") + "): p50 " + fixed(p50.value, 3) +
                " ms, tail " + fixed(tail.value, 3) + " ms = " + describe_tail(tail));
    report.note("  gen.lag_us_p99 = " + fixed(lag99.value, 1) + " us over " +
                std::to_string(lag99.samples) + " frames (how late the generator sent)");

    if (!report.traced()) {
        report.set("setup_s", median(setup_s));
        report.set("latency_p50_ms", p50.value);
        report.set("latency_tail_ms", tail.value);
        report.set("ops_per_s", rate);
        report.set("peak_rss_mb", peak_rss_mb());
        report.note("  setup_s = " + fixed(median(setup_s), 4) + " (median of " +
                    std::to_string(kSetupRepeats) + " model-set + server + connect set-ups)");
        report.note("  frames_per_s (answered) = " + fixed(rate, 2) + " (" +
                    std::to_string(t.answered_in_window) + " frames due in the window)");
        return;
    }

    // --- Traced half: stage annex, net remainder, batcher counters ----------
    if (t.stages.empty()) throw std::runtime_error("no traced responses carried a stage annex");
    std::string line = "  server stages (annex, us) p50/p99:";
    for (std::size_t st = 0; st < serve::kStageCount; ++st) {
        std::vector<double> v;
        for (const auto& row : t.stages) v.push_back(row[st]);
        const char* name = serve::stage_name(static_cast<serve::Stage>(st));
        const Percentile a = percentile(v, 0.50);
        const Percentile b = percentile(v, 0.99);
        report.set(std::string("serve.") + name + "_us_p50", a.value);
        report.set(std::string("serve.") + name + "_us_p99", b.value);
        line.append(1, ' ').append(name).append("=").append(fixed(a.value, 0)).append("/").append(
            fixed(b.value, 0));
    }
    report.note(line + " over " + std::to_string(t.stages.size()) + " frames");
    const Percentile u50 = percentile(widen(t.unattributed_us), 0.50);
    const Percentile u99 = percentile(widen(t.unattributed_us), 0.99);
    const double covered = median(widen(t.covered));
    report.set("net.unattributed_us_p50", u50.value);
    report.set("net.unattributed_us_p99", u99.value);
    report.set("net.covered_share", covered);
    report.set("net.client_send_us_p50", median(widen(t.send_us)));
    report.set("net.client_recv_us_p50", median(widen(t.recv_us)));
    report.set("gen.lag_us_p99", lag99.value);
    report.note("  stage accounting: server stages + client send/recv/lag cover " +
                fixed(100.0 * covered, 1) +
                "% of client latency (median frame); net.unattributed_us p50 " +
                fixed(u50.value, 0) + ", p99 " + fixed(u99.value, 0) + " (" +
                std::to_string(u99.beyond) + " samples beyond p99)");
    const double flushes = (traced_end.full - traced_start.full) +
                           (traced_end.deadline - traced_start.deadline);
    const double batch_mean = flushes > 0 ? (traced_end.frames - traced_start.frames) / flushes : 0;
    const double answered = static_cast<double>(std::max<std::size_t>(1, t.traced_answered));
    report.set("serve.batch_mean", batch_mean);
    report.set("serve.full_flush_share",
               flushes > 0 ? (traced_end.full - traced_start.full) / flushes : 0.0);
    report.set("serve.skipped_share", static_cast<double>(t.traced_skipped) / answered);
    report.set("serve.degraded_share", static_cast<double>(t.traced_degraded) / answered);
    report.note("  serve.batch_mean = " + fixed(batch_mean, 2) + " samples per flush over " +
                fixed(flushes, 0) + " flushes");
    // Overhead of the traced half against the untraced half: latency p50 on
    // the open loop (its rate is fixed by the schedule), frames/s otherwise.
    const double untraced_p50 = median(lat_ms);
    const double traced_p50 = median(widen(t.latency_ms[2]));
    const double overhead =
        open_loop ? 100.0 * (traced_p50 - untraced_p50) / untraced_p50
                  : 100.0 * (static_cast<double>(t.latency_ms[1].size()) /
                                 static_cast<double>(std::max<std::size_t>(1, t.latency_ms[2].size())) -
                             1.0);
    report.set("obs.trace_overhead_pct", overhead);
    report.note("  obs.trace_overhead_pct = " + fixed(overhead, 2) +
                " (traced half vs untraced half, " +
                (open_loop ? "latency p50" : "frames/s") + ")");

    // --- Layer probes on the serving models --------------------------------
    MlContext ctx;
    const std::vector<std::string> names = {"tinylenet", "minialexnet", "microresnet"};
    for (std::size_t m = 0; m < names.size(); ++m)
        ctx.models.emplace_back(names[m], set.pointers.healthy[m]);
    ctx.backend = &set.pointers.backend_for(0);
    ctx.sample_shape = set.input_shape;
    ctx.samples = images;
    ctx.logits_batches = {1, 64};
    ctx.layer_batch = static_cast<std::size_t>(std::clamp(std::lround(batch_mean), 1L, 64L));
    probe_ml(ctx, spans, report);

    const mvreju::core::Voter<int> voter(options.scheme);
    std::vector<std::vector<std::optional<int>>> proposals;
    for (std::size_t i = 0; i < kPool; ++i) {
        const ml::Tensor input(set.input_shape, images[i]);
        std::vector<std::optional<int>> p;
        for (std::size_t m = 0; m < set.pointers.size(); ++m)
            p.emplace_back(set.pointers.healthy[m]->predict(input, set.pointers.backend_for(m)));
        proposals.push_back(std::move(p));
    }
    std::size_t next = 0;
    int sink = 0;
    const double vote_ns = median_call_ns(spans, "core.vote", 20000, 15, [&] {
        sink += voter.vote(proposals[next++ % proposals.size()]).agreeing;
    });
    serve::Session::Options session_options;
    session_options.health = options.health;
    serve::Session session(1, set, session_options);
    double frame_time = 0.0;
    const double begin_ns = median_call_ns(spans, "core.begin_frame", 20000, 15, [&] {
        frame_time += 1.0 / 120.0;
        sink += session.begin_frame(frame_time).functional_modules;
    });
    report.set("core.vote_ns", vote_ns);
    report.set("core.begin_frame_ns", begin_ns);
    keep(sink);
    report.note("  core.vote_ns = " + fixed(vote_ns, 1) + ", core.begin_frame_ns = " +
                fixed(begin_ns, 1));
}

}  // namespace perfbench
