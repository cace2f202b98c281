#include "mvreju/serve/server.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mvreju/net/conn.hpp"
#include "mvreju/net/event_loop.hpp"
#include "mvreju/net/listener.hpp"
#include "mvreju/obs/exporter.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/obs/profiler.hpp"
#include "mvreju/serve/fleet_stats.hpp"
#include "mvreju/serve/pipeline.hpp"
#include "mvreju/serve/protocol.hpp"

namespace mvreju::serve {

namespace {
using Clock = std::chrono::steady_clock;
}

struct Server::Impl final : Pipeline::Driver {
    const ModelSet& set;
    Options options;

    std::unique_ptr<net::EventLoop> loop;
    std::unique_ptr<net::Listener> listener;
    std::thread thread;
    bool started = false;
    int bound_port = 0;
    Clock::time_point epoch{};

    /// One admitted client stream. Everything here is touched only by the
    /// service thread.
    struct Client {
        std::shared_ptr<net::Conn> conn;
        std::unique_ptr<Session> session;
        FrameParser parser;
        explicit Client(std::size_t sample_size) : parser(sample_size) {}
    };

    /// The frame path: built by start(), dropped with its staged frames by
    /// stop().
    std::optional<Pipeline> pipeline;
    FleetStats fleet_stats;
    std::uint64_t last_publish_us = 0;
    std::unordered_map<std::uint64_t, Client> clients;
    /// Clients whose connection closed mid-callback. on_close() extracts the
    /// node instead of erasing so that Client& references held further up
    /// the stack (on_data's dispatch loop) stay valid; the nodes are
    /// destroyed at the top of the next serve_loop tick.
    std::vector<std::unordered_map<std::uint64_t, Client>::node_type> graveyard;
    std::vector<std::weak_ptr<net::Conn>> refused;  ///< closing after refusal
    /// Connections holding replies this tick has not written yet; the
    /// tick-end flush_replies() writes each once.
    std::vector<std::shared_ptr<net::Conn>> unflushed;
    std::uint64_t next_stream_id = 1;

    mutable std::mutex stats_mutex;
    Stats stats_snapshot;

    Impl(const ModelSet& model_set, const Options& server_options)
        : set(model_set), options(server_options) {}

    std::uint64_t now_us() override {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                  epoch)
                .count());
    }

    Session* session(std::uint64_t stream) override {
        const auto it = clients.find(stream);
        return it == clients.end() ? nullptr : it->second.session.get();
    }

    void reply(const Pipeline::Reply& reply) override {
        bump([&reply](Stats& s) {
            switch (reply.response.status) {
                case ResponseStatus::decided: ++s.decided; break;
                case ResponseStatus::skipped: ++s.skipped; break;
                case ResponseStatus::no_output: ++s.no_output; break;
                case ResponseStatus::shed: ++s.dropped; break;
                case ResponseStatus::error: break;
            }
            if (reply.response.degraded) ++s.degraded;
            if (reply.breach) ++s.slo_breaches;
        });
        // A frame admitted in the same on_data pass as its stream's close
        // answers into the graveyard: nobody is listening.
        const auto it = clients.find(reply.stream);
        if (it != clients.end()) respond(it->second.conn, reply.response);
    }

    template <typename Fn>
    void bump(Fn&& update) {
        const std::lock_guard<std::mutex> guard(stats_mutex);
        update(stats_snapshot);
    }

    /// Queue one reply in the connection's transmit buffer; it leaves with
    /// the rest of the tick's replies in flush_replies(). A connection with
    /// a backlog the socket refused is not noted: writable readiness
    /// drains it, and the new reply behind it.
    void respond(const std::shared_ptr<net::Conn>& conn, const ResponseFrame& response) {
        MVREJU_PROFILE_STAGE(profile_scope, "tx");
        if (!conn || conn->closed()) return;
        if (conn->tx_pending() == 0) unflushed.push_back(conn);
        conn->queue(encode_response(response));
    }

    /// One write per connection that got replies this tick, so a burst
    /// answered by one flush leaves in one segment. A draining connection
    /// (error or refusal) closes once its buffer is out.
    void flush_replies() {
        if (unflushed.empty()) return;
        MVREJU_PROFILE_STAGE(profile_scope, "tx");
        static obs::Counter& writes = obs::metrics().counter("serve.tx.writes");
        std::size_t written = 0;
        for (const auto& conn : unflushed) written += conn->flush();
        unflushed.clear();
        writes.add(written);
    }

    /// Track a refused conn for shutdown, recycling slots left by conns
    /// that already drained (same idiom as obs::Exporter) so a sustained
    /// flood past max_streams cannot grow the vector without bound.
    void track_refused(const std::shared_ptr<net::Conn>& conn) {
        for (auto& slot : refused) {
            if (slot.expired()) {
                slot = conn;
                return;
            }
        }
        refused.push_back(conn);
    }

    void on_accept(int fd) {
        if (clients.size() >= static_cast<std::size_t>(options.max_streams)) {
            // Admission refusal: one error frame, then close. The conn is
            // loop-owned until it drains; track it for shutdown.
            auto conn = net::Conn::adopt(*loop, fd, [](net::Conn&) {});
            if (conn) {
                respond(conn, ResponseFrame{});
                conn->close_after_send();
                track_refused(conn);
            }
            static obs::Counter& refusals =
                obs::metrics().counter("serve.admission_refusals");
            refusals.add(1);
            bump([](Stats& s) { ++s.admission_refusals; });
            return;
        }
        const std::uint64_t id = next_stream_id++;
        auto [it, inserted] = clients.emplace(id, Client(set.sample_size()));
        Client& client = it->second;
        Session::Options session_options;
        session_options.health = options.health;
        session_options.scheme = options.scheme;
        client.session = std::make_unique<Session>(id, set, session_options);
        client.conn = net::Conn::adopt(
            *loop, fd, [this, id](net::Conn&) { on_data(id); },
            [this, id](net::Conn&) { on_close(id); });
        if (!client.conn) {
            clients.erase(id);
            return;
        }
        client.conn->tag = id;
        bump([this](Stats& s) {
            ++s.connections;
            s.active_streams = clients.size();
        });
    }

    void on_close(std::uint64_t id) {
        auto node = clients.extract(id);
        if (!node.empty()) graveyard.push_back(std::move(node));
        bump([this](Stats& s) { s.active_streams = clients.size(); });
    }

    void on_data(std::uint64_t id) {
        // Stage tags scope the sampling profiler's CPU attribution: samples
        // landing while a scope is live are charged to its stage, so /fleet's
        // cpu_by_stage mirrors the FrameTrace stage names. Nested scopes
        // (the pipeline's vote, respond's tx) charge the innermost stage.
        MVREJU_PROFILE_STAGE(profile_scope, "parse");
        auto it = clients.find(id);
        if (it == clients.end()) return;
        Client& client = it->second;
        std::vector<RequestFrame> requests;
        const bool ok = client.parser.consume(client.conn->rx(), requests);
        for (const RequestFrame& request : requests) {
            bump([](Stats& s) { ++s.frames; });
            pipeline->admit(*client.session, request.frame_id, request.image.data(),
                            request.want_trace);
        }
        if (!ok) {
            // Protocol violation: one error response naming nothing (the
            // offending frame has no trustworthy id), then close. The
            // stream's inflight frames finish harmlessly without a session.
            static obs::Counter& errors =
                obs::metrics().counter("serve.protocol_errors");
            errors.add(1);
            bump([](Stats& s) { ++s.protocol_errors; });
            respond(client.conn, ResponseFrame{});
            client.conn->close_after_send();
        }
    }

    /// Throttled push of /fleet JSON and the aggregated health report to
    /// the global exporter (no-op unless one is serving).
    void maybe_publish(std::uint64_t now) {
        if (now - last_publish_us < options.publish_interval_us &&
            last_publish_us != 0)
            return;
        obs::Exporter& exporter = obs::Exporter::global();
        if (!exporter.running()) return;
        last_publish_us = now;
#ifndef MVREJU_OBS_DISABLED
        // When the sampling profiler is armed, fold its per-stage CPU
        // attribution (last 10 s) into the fleet document so fleet_top can
        // put a CPU% column next to the stage latency rows.
        if (obs::Profiler* profiler = obs::Profiler::active()) {
            std::vector<FleetStats::StageCpuShare> shares;
            for (const obs::StageCpu& cpu : profiler->stage_cpu(10))
                shares.push_back({cpu.stage, cpu.samples, cpu.fraction});
            fleet_stats.set_cpu_by_stage(std::move(shares));
        }
#endif
        exporter.set_fleet_json(fleet_stats.to_json(now));
        exporter.set_health(aggregate_health(now));
    }

    /// Fold every live stream's health process into one exporter report:
    /// counts sum over streams x versions, per-version states are the modal
    /// state across streams, and the rejuvenation age comes from the most
    /// recent completion anywhere in the fleet.
    [[nodiscard]] obs::HealthReport aggregate_health(std::uint64_t now) const {
        obs::HealthReport report;
        const double now_s = static_cast<double>(now) * 1e-6;
        double last_rejuvenation_s = -1.0;
        // state_votes[v][s]: streams whose version v is in state s.
        std::vector<std::array<std::size_t, 4>> state_votes;
        for (const auto& [id, client] : clients) {
            const core::HealthEngine& health = client.session->health();
            const int modules = health.module_count();
            if (state_votes.size() < static_cast<std::size_t>(modules))
                state_votes.resize(static_cast<std::size_t>(modules));
            for (int m = 0; m < modules; ++m) {
                const core::ModuleState state = health.state(m);
                ++state_votes[static_cast<std::size_t>(m)]
                             [static_cast<std::size_t>(state)];
                switch (state) {
                    case core::ModuleState::healthy: ++report.healthy; break;
                    case core::ModuleState::compromised:
                        ++report.compromised;
                        break;
                    case core::ModuleState::nonfunctional:
                        ++report.nonfunctional;
                        break;
                    case core::ModuleState::rejuvenating_proactive:
                        ++report.rejuvenating;
                        break;
                }
            }
            last_rejuvenation_s =
                std::max(last_rejuvenation_s, health.last_rejuvenation_time());
        }
        static constexpr const char* kStateNames[4] = {
            "healthy", "compromised", "nonfunctional", "rejuvenating"};
        for (const auto& votes : state_votes) {
            std::size_t best = 0;
            for (std::size_t s = 1; s < votes.size(); ++s)
                if (votes[s] > votes[best]) best = s;
            report.module_states.emplace_back(kStateNames[best]);
        }
        report.last_rejuvenation_age_s =
            last_rejuvenation_s < 0.0 ? -1.0 : now_s - last_rejuvenation_s;
        return report;
    }

    void serve_loop() {
        DynamicBatcher& batcher = pipeline->batcher();
        while (!loop->stop_requested()) {
            graveyard.clear();  // no Client& references live between ticks
            int timeout = options.tick_ms;
            if (const auto deadline = batcher.next_deadline_us()) {
                const std::uint64_t now = now_us();
                const std::uint64_t wait_us = *deadline > now ? *deadline - now : 0;
                timeout = static_cast<int>(
                    std::min<std::uint64_t>(wait_us / 1000,
                                            static_cast<std::uint64_t>(timeout)));
            }
            // Reads, and any batch they fill, run inside poll_once; due
            // deadlines flush after it; then the tick's replies go out.
            if (loop->poll_once(timeout) < 0) break;
            batcher.flush_due(now_us());
            flush_replies();
            // Refresh the exporter documents with whatever the tick's frames
            // folded in, and keep them fresh when no frames flow.
            if (options.publish_telemetry) maybe_publish(now_us());
        }
    }
};

Server::Server(const ModelSet& set, const Options& options)
    : impl_(std::make_unique<Impl>(set, options)) {}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
    if (impl_->started) {
        if (error) *error = "already running";
        return false;
    }
    impl_->loop = std::make_unique<net::EventLoop>();
    impl_->loop->reset_stop();
    net::ListenerOptions listen_options;
    listen_options.host = impl_->options.host;
    listen_options.port = impl_->options.port;
    listen_options.backlog = impl_->options.backlog;
    impl_->listener = net::Listener::open(
        *impl_->loop, listen_options, [this](int fd) { impl_->on_accept(fd); },
        error);
    if (!impl_->listener) {
        impl_->loop.reset();
        return false;
    }
    impl_->bound_port = impl_->listener->port();
    impl_->epoch = Clock::now();
    impl_->pipeline.emplace(
        impl_->set, Pipeline::Options::from(impl_->options), *impl_,
        impl_->options.publish_telemetry ? &impl_->fleet_stats : nullptr);
    impl_->started = true;
    impl_->thread = std::thread([this] { impl_->serve_loop(); });
    return true;
}

void Server::stop() {
    if (!impl_->started) return;
    impl_->loop->stop();
    if (impl_->thread.joinable()) impl_->thread.join();
    // Close every connection while the loop still exists: Conn::close
    // unregisters from a live loop (same ordering as obs::Exporter). Steal
    // the map first — close() re-enters on_close(), which erases from the
    // member map and would invalidate this iteration.
    auto clients = std::move(impl_->clients);
    impl_->clients.clear();
    for (auto& [id, client] : clients)
        if (client.conn) client.conn->close();
    clients.clear();
    impl_->graveyard.clear();
    impl_->unflushed.clear();
    for (auto& weak : impl_->refused)
        if (auto conn = weak.lock()) conn->close();
    impl_->refused.clear();
    impl_->pipeline.reset();
    impl_->listener.reset();
    impl_->loop.reset();
    impl_->started = false;
    impl_->bound_port = 0;
}

bool Server::running() const noexcept { return impl_->started; }

int Server::port() const noexcept { return impl_->bound_port; }

Server::Stats Server::stats() const {
    const std::lock_guard<std::mutex> guard(impl_->stats_mutex);
    return impl_->stats_snapshot;
}

}  // namespace mvreju::serve
