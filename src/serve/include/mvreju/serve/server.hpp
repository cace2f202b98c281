#pragma once

// The fleet-scale serving front end: the socket driver of serve::Pipeline.
// A serve::Server accepts any number of client connections (one perception
// stream each) on a net::EventLoop, parses length-prefixed request frames,
// hands each one to the pipeline on the steady clock, and sends the
// pipeline's reply back on the frame's connection. Replies are queued as
// frames finish and leave at the end of each service-loop tick, one write
// per connection (counted by serve.tx.writes). One service thread owns
// everything — loop, sessions, pipeline — so there is no locking on the
// serving path; parallelism comes from logits_batch fanning a coalesced
// batch across worker threads.
//
// What the server adds to the pipeline's frame path (pipeline.hpp: vote,
// degraded and dropped shedding, SLO verdicts, stage traces):
//  - admission refusal: beyond max_streams, new connections get one `error`
//    response and are closed;
//  - protocol errors: a malformed frame gets one `error` response, then the
//    connection closes;
//  - the /fleet and /healthz documents, pushed to the global exporter on a
//    publish_interval_us throttle, and the Stats counters.
//
// run_fleet (synthetic.hpp) drives the same pipeline on a virtual clock,
// so its seeded determinism gates cover the path clients talk to.

#include <cstdint>
#include <memory>
#include <string>

#include "mvreju/core/health.hpp"
#include "mvreju/core/voter.hpp"
#include "mvreju/serve/overload.hpp"
#include "mvreju/serve/session.hpp"

namespace mvreju::serve {

class Server {
public:
    struct Options {
        std::string host = "127.0.0.1";
        int port = 0;  ///< 0 picks an ephemeral port (see port())
        int backlog = 64;
        int max_streams = 1024;

        int batch_max = 64;
        std::uint64_t batch_delay_us = 2000;
        std::size_t infer_threads = 1;

        double slo_budget_ms = 50.0;
        bool shedding = true;
        OverloadControl::Options overload;
        std::size_t max_inflight = 4096;

        int tick_ms = 20;  ///< loop wake cadence when no batch deadline is due

        /// Fold every finished frame into serve::FleetStats and push the
        /// rendered /fleet document plus the aggregated health report to
        /// obs::Exporter::global() (no-op unless an exporter is serving).
        bool publish_telemetry = true;
        /// Minimum spacing between exporter pushes.
        std::uint64_t publish_interval_us = 250'000;

        core::HealthEngineConfig health;  ///< per-stream seed base
        core::VotingScheme scheme = core::VotingScheme::majority;
    };

    /// The outcome counters (decided through slo_breaches) count the
    /// pipeline's replies. A frame whose stream closes before its vote gets
    /// no reply and is not counted, so `degraded` can trail the
    /// serve.shed.degraded metric, which counts at admission.
    struct Stats {
        std::uint64_t frames = 0;
        std::uint64_t decided = 0;
        std::uint64_t skipped = 0;
        std::uint64_t no_output = 0;
        std::uint64_t degraded = 0;
        std::uint64_t dropped = 0;
        std::uint64_t slo_breaches = 0;
        std::uint64_t protocol_errors = 0;
        std::uint64_t admission_refusals = 0;
        std::uint64_t connections = 0;  ///< accepted (admitted) in total
        std::size_t active_streams = 0;
    };

    /// `set` must outlive the server; it is shared const across streams.
    Server(const ModelSet& set, const Options& options);
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind and start the service thread. False (with a reason in *error)
    /// when already running or the socket cannot be bound.
    bool start(std::string* error = nullptr);
    /// Stop the service thread and close every connection. Idempotent.
    void stop();

    [[nodiscard]] bool running() const noexcept;
    /// The actually bound port; 0 when not running.
    [[nodiscard]] int port() const noexcept;

    [[nodiscard]] Stats stats() const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

}  // namespace mvreju::serve
