#pragma once

// The serving layer's one frame path. Every served frame, whether it came
// from a socket client of serve::Server or from the virtual-time fleet of
// synthetic.hpp, runs this decision once, in this order:
//
//   plan             the session's health snapshot picks the versions
//   no_output        no functional version: answer at once
//   drop             max_inflight frames already staged: answer `shed`
//   degrade          while OverloadControl is latched, run only
//                    Session::primary_version
//   submit, collect  one batched inference per running version
//   vote             Session::complete_frame over the returned labels
//   SLO verdict      arrival-to-reply latency against the budget, fed back
//                    into OverloadControl
//   reply            FrameTrace stamps, the driver's reply, and one
//                    FrameObservation into the optional FleetStats
//
// A driver feeds frames in and delivers the replies; it owns the
// transport, the sessions and the clock. The socket Server reads the
// steady clock and answers over TCP; the fleet reads a virtual clock and
// re-stamps each flush's infer interval with its service-time model
// (Driver::on_flush). The pipeline reads no clock of its own, so under a
// virtual clock every decision is a pure function of the driver's inputs.
// Single-owner, not thread-safe: it lives on the driver's thread.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mvreju/serve/batcher.hpp"
#include "mvreju/serve/overload.hpp"
#include "mvreju/serve/protocol.hpp"
#include "mvreju/serve/session.hpp"
#include "mvreju/serve/trace.hpp"

namespace mvreju::serve {

class FleetStats;

class Pipeline {
public:
    /// Batching and shedding policy. Server::Options and FleetOptions carry
    /// these fields under the same names, with their own defaults; the
    /// drivers fill this from them through from(), so it keeps none.
    struct Options {
        int batch_max;
        std::uint64_t batch_delay_us;
        std::size_t infer_threads;
        double slo_budget_ms;
        bool shedding;  ///< degrade to one version while overloaded
        OverloadControl::Options overload;
        std::size_t max_inflight;  ///< staged frames; beyond it, drop

        /// The same-named fields of a driver's options.
        template <typename DriverOptions>
        [[nodiscard]] static Options from(const DriverOptions& o) {
            return {o.batch_max, o.batch_delay_us, o.infer_threads, o.slo_budget_ms,
                    o.shedding,  o.overload,       o.max_inflight};
        }
    };

    /// One finished frame, for the driver to deliver.
    struct Reply {
        std::uint64_t stream = 0;
        /// The answer, frame_id being the id the driver admitted the frame
        /// under; carries the stage annex when the frame asked for it.
        ResponseFrame response;
        /// The frame ran inference and got an SLO verdict (it was neither
        /// dropped nor answered no_output); the next two fields are its.
        bool inferred = false;
        double latency_ms = 0.0;  ///< arrival to reply on the driver's clock
        bool breach = false;      ///< latency_ms > slo_budget_ms
    };

    class Driver {
    public:
        /// The driver's clock in microseconds: steady or virtual.
        [[nodiscard]] virtual std::uint64_t now_us() = 0;
        /// The session of `stream`, or null once the stream has gone; a
        /// frame whose stream has gone is dropped silently at its vote.
        [[nodiscard]] virtual Session* session(std::uint64_t stream) = 0;
        /// Deliver one finished frame.
        virtual void reply(const Reply& reply) = 0;
        /// Called once per flush, before any of its frames is stamped from
        /// `stamp`. Default: keep the batcher's own stamps.
        virtual void on_flush(BatchStamp& stamp) { (void)stamp; }

    protected:
        ~Driver() = default;
    };

    /// `driver` must outlive the pipeline. When `stats` is non-null every
    /// finished frame is folded into it at the driver's clock.
    Pipeline(const ModelSet& set, const Options& options, Driver& driver,
             FleetStats* stats = nullptr);
    /// The batcher's clock and completions hold `this`.
    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    /// Run one frame of `session`'s stream, arriving at the driver's
    /// now_us(). `sample` is copied; `frame_id` names the frame in its
    /// reply, its flight events and its FrameObservation. The reply comes
    /// through Driver::reply, inside this call or inside a later flush.
    void admit(Session& session, std::uint64_t frame_id, const float* sample,
               bool want_trace = false);

    /// The cross-stream batcher; the driver schedules its deadline flushes.
    [[nodiscard]] DynamicBatcher& batcher() noexcept { return batcher_; }

private:
    struct InFlight {
        std::uint64_t stream = 0;
        std::uint64_t frame_id = 0;
        core::FramePlan plan;
        std::vector<std::optional<int>> proposals;
        int remaining = 0;  ///< labels still to come
        std::uint64_t arrival_us = 0;
        bool degraded = false;
        bool want_trace = false;
        FrameTrace trace;
    };

    void on_label(std::uint64_t key, std::size_t version, int label,
                  const BatchStamp& stamp);
    void finalize(InFlight& frame);
    /// Deliver `reply` and fold the frame into the stats.
    void finish(Reply& reply, const FrameTrace& trace, bool want_trace);

    Options options_;
    Driver& driver_;
    FleetStats* stats_;
    DynamicBatcher batcher_;
    OverloadControl overload_;
    std::unordered_map<std::uint64_t, InFlight> inflight_;
    std::uint64_t next_key_ = 0;
    BatchStamp flush_;  ///< the current flush, as the driver re-stamped it
};

}  // namespace mvreju::serve
