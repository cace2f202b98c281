#include "mvreju/serve/pipeline.hpp"

#include <utility>

#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/obs/profiler.hpp"
#include "mvreju/serve/fleet_stats.hpp"

namespace mvreju::serve {

Pipeline::Pipeline(const ModelSet& set, const Options& options, Driver& driver,
                   FleetStats* stats)
    : options_(options),
      driver_(driver),
      stats_(stats),
      batcher_(DynamicBatcher::Options{options.batch_max, options.batch_delay_us,
                                       options.infer_threads, set.input_shape,
                                       [this] { return driver_.now_us(); }}),
      overload_(options.overload) {
    if (stats_ != nullptr) stats_->set_backend(set.backend_name);
}

void Pipeline::admit(Session& session, std::uint64_t frame_id, const float* sample,
                     bool want_trace) {
    const std::uint64_t arrival = driver_.now_us();
    core::FramePlan plan =
        session.begin_frame(static_cast<double>(arrival) * 1e-6, frame_id);

    Reply reply;
    reply.stream = session.id();
    reply.response.frame_id = frame_id;
    reply.response.functional_modules =
        static_cast<std::uint32_t>(plan.functional_modules);
    FrameTrace trace;
    trace.stamp(TracePoint::rx, arrival);

    if (plan.functional_modules == 0) {
        const SessionResult result = session.complete_frame(
            plan, std::vector<std::optional<int>>(plan.states.size()));
        overload_.record(false);
        reply.response.status = ResponseStatus::no_output;
        reply.response.agreeing = static_cast<std::uint16_t>(result.agreeing);
        trace.stamp(TracePoint::vote, driver_.now_us());
        trace.stamp(TracePoint::tx, driver_.now_us());
        finish(reply, trace, want_trace);
        return;
    }

    if (inflight_.size() >= options_.max_inflight) {
        // Hard cap: refuse outright, and count it as a breach so the
        // controller keeps shedding while the backlog drains.
        static obs::Counter& dropped = obs::metrics().counter("serve.shed.dropped");
        dropped.add(1);
        MVREJU_OBS_EVENT_AT(arrival * 1000, obs::EventKind::load_shed, frame_id,
                            static_cast<std::uint32_t>(reply.stream), 2.0,
                            overload_.breach_fraction());
        overload_.record(true);
        reply.response.status = ResponseStatus::shed;
        trace.stamp(TracePoint::tx, driver_.now_us());
        finish(reply, trace, want_trace);
        return;
    }

    const bool degrade = options_.shedding && overload_.overloaded();
    const int primary = Session::primary_version(plan);
    // Resolve the models up front: once the first submit happens a full
    // batch may flush synchronously and finish this frame, so nothing below
    // may touch its inflight entry across a submit. The primary version is
    // functional, so at least one model runs.
    std::vector<std::pair<std::size_t, const ml::Sequential*>> runs;
    for (std::size_t m = 0; m < plan.states.size(); ++m) {
        if (degrade && static_cast<int>(m) != primary) continue;
        if (const ml::Sequential* model = session.model_for(m, plan.states[m]))
            runs.emplace_back(m, model);
    }

    const std::uint64_t key = next_key_++;
    InFlight& frame = inflight_[key];
    frame.stream = reply.stream;
    frame.frame_id = frame_id;
    frame.proposals.assign(plan.states.size(), std::nullopt);
    frame.remaining = static_cast<int>(runs.size());
    frame.arrival_us = arrival;
    frame.degraded = degrade;
    frame.want_trace = want_trace;
    frame.plan = std::move(plan);
    frame.trace = trace;
    if (degrade) {
        static obs::Counter& shed = obs::metrics().counter("serve.shed.degraded");
        shed.add(1);
        MVREJU_OBS_EVENT_AT(arrival * 1000, obs::EventKind::load_shed, frame_id,
                            static_cast<std::uint32_t>(reply.stream), 1.0,
                            overload_.breach_fraction());
    }
    // enqueue closes the parse stage: planning above, batcher staging below.
    frame.trace.stamp(TracePoint::enqueue, driver_.now_us());
    for (const auto& [m, model] : runs) {
        batcher_.submit(model, sample, arrival,
                        [this, key, m = m](int label, const BatchStamp& stamp) {
                            on_label(key, m, label, stamp);
                        });
    }
}

void Pipeline::on_label(std::uint64_t key, std::size_t version, int label,
                        const BatchStamp& stamp) {
    if (stamp.seq != flush_.seq) {  // first label of a new flush
        flush_ = stamp;
        driver_.on_flush(flush_);
    }
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) return;
    InFlight& frame = it->second;
    frame.proposals[version] = label;
    // Monotone stamps: a frame fanned over several flushes keeps the
    // boundaries of the last flush that carried one of its versions.
    frame.trace.stamp(TracePoint::formed, flush_.formed_us);
    frame.trace.stamp(TracePoint::infer_start, flush_.infer_start_us);
    frame.trace.stamp(TracePoint::infer_end, flush_.infer_end_us);
    if (--frame.remaining > 0) return;
    finalize(frame);
    inflight_.erase(it);
}

void Pipeline::finalize(InFlight& frame) {
    MVREJU_PROFILE_STAGE(profile_scope, "vote");
    Session* session = driver_.session(frame.stream);
    if (session == nullptr) return;  // the stream went away mid-flight
    const SessionResult result = session->complete_frame(frame.plan, frame.proposals);
    frame.trace.stamp(TracePoint::vote, driver_.now_us());

    Reply reply;
    reply.stream = frame.stream;
    reply.inferred = true;
    reply.latency_ms =
        static_cast<double>(driver_.now_us() - frame.arrival_us) / 1000.0;
    reply.breach = reply.latency_ms > options_.slo_budget_ms;
    if (reply.breach) {
        static obs::Counter& breaches = obs::metrics().counter("serve.slo_breach");
        breaches.add(1);
        MVREJU_OBS_EVENT_AT(driver_.now_us() * 1000, obs::EventKind::slo_breach,
                            frame.frame_id, static_cast<std::uint32_t>(frame.stream),
                            reply.latency_ms, options_.slo_budget_ms);
    }
    overload_.record(reply.breach);

    reply.response.frame_id = frame.frame_id;
    reply.response.status = static_cast<ResponseStatus>(result.kind);
    reply.response.degraded = frame.degraded;
    reply.response.agreeing = static_cast<std::uint16_t>(result.agreeing);
    reply.response.label = result.label;
    reply.response.functional_modules =
        static_cast<std::uint32_t>(result.functional_modules);
    // The wire annex is stamped just before the reply, so it cannot include
    // its own send; the FleetStats observation sees the same trace.
    frame.trace.stamp(TracePoint::tx, driver_.now_us());
    finish(reply, frame.trace, frame.want_trace);
}

void Pipeline::finish(Reply& reply, const FrameTrace& trace, bool want_trace) {
    if (want_trace) {
        reply.response.has_trace = true;
        reply.response.stage_us = trace.breakdown_us();
    }
    driver_.reply(reply);
    if (stats_ == nullptr) return;
    FrameObservation fo;
    fo.stream = static_cast<std::uint32_t>(reply.stream);
    fo.frame = reply.response.frame_id;
    fo.trace = trace;
    fo.status = reply.response.status;
    fo.degraded = reply.response.degraded;
    if (reply.inferred) {
        fo.latency_ms = reply.latency_ms;
        fo.slo_budget_ms = options_.slo_budget_ms;
    }
    stats_->observe(fo, driver_.now_us());
}

}  // namespace mvreju::serve
