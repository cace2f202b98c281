#include "mvreju/av/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "mvreju/core/system.hpp"
#include "mvreju/fi/inject.hpp"
#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/obs/trace.hpp"

namespace {

/// Frame-loop telemetry; resolved once so the per-frame path is just
/// relaxed atomic bumps on pre-registered cells.
struct AvTelemetry {
    mvreju::obs::Counter& frames;
    mvreju::obs::Counter& inferences;
    mvreju::obs::Counter& votes_decided;
    mvreju::obs::Counter& votes_skipped;
    mvreju::obs::Counter& votes_no_output;
    mvreju::obs::Counter& collision_frames;
    mvreju::obs::Histogram& perceive_ms;
    mvreju::obs::Gauge& trust_reliability;
    mvreju::obs::Gauge& trust_status;
    mvreju::obs::Counter& trust_sensor_faults;
    mvreju::obs::Gauge& degraded_mode;
    mvreju::obs::Counter& degraded_transitions;
    mvreju::obs::Counter& degraded_stop_frames;
    mvreju::obs::Counter& degraded_dropped;
};

AvTelemetry& av_telemetry() {
    mvreju::obs::Registry& reg = mvreju::obs::metrics();
    static AvTelemetry t{
        reg.counter("av.frames"),
        reg.counter("av.inferences"),
        reg.counter("av.votes.decided"),
        reg.counter("av.votes.skipped"),
        reg.counter("av.votes.no_output"),
        reg.counter("av.collision_frames"),
        reg.histogram("av.perceive_vote.latency_ms",
                      mvreju::obs::HistogramBounds::exponential(0.01, 2.0, 16)),
        reg.gauge("av.trust.reliability"),
        reg.gauge("av.trust.status"),
        reg.counter("av.trust.sensor_faults"),
        reg.gauge("av.degraded.mode"),
        reg.counter("av.degraded.transitions"),
        reg.counter("av.degraded.stop_frames"),
        reg.counter("av.degraded.dropped_proposals")};
    return t;
}

}  // namespace

namespace mvreju::av {

RunMetrics run_scenario(const Route& route, const DetectorSet& detectors,
                        const ScenarioConfig& config) {
    if (config.versions < 1 || config.versions > 5)
        throw std::invalid_argument("run_scenario: versions must be in [1, 5]");
    if (detectors.healthy.size() < static_cast<std::size_t>(config.versions) ||
        detectors.compromised.size() < static_cast<std::size_t>(config.versions))
        throw std::invalid_argument("run_scenario: not enough detector versions");
    for (int m = 0; m < config.versions; ++m)
        if (detectors.compromised[static_cast<std::size_t>(m)].empty())
            throw std::invalid_argument("run_scenario: empty compromised variant pool");
    if (config.dt <= 0.0 || config.horizon <= config.dt)
        throw std::invalid_argument("run_scenario: bad time parameters");

    util::Rng root(config.seed);
    util::Rng sensor_rng = root.split(1);
    const auto versions = static_cast<std::size_t>(config.versions);

    // Traffic: stop-and-go lead vehicles spaced along the route.
    std::vector<NpcVehicle> npcs;
    util::Rng npc_rng = root.split(3);
    for (int i = 0; i < config.npc_count; ++i) {
        NpcProfile profile;
        profile.cruise_speed = npc_rng.uniform(6.0, 8.0);
        profile.cruise_time = npc_rng.uniform(7.0, 12.0);
        profile.stop_time = npc_rng.uniform(2.0, 3.5);
        const double s0 = 40.0 + 55.0 * i + npc_rng.uniform(-5.0, 5.0);
        npcs.emplace_back(route, std::min(s0, route.length() - 10.0), profile,
                          npc_rng());
    }

    // Active corrupted variant per module; re-drawn on each compromise event
    // (PyTorchFI runtime perturbation: every attack corrupts differently).
    util::Rng variant_rng = root.split(4);
    std::vector<std::size_t> active_variant(versions, 0);
    // Healthy weights corrupted by scenario `inject` events (lazily deep-
    // copied); reset when the module completes rejuvenation, which models
    // reloading pristine weights from safe storage.
    std::vector<std::optional<ml::Sequential>> injected(versions);

    // The multi-version system: each version's behaviours read this run's
    // detector state, so a healthy version runs its injected copy when there
    // is one and a compromised version its drawn variant. Health process of
    // Section VII-A (2/3-prioritise policy).
    std::vector<core::VersionSpec<ml::Tensor, Detection>> specs;
    for (std::size_t m = 0; m < versions; ++m) {
        specs.push_back(
            {[&detectors, &injected, m](const ml::Tensor& x) {
                 return detect(injected[m] ? *injected[m] : detectors.healthy[m], x);
             },
             [&detectors, &active_variant, m](const ml::Tensor& x) {
                 return detect(detectors.compromised[m][active_variant[m]].model, x);
             }});
    }
    core::HealthEngineConfig health_cfg;
    health_cfg.modules = config.versions;
    health_cfg.proactive = config.rejuvenation;
    health_cfg.policy = config.victim_policy;
    health_cfg.timing.mttc = config.mttc;
    health_cfg.timing.mttf = config.mttf;
    health_cfg.timing.reactive_duration = config.reactive_duration;
    health_cfg.timing.proactive_duration = config.proactive_duration;
    health_cfg.timing.rejuvenation_interval = config.rejuvenation_interval;
    health_cfg.seed = root.split(2)();
    core::MultiVersionSystem<ml::Tensor, Detection, DetectionNear> system(
        std::move(specs), config.voting, health_cfg);
    core::HealthEngine& health = system.health();
    const core::VersionPool<ml::Tensor, Detection>& pool = *system.pool();

    EgoVehicle ego(route.point_at(0.0), route.heading_at(0.0));
    Planner planner(config.planner);
    double s_hint = 0.0;

    // Scenario replay and the degraded-mode machinery (ROADMAP item 3). The
    // player's impulse stream derives from the run seed, so a (scenario,
    // seed) pair replays bit-identically at any thread count — each run owns
    // its player and never shares RNG state.
    std::optional<ScenarioPlayer> player;
    if (config.scenario != nullptr)
        player.emplace(*config.scenario, root.split(6)());
    TrustMonitor trust(config.trust);
    DegradedModeController degraded(config.versions, config.policy);
    double trust_sum = 0.0;

    RunMetrics metrics;
    using Clock = std::chrono::steady_clock;
    MVREJU_OBS_SPAN(scenario_span, "av.run_scenario");
    scenario_span.arg("versions", static_cast<double>(config.versions));
    AvTelemetry& tel = av_telemetry();

    const int max_frames = static_cast<int>(config.horizon / config.dt);
    for (int frame = 0; frame < max_frames; ++frame) {
        MVREJU_OBS_SPAN(frame_span, "av.frame");
        frame_span.arg("frame", static_cast<double>(frame));
        const double now = frame * config.dt;
        // Advance every frame, stop frames included, so scripted weight
        // faults reach the engine at their own time, before the frame's plan.
        health.advance_to(now);
        // Flight-recorder events are stamped with the simulated clock so
        // dumps from seeded runs replay deterministically.
        const auto t_ns = static_cast<std::uint64_t>(now * 1e9);
        const auto frame_id = static_cast<std::uint64_t>(frame);

        // --- Sense ---
        std::vector<Obb> vehicle_boxes;
        vehicle_boxes.reserve(npcs.size());
        for (const NpcVehicle& npc : npcs) vehicle_boxes.push_back(npc.obb());
        ml::Tensor grid =
            render_grid(ego.obb(), vehicle_boxes, config.sensor, sensor_rng);
        if (player) {
            grid = player->apply(grid, now);
            for (const WeightFault& fault : player->due_weight_faults(now)) {
                if (fault.module < 0 || fault.module >= config.versions) continue;
                const auto mu = static_cast<std::size_t>(fault.module);
                switch (fault.kind) {
                    case WeightFaultKind::compromise:
                        // The stochastic health process may have beaten the
                        // script to it; an already-degraded module stays put.
                        if (health.state(fault.module) == core::ModuleState::healthy)
                            health.force_compromise(fault.module);
                        break;
                    case WeightFaultKind::fail:
                        if (core::is_functional(health.state(fault.module)))
                            health.force_failure(fault.module);
                        break;
                    case WeightFaultKind::inject: {
                        if (!injected[mu]) injected[mu] = detectors.healthy[mu];
                        const std::size_t layers =
                            fi::injectable_layer_count(*injected[mu]);
                        // Detector corruption range of Section VII-A.
                        fi::random_weight_inj(*injected[mu],
                                              fault.layer % layers, -100.0f,
                                              300.0f, fault.seed);
                        break;
                    }
                }
            }
        }

        // --- Input trust and policy ladder ---
        DegradedMode mode = DegradedMode::normal;
        if (config.trust_policy) {
            const SensorStatus status = trust.update(grid, config.dt);
            tel.trust_reliability.set(trust.reliability());
            tel.trust_status.set(static_cast<double>(status));
            if (status != SensorStatus::ok) {
                ++metrics.sensor_fault_frames;
                tel.trust_sensor_faults.add();
                MVREJU_OBS_EVENT_AT(t_ns, obs::EventKind::sensor_fault, frame_id,
                                    0, static_cast<double>(status),
                                    trust.reliability());
            }
            const DegradedMode before = degraded.mode();
            mode = degraded.update(trust.reliability());
            tel.degraded_mode.set(static_cast<double>(mode));
            if (mode != before) {
                tel.degraded_transitions.add();
                MVREJU_OBS_EVENT_AT(t_ns, obs::EventKind::degraded_mode, frame_id,
                                    0, static_cast<double>(mode),
                                    static_cast<double>(before));
            }
        }

        if (mode == DegradedMode::minimal_risk_stop) {
            // Minimal-risk manoeuvre: perception cannot be trusted at all,
            // so do not act on it — command the planner as if a hazard were
            // imminent and brake to a stop. No decided output this frame.
            ++metrics.stop_frames;
            tel.degraded_stop_frames.add();
            planner.update_perception(kDistanceBuckets - 1);
        } else {
            // --- Perceive (N versions) and vote ---
            MVREJU_OBS_SPAN(perceive_span, "av.perceive_vote");
            const auto t0 = Clock::now();
            const ml::Tensor* input = &grid;
            ml::Tensor pooled;
            if (mode == DegradedMode::reduced_resolution) {
                // Trade detail for robustness: mean pooling suppresses the
                // impulse noise that corrupts individual cells.
                pooled = reduced_resolution(grid);
                input = &pooled;
                ++metrics.reduced_frames;
            }
            // Stop frames make no plan, so the health snapshot (and with it
            // every transition below) is taken on perceived frames only.
            const core::FramePlan plan = system.begin_frame(now, frame_id);
            std::vector<std::optional<Detection>> proposals(versions);
            std::uint64_t frame_inferences = 0;
            for (std::size_t m = 0; m < versions; ++m) {
                const core::ModuleState state = plan.states[m];
                const core::ModuleState before = plan.previous_states[m];
                if (state == core::ModuleState::compromised &&
                    before != core::ModuleState::compromised) {
                    // Fresh compromise: draw which corruption this attack causes.
                    active_variant[m] =
                        variant_rng.uniform_int(detectors.compromised[m].size());
                }
                if (state == core::ModuleState::healthy && !core::is_functional(before))
                    injected[m].reset();  // rejuvenated: pristine weights
                if (!core::is_functional(state)) continue;
                if (config.trust_policy && degraded.version_dropped(static_cast<int>(m))) {
                    // Policy rung 1: a persistently dissenting version is
                    // excluded from the vote until its dissent decays.
                    ++metrics.dropped_proposals;
                    tel.degraded_dropped.add();
                    continue;
                }
                proposals[m] = pool.behaviour(m, state)(*input);
                ++frame_inferences;
            }
            const auto vote = system.complete_frame(plan, proposals).vote;
            const double perceive_seconds =
                std::chrono::duration<double>(Clock::now() - t0).count();
            metrics.perception_wall_seconds += perceive_seconds;
            metrics.inferences += frame_inferences;
            tel.inferences.add(frame_inferences);
            tel.perceive_ms.record(perceive_seconds * 1e3);
            // SLO: the perceive+vote stage must fit inside one frame period.
            const double budget_ms = config.dt * 1e3;
            if (perceive_seconds * 1e3 > budget_ms)
                MVREJU_OBS_EVENT_AT(t_ns, obs::EventKind::slo_breach, frame_id, 0,
                                    perceive_seconds * 1e3, budget_ms);
            perceive_span.arg("versions", static_cast<double>(config.versions));
            perceive_span.arg("decided", vote.kind == core::VoteKind::decided ? 1.0 : 0.0);
            perceive_span.end();

            switch (vote.kind) {
                case core::VoteKind::decided: {
                    ++metrics.decided_frames;
                    tel.votes_decided.add();
                    const int truth_bucket = distance_to_bucket(
                        ground_truth_distance(ego.obb(), vehicle_boxes, config.sensor));
                    if (vote.value->bucket <= truth_bucket - 2)
                        ++metrics.unsafe_decided_frames;
                    MVREJU_OBS_EVENT_AT(t_ns, obs::EventKind::hazard, frame_id, 0,
                                        static_cast<double>(vote.value->bucket),
                                        static_cast<double>(truth_bucket));
                    planner.update_perception(vote.value->bucket);
                    break;
                }
                case core::VoteKind::skipped:
                    ++metrics.skipped_frames;
                    tel.votes_skipped.add();
                    // Safe-skip: the planner holds its last command this frame.
                    planner.update_perception(std::nullopt);
                    break;
                case core::VoteKind::no_output:
                    ++metrics.no_output_frames;
                    tel.votes_no_output.add();
                    planner.update_perception(std::nullopt);
                    break;
            }

            if (config.trust_policy) {
                // Voter outcomes feed back into trust (weight faults show up
                // as skips, not as bad frame statistics) and per-version
                // dissent drives the drop rung.
                trust.observe_vote(vote.kind == core::VoteKind::decided,
                                   config.dt);
                degraded.observe_votes(
                    core::dissenting_proposals(proposals, vote, DetectionNear{}));
            }
        }

        if (config.trust_policy) {
            trust_sum += trust.reliability();
            metrics.min_trust = std::min(metrics.min_trust, trust.reliability());
        }

        // --- Plan and act ---
        const double limit = curvature_limited_speed(route, s_hint, config.planner);
        const double accel = planner.accel_command(ego.speed(), limit);
        const double steer = pure_pursuit_steer(ego, route, s_hint, config.planner);
        ego.step(accel, steer, config.dt);
        for (NpcVehicle& npc : npcs) npc.step(config.dt);

        // --- Collision accounting ---
        bool colliding = false;
        for (const NpcVehicle& npc : npcs) {
            if (overlaps(ego.obb(), npc.obb())) {
                colliding = true;
                // Push contact: the ego cannot move faster than the vehicle
                // it is jammed against, so contact persists until it brakes.
                if (ego.speed() > npc.speed()) ego.set_speed(npc.speed());
            }
        }
        ++metrics.total_frames;
        tel.frames.add();
        if (colliding) {
            ++metrics.collision_frames;
            tel.collision_frames.add();
            const bool first = metrics.first_collision_frame < 0;
            MVREJU_OBS_EVENT_AT(t_ns, obs::EventKind::collision, frame_id, 0,
                                ego.speed(), first ? 1.0 : 0.0);
            if (first) metrics.first_collision_frame = frame;
        }

        if (s_hint >= route.length() - 6.0) break;  // reached the destination
    }

    metrics.route_completed = s_hint / route.length();
    metrics.health_stats = health.stats();
    metrics.degraded_transitions = degraded.transitions();
    if (config.trust_policy && metrics.total_frames > 0)
        metrics.mean_trust = trust_sum / metrics.total_frames;
    scenario_span.arg("frames", static_cast<double>(metrics.total_frames));
    scenario_span.arg("route_completed", metrics.route_completed);
    return metrics;
}

}  // namespace mvreju::av
