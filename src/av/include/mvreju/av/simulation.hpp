#pragma once

// The closed-loop driving scenario of Section VII: an ego vehicle follows a
// route behind stop-and-go traffic, perceiving through a single- or
// three-version detector system whose modules degrade under the Section
// VII-A fault process and (optionally) recover through time-triggered
// rejuvenation. Reported metrics mirror Tables VI-VIII: collision rate
// (collision frames / total frames), first-collision frame, skipped frames
// and perception timing.

#include "mvreju/av/degraded.hpp"
#include "mvreju/av/perception.hpp"
#include "mvreju/av/planner.hpp"
#include "mvreju/av/route.hpp"
#include "mvreju/av/scenario.hpp"
#include "mvreju/av/trust.hpp"
#include "mvreju/core/health.hpp"
#include "mvreju/core/voter.hpp"

namespace mvreju::av {

struct ScenarioConfig {
    double dt = 0.05;        ///< 20 simulated frames per second
    double horizon = 33.0;   ///< seconds (a run is ~30 s in the paper)
    int versions = 3;        ///< 1 or 3 perception versions
    bool rejuvenation = true;

    // Fault-process parameters of Section VII-A.
    double mttc = 8.0;                  ///< 1/lambda_c
    double mttf = 16.0;                 ///< 1/lambda
    double reactive_duration = 0.5;     ///< 1/mu
    double proactive_duration = 0.5;    ///< 1/mu_r
    double rejuvenation_interval = 3.0; ///< 1/gamma (Table VII sweeps this)

    core::VictimPolicy victim_policy = core::VictimPolicy::two_thirds_compromised;
    core::VotingScheme voting = core::VotingScheme::majority;

    int npc_count = 2;
    SensorConfig sensor;
    PlannerConfig planner;
    std::uint64_t seed = 1;

    /// Optional sensor-failure scenario (scenario.hpp) replayed ahead of
    /// perception; its weight-fault events are delivered to the health
    /// engine / detector weights as they fall due. Null: clean sensor.
    /// The replay stream is derived from `seed`, so a (scenario, seed) pair
    /// is bit-identical regardless of thread count.
    const Scenario* scenario = nullptr;

    /// Run the input-trust monitor and degraded-mode policy ladder
    /// (trust.hpp / degraded.hpp). Off by default: the paper's case study
    /// evaluates the bare multi-version system.
    bool trust_policy = false;
    TrustConfig trust;
    DegradedPolicyConfig policy;
};

struct RunMetrics {
    int total_frames = 0;
    int collision_frames = 0;
    int skipped_frames = 0;    ///< voter diverged: command held
    int no_output_frames = 0;  ///< no functional module at all
    int decided_frames = 0;
    /// Decided frames whose voted bucket was optimistic by >= 2 buckets
    /// compared to ground truth (the dangerous outcome of agreeing faults).
    int unsafe_decided_frames = 0;
    int first_collision_frame = -1;  ///< -1: no collision
    double route_completed = 0.0;    ///< fraction of the route covered

    double perception_wall_seconds = 0.0;  ///< time spent in inference+vote
    std::size_t inferences = 0;            ///< total model invocations

    // Scenario / degraded-mode accounting (zero when trust_policy is off).
    int sensor_fault_frames = 0;  ///< frames the input monitor flagged non-ok
    int stop_frames = 0;          ///< frames spent in minimal-risk stop
    int reduced_frames = 0;       ///< frames inferred at reduced resolution
    std::size_t dropped_proposals = 0;  ///< proposals excluded by drop_versions
    int degraded_transitions = 0;       ///< policy-ladder mode changes
    double min_trust = 1.0;             ///< lowest reliability score seen
    double mean_trust = 1.0;            ///< mean reliability over the run

    core::HealthStats health_stats;

    [[nodiscard]] bool collided() const noexcept { return first_collision_frame >= 0; }
    [[nodiscard]] double collision_rate() const noexcept {
        return total_frames == 0
                   ? 0.0
                   : static_cast<double>(collision_frames) / total_frames;
    }
    [[nodiscard]] double skip_rate() const noexcept {
        return total_frames == 0
                   ? 0.0
                   : static_cast<double>(skipped_frames + no_output_frames) / total_frames;
    }
};

/// Run one scenario on `route` with the given detector versions.
[[nodiscard]] RunMetrics run_scenario(const Route& route, const DetectorSet& detectors,
                                      const ScenarioConfig& config);

}  // namespace mvreju::av
