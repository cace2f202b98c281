#pragma once

// Planning and control: adaptive-cruise speed planning from the voted
// perception output (holding the last command on a skipped frame, per the
// paper's voting rules), proportional speed control, and pure-pursuit
// steering along the route.

#include <optional>

#include "mvreju/av/route.hpp"
#include "mvreju/av/vehicle.hpp"

namespace mvreju::av {

struct PlannerConfig {
    double max_accel = 1.3;      ///< m/s^2 (smooth urban ACC)
    double max_brake = 7.0;      ///< m/s^2 (emergency)
    double comfort_brake = 3.0;  ///< m/s^2 used for stopping-distance planning
    double safe_gap = 6.0;       ///< metres kept to the lead vehicle
    double time_gap = 1.5;       ///< seconds of headway
    double speed_kp = 1.2;       ///< proportional gain when accelerating
    double brake_kp = 4.0;       ///< proportional gain when slowing (ACC brakes
                                 ///< harder than it accelerates)
    double max_steer = 0.6;      ///< rad
    double lookahead_base = 4.0; ///< pure-pursuit lookahead (m) at standstill
    double lookahead_gain = 0.9; ///< extra lookahead per m/s
    double lat_accel_max = 2.2;  ///< m/s^2 comfort limit for cornering speed
    double curve_preview = 28.0; ///< metres of route scanned ahead for curvature
    /// Safe-skip threshold (Section IV of the paper, after Matovic et al.):
    /// on a skipped frame the previous acceleration command is simply held
    /// ("the AV does not update its driving properties"); once the skip run
    /// exceeds this threshold the held command is additionally capped at
    /// zero — the vehicle may coast but no longer blindly accelerate.
    /// 0 disables the cap.
    int skip_threshold = 8;
    /// Second escalation stage: past this many consecutive skips the vehicle
    /// brakes gently (perception has been silent for a long time).
    /// 0 disables the stage (coast indefinitely).
    int stale_threshold = 0;
    double stale_brake = 1.8;  ///< m/s^2 during the braking stage
};

/// Longitudinal planner. Perception updates arrive as the voted distance
/// bucket; on a skipped/no-output frame the previous perception is held
/// ("the AV does not update its driving properties", Section VII-A).
class Planner {
public:
    explicit Planner(PlannerConfig config = {});

    /// Feed the voter outcome for this frame. `bucket` is the decided
    /// distance bucket, or std::nullopt when the vote was skipped or empty.
    void update_perception(std::optional<int> bucket);

    /// Allowed speed from the current (held) perception and the route limit.
    [[nodiscard]] double target_speed(double route_limit) const;

    /// Commanded acceleration toward the target speed. On skipped frames the
    /// previous command is held (capped at zero past the skip threshold).
    [[nodiscard]] double accel_command(double current_speed, double route_limit) const;

    [[nodiscard]] int perceived_bucket() const noexcept { return perceived_bucket_; }
    [[nodiscard]] int consecutive_skips() const noexcept { return consecutive_skips_; }
    [[nodiscard]] bool perception_stale() const noexcept {
        return config_.skip_threshold > 0 && consecutive_skips_ >= config_.skip_threshold;
    }
    [[nodiscard]] const PlannerConfig& config() const noexcept { return config_; }

private:
    PlannerConfig config_;
    int perceived_bucket_ = 0;   ///< held across skipped frames; 0 = clear
    int consecutive_skips_ = 0;  ///< run length of skipped/no-output frames
    mutable double held_accel_ = 0.0;  ///< last commanded acceleration
};

/// Pure-pursuit steering command for the ego toward the route. `s_hint` is
/// the previous arc-length projection (returned updated).
[[nodiscard]] double pure_pursuit_steer(const EgoVehicle& ego, const Route& route,
                                        double& s_hint, const PlannerConfig& config);

/// Speed limit from the route's legal limit and the curvature of the next
/// `curve_preview` metres (comfortable lateral acceleration).
[[nodiscard]] double curvature_limited_speed(const Route& route, double s,
                                             const PlannerConfig& config);

}  // namespace mvreju::av
