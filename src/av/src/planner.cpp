#include "mvreju/av/planner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mvreju/av/sensor.hpp"

namespace mvreju::av {

Planner::Planner(PlannerConfig config) : config_(config) {
    if (config.max_accel <= 0 || config.max_brake <= 0 || config.comfort_brake <= 0 ||
        config.time_gap <= 0)
        throw std::invalid_argument("Planner: non-positive dynamics parameter");
}

void Planner::update_perception(std::optional<int> bucket) {
    if (bucket.has_value()) {
        if (*bucket < 0 || *bucket >= kDistanceBuckets)
            throw std::out_of_range("Planner: bad bucket");
        perceived_bucket_ = *bucket;
        consecutive_skips_ = 0;
    } else {
        // Skipped frame: hold the previous value, count towards staleness.
        ++consecutive_skips_;
    }
}

double Planner::target_speed(double route_limit) const {
    if (perceived_bucket_ == 0) return route_limit;
    const double distance = bucket_to_distance(perceived_bucket_);
    const double margin = distance - config_.safe_gap;
    if (margin <= 0.0) return 0.0;
    // Two constraints: time-gap headway and comfortable stopping distance.
    const double headway_speed = margin / config_.time_gap;
    const double stopping_speed = std::sqrt(2.0 * config_.comfort_brake * margin);
    return std::min({route_limit, headway_speed, stopping_speed});
}

double Planner::accel_command(double current_speed, double route_limit) const {
    if (consecutive_skips_ > 0) {
        // Perception skipped: driving properties unchanged (held command);
        // past the skip threshold the hold may no longer accelerate, and
        // after prolonged silence the vehicle brakes gently.
        if (config_.stale_threshold > 0 && consecutive_skips_ >= config_.stale_threshold)
            return current_speed > 0.0 ? -config_.stale_brake : 0.0;
        return perception_stale() ? std::min(held_accel_, 0.0) : held_accel_;
    }
    const double error = target_speed(route_limit) - current_speed;
    const double gain = error >= 0.0 ? config_.speed_kp : config_.brake_kp;
    held_accel_ = std::clamp(gain * error, -config_.max_brake, config_.max_accel);
    return held_accel_;
}

double curvature_limited_speed(const Route& route, double s,
                               const PlannerConfig& config) {
    double limit = route.speed_limit();
    for (double d = 0.0; d <= config.curve_preview; d += 4.0) {
        const double kappa = route.curvature_at(std::min(s + d, route.length()));
        if (kappa > 1e-4)
            limit = std::min(limit, std::sqrt(config.lat_accel_max / kappa));
    }
    return limit;
}

double pure_pursuit_steer(const EgoVehicle& ego, const Route& route, double& s_hint,
                          const PlannerConfig& config) {
    s_hint = route.project(ego.position(), s_hint);
    const double lookahead = config.lookahead_base + config.lookahead_gain * ego.speed();
    const Vec2 target = route.point_at(std::min(s_hint + lookahead, route.length()));
    const Obb frame{ego.position(), 2.25, 0.95, ego.heading()};
    const Vec2 local = to_local(frame, target);
    const double dist = std::max(local.norm(), 1e-6);
    const double alpha = std::atan2(local.y, local.x);
    // Classic pure pursuit with wheelbase 2.8 (matching EgoVehicle default).
    const double steer = std::atan2(2.0 * 2.8 * std::sin(alpha), dist);
    return std::clamp(steer, -config.max_steer, config.max_steer);
}

}  // namespace mvreju::av
