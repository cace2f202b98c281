#include "mvreju/core/health.hpp"

#include <limits>
#include <stdexcept>

#include "mvreju/obs/exporter.hpp"

namespace mvreju::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

HealthEngine::HealthEngine(const HealthEngineConfig& config)
    : config_(config),
      rng_(config.seed),
      states_(static_cast<std::size_t>(config.modules), ModuleState::healthy),
      next_compromise_(kInf),
      next_failure_(kInf),
      reactive_done_(kInf),
      proactive_done_(kInf),
      next_trigger_(config.proactive ? config.timing.rejuvenation_interval : kInf) {
    if (config.modules < 1) throw std::invalid_argument("HealthEngine: modules < 1");
    const auto& t = config.timing;
    if (t.mttc <= 0 || t.mttf <= 0 || t.reactive_duration <= 0 ||
        t.proactive_duration <= 0 || t.rejuvenation_interval <= 0)
        throw std::invalid_argument("HealthEngine: non-positive timing parameter");
    resample_compromise();
}

int HealthEngine::module_count() const noexcept {
    return static_cast<int>(states_.size());
}

ModuleState HealthEngine::state(int module) const {
    return states_.at(static_cast<std::size_t>(module));
}

bool HealthEngine::functional(int module) const { return is_functional(state(module)); }

HealthEngine::Counts HealthEngine::counts() const {
    Counts c;
    for (ModuleState s : states_) {
        switch (s) {
            case ModuleState::healthy: ++c.healthy; break;
            case ModuleState::compromised: ++c.compromised; break;
            default: ++c.nonfunctional; break;
        }
    }
    return c;
}

void HealthEngine::resample_compromise() {
    next_compromise_ = counts().healthy > 0
                           ? now_ + rng_.exponential(1.0 / config_.timing.mttc)
                           : kInf;
}

void HealthEngine::resample_failure() {
    next_failure_ = counts().compromised > 0
                        ? now_ + rng_.exponential(1.0 / config_.timing.mttf)
                        : kInf;
}

int HealthEngine::pick_among(ModuleState wanted) {
    std::vector<int> eligible;
    for (int m = 0; m < module_count(); ++m)
        if (states_[static_cast<std::size_t>(m)] == wanted) eligible.push_back(m);
    if (eligible.empty()) return -1;
    return eligible[rng_.uniform_int(eligible.size())];
}

int HealthEngine::pick_victim() {
    const Counts c = counts();
    const int functional_count = c.healthy + c.compromised;
    if (functional_count == 0) return -1;
    double p_compromised = 0.0;
    switch (config_.policy) {
        case VictimPolicy::weighted_table1:
            p_compromised =
                static_cast<double>(c.compromised) / static_cast<double>(functional_count);
            break;
        case VictimPolicy::two_thirds_compromised:
            p_compromised = c.compromised > 0 ? 2.0 / 3.0 : 0.0;
            if (c.healthy == 0) p_compromised = 1.0;
            break;
        case VictimPolicy::compromised_first:
            p_compromised = c.compromised > 0 ? 1.0 : 0.0;
            break;
        case VictimPolicy::uniform:
            p_compromised =
                static_cast<double>(c.compromised) / static_cast<double>(functional_count);
            break;
    }
    const bool take_compromised =
        c.compromised > 0 && (c.healthy == 0 || rng_.bernoulli(p_compromised));
    const int victim =
        pick_among(take_compromised ? ModuleState::compromised : ModuleState::healthy);
    return victim >= 0 ? victim
                       : pick_among(take_compromised ? ModuleState::healthy
                                                     : ModuleState::compromised);
}

void HealthEngine::start_reactive_if_possible(double at) {
    if (reactive_active_ >= 0) return;
    const int module = pick_among(ModuleState::nonfunctional);
    if (module < 0) return;
    reactive_active_ = module;
    reactive_done_ = at + rng_.exponential(1.0 / config_.timing.reactive_duration);
}

void HealthEngine::try_start_proactive(double at) {
    if (!action_latched_) return;
    // Guard g2 of the DSPN: no non-functional and no proactive repair running.
    const Counts c = counts();
    if (c.nonfunctional > 0 || proactive_active_ >= 0) return;
    const int victim = pick_victim();
    if (victim < 0) return;  // nothing functional to rejuvenate
    action_latched_ = false;
    states_[static_cast<std::size_t>(victim)] = ModuleState::rejuvenating_proactive;
    proactive_active_ = victim;
    proactive_done_ = at + rng_.exponential(1.0 / config_.timing.proactive_duration);
    resample_compromise();
    resample_failure();
}

double HealthEngine::next_event_time() const {
    double t = next_compromise_;
    t = std::min(t, next_failure_);
    t = std::min(t, reactive_done_);
    t = std::min(t, proactive_done_);
    t = std::min(t, next_trigger_);
    return t;
}

void HealthEngine::process_next_event() {
    const double t = next_event_time();
    now_ = t;

    if (t == next_trigger_) {
        // Proactive clock fires; the clock always restarts immediately.
        next_trigger_ = t + config_.timing.rejuvenation_interval;
        ++stats_.proactive_triggers;
        // The Tac latch refuses a trigger while one is pending or a
        // proactive repair is running (tokens would pile up otherwise).
        if (action_latched_ || proactive_active_ >= 0) {
            ++stats_.deferred_triggers;
            return;
        }
        action_latched_ = true;
        if (counts().nonfunctional > 0) ++stats_.deferred_triggers;
        try_start_proactive(t);
        return;
    }

    if (t == reactive_done_) {
        states_[static_cast<std::size_t>(reactive_active_)] = ModuleState::healthy;
        reactive_active_ = -1;
        reactive_done_ = kInf;
        ++stats_.reactive_rejuvenations;
        last_rejuvenation_time_ = t;
        resample_compromise();
        start_reactive_if_possible(t);
        try_start_proactive(t);
        return;
    }

    if (t == proactive_done_) {
        states_[static_cast<std::size_t>(proactive_active_)] = ModuleState::healthy;
        proactive_active_ = -1;
        proactive_done_ = kInf;
        ++stats_.proactive_rejuvenations;
        last_rejuvenation_time_ = t;
        resample_compromise();
        return;
    }

    if (t == next_compromise_) {
        const int module = pick_among(ModuleState::healthy);
        states_[static_cast<std::size_t>(module)] = ModuleState::compromised;
        ++stats_.compromises;
        resample_compromise();
        resample_failure();
        return;
    }

    // Failure of a compromised module.
    const int module = pick_among(ModuleState::compromised);
    states_[static_cast<std::size_t>(module)] = ModuleState::nonfunctional;
    ++stats_.failures;
    resample_compromise();
    resample_failure();
    start_reactive_if_possible(t);
}

void HealthEngine::advance_to(double t) {
    if (t < now_) throw std::invalid_argument("HealthEngine::advance_to: time reversal");
    while (next_event_time() <= t) process_next_event();
    now_ = t;
}

void HealthEngine::force_compromise(int module) {
    if (state(module) != ModuleState::healthy)
        throw std::logic_error("force_compromise: module not healthy");
    states_[static_cast<std::size_t>(module)] = ModuleState::compromised;
    ++stats_.compromises;
    resample_compromise();
    resample_failure();
}

void HealthEngine::force_failure(int module) {
    if (!is_functional(state(module)))
        throw std::logic_error("force_failure: module not functional");
    states_[static_cast<std::size_t>(module)] = ModuleState::nonfunctional;
    ++stats_.failures;
    resample_compromise();
    resample_failure();
    start_reactive_if_possible(now_);
}

obs::HealthReport health_report(const HealthEngine& health) {
    obs::HealthReport report;
    for (int m = 0; m < health.module_count(); ++m) {
        switch (health.state(m)) {
            case ModuleState::healthy:
                ++report.healthy;
                report.module_states.emplace_back("healthy");
                break;
            case ModuleState::compromised:
                ++report.compromised;
                report.module_states.emplace_back("compromised");
                break;
            case ModuleState::nonfunctional:
                ++report.nonfunctional;
                report.module_states.emplace_back("nonfunctional");
                break;
            case ModuleState::rejuvenating_proactive:
                ++report.rejuvenating;
                report.module_states.emplace_back("rejuvenating");
                break;
        }
    }
    if (health.last_rejuvenation_time() >= 0.0)
        report.last_rejuvenation_age_s = health.now() - health.last_rejuvenation_time();
    return report;
}

}  // namespace mvreju::core
