#pragma once

// Event-driven health process of the multi-version ML system — the runtime
// twin of the DSPN models (Figures 2 and 3): modules drift from healthy (H)
// through compromised (C) to non-functional (N) under exponential
// compromise/failure clocks; reactive rejuvenation repairs non-functional
// modules one at a time; a deterministic proactive clock periodically
// rejuvenates one (randomly selected) functional module, deferring to
// reactive rejuvenation (the Pac latch of the DSPN).
//
// The statistics of this engine are validated against the exact DSPN steady
// state in tests/core_health_test.cpp.

#include <cstdint>
#include <vector>

#include "mvreju/reliability/functions.hpp"
#include "mvreju/util/rng.hpp"

namespace mvreju::obs {
struct HealthReport;
}

namespace mvreju::core {

enum class ModuleState {
    healthy,
    compromised,
    nonfunctional,          ///< crashed; waiting for / under reactive rejuvenation
    rejuvenating_proactive, ///< healthy/compromised module taken down on purpose
};

/// True when the module is producing (possibly wrong) outputs.
[[nodiscard]] constexpr bool is_functional(ModuleState s) noexcept {
    return s == ModuleState::healthy || s == ModuleState::compromised;
}

/// How the proactive mechanism picks its victim among functional modules.
enum class VictimPolicy {
    weighted_table1,          ///< P(compromised) = #C / (#C + #H), per Table I
    two_thirds_compromised,   ///< 2/3 prioritise compromised (Section VII-A)
    compromised_first,        ///< always clean a compromised module if any
    uniform,                  ///< uniform over functional modules (ablation)
};

struct HealthEngineConfig {
    int modules = 3;
    bool proactive = true;
    VictimPolicy policy = VictimPolicy::weighted_table1;
    reliability::TimingParams timing;  ///< Table IV defaults
    std::uint64_t seed = 42;
};

/// Aggregate event counters (for reporting and tests).
struct HealthStats {
    std::size_t compromises = 0;
    std::size_t failures = 0;
    std::size_t reactive_rejuvenations = 0;   ///< completed
    std::size_t proactive_rejuvenations = 0;  ///< completed
    std::size_t proactive_triggers = 0;
    std::size_t deferred_triggers = 0;  ///< triggers latched behind reactive work
};

/// Deterministic (under seed) event-driven simulation of the module health
/// process. Time is continuous and starts at 0 with all modules healthy.
class HealthEngine {
public:
    explicit HealthEngine(const HealthEngineConfig& config);

    /// Process all events up to and including time t (monotonic; t must not
    /// decrease across calls).
    void advance_to(double t);

    [[nodiscard]] double now() const noexcept { return now_; }
    [[nodiscard]] int module_count() const noexcept;
    [[nodiscard]] ModuleState state(int module) const;
    [[nodiscard]] bool functional(int module) const;

    /// Counts of modules per state: (healthy, compromised, non-functional)
    /// where non-functional includes reactive and proactive rejuvenation.
    struct Counts {
        int healthy = 0;
        int compromised = 0;
        int nonfunctional = 0;
    };
    [[nodiscard]] Counts counts() const;

    [[nodiscard]] const HealthStats& stats() const noexcept { return stats_; }

    /// Completion time of the most recent rejuvenation (reactive or
    /// proactive); negative when none has completed yet. Feeds the
    /// last-rejuvenation age reported by /healthz.
    [[nodiscard]] double last_rejuvenation_time() const noexcept {
        return last_rejuvenation_time_;
    }

    /// Force a module into the compromised state now (fault injection hook).
    void force_compromise(int module);
    /// Force a module crash now.
    void force_failure(int module);

private:
    // Rates follow the single-server semantics of the DSPN default (one
    // shared compromise/failure/repair clock regardless of how many modules
    // are eligible); the affected module is drawn uniformly when the shared
    // clock fires. This matches the solver configuration that reproduces the
    // paper's Table V.
    void resample_compromise();
    void resample_failure();
    void start_reactive_if_possible(double at);
    void try_start_proactive(double at);
    [[nodiscard]] int pick_among(ModuleState wanted);
    [[nodiscard]] int pick_victim();

    /// Time of the next discrete event (infinity if none).
    [[nodiscard]] double next_event_time() const;
    void process_next_event();

    HealthEngineConfig config_;
    util::Rng rng_;
    double now_ = 0.0;
    std::vector<ModuleState> states_;
    double next_compromise_;        ///< shared H->C clock (inf when no H)
    double next_failure_;           ///< shared C->N clock (inf when no C)
    double reactive_done_;          ///< completion of the running reactive repair
    double proactive_done_;         ///< completion of the running proactive repair
    double next_trigger_;           ///< deterministic proactive clock
    bool action_latched_ = false;   ///< Pac: trigger waiting for g2
    int reactive_active_ = -1;      ///< module under reactive repair, -1 none
    int proactive_active_ = -1;     ///< module under proactive repair, -1 none
    double last_rejuvenation_time_ = -1.0;
    HealthStats stats_;
};

/// The engine's module states as the exporter's /healthz report: per-state
/// counts, per-version state names ("healthy", "compromised",
/// "nonfunctional", "rejuvenating") and the age of the last completed
/// rejuvenation on the engine's clock.
[[nodiscard]] obs::HealthReport health_report(const HealthEngine& health);

}  // namespace mvreju::core
