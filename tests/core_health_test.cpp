#include "mvreju/core/health.hpp"

#include <gtest/gtest.h>

#include <map>

#include "mvreju/core/dspn_models.hpp"
#include "mvreju/dspn/solver.hpp"
#include "mvreju/obs/exporter.hpp"

namespace mvreju::core {
namespace {

HealthEngineConfig fast_config(int modules, bool proactive, std::uint64_t seed) {
    HealthEngineConfig cfg;
    cfg.modules = modules;
    cfg.proactive = proactive;
    cfg.seed = seed;
    // Compressed time scale (the Section VII-A style parameters).
    cfg.timing.mttc = 8.0;
    cfg.timing.mttf = 16.0;
    cfg.timing.reactive_duration = 0.5;
    cfg.timing.proactive_duration = 0.5;
    cfg.timing.rejuvenation_interval = 3.0;
    return cfg;
}

TEST(HealthEngine, StartsAllHealthy) {
    HealthEngine engine(fast_config(3, true, 1));
    EXPECT_EQ(engine.module_count(), 3);
    const auto c = engine.counts();
    EXPECT_EQ(c.healthy, 3);
    EXPECT_EQ(c.compromised, 0);
    EXPECT_EQ(c.nonfunctional, 0);
    EXPECT_TRUE(engine.functional(0));
}

TEST(HealthEngine, RejectsInvalidConfig) {
    HealthEngineConfig cfg = fast_config(0, true, 1);
    EXPECT_THROW(HealthEngine{cfg}, std::invalid_argument);
    cfg = fast_config(3, true, 1);
    cfg.timing.mttc = 0.0;
    EXPECT_THROW(HealthEngine{cfg}, std::invalid_argument);
}

TEST(HealthEngine, TimeReversalThrows) {
    HealthEngine engine(fast_config(3, true, 2));
    engine.advance_to(10.0);
    EXPECT_THROW(engine.advance_to(5.0), std::invalid_argument);
}

TEST(HealthEngine, ModulesEventuallyCompromiseAndFail) {
    HealthEngine engine(fast_config(3, false, 3));
    engine.advance_to(500.0);
    EXPECT_GT(engine.stats().compromises, 10u);
    EXPECT_GT(engine.stats().failures, 10u);
    EXPECT_GT(engine.stats().reactive_rejuvenations, 10u);
    EXPECT_EQ(engine.stats().proactive_triggers, 0u);
}

TEST(HealthEngine, ProactiveTriggersAtDeterministicInterval) {
    HealthEngine engine(fast_config(3, true, 4));
    engine.advance_to(30.1);
    // Interval 3.0 -> 10 triggers in (0, 30].
    EXPECT_EQ(engine.stats().proactive_triggers, 10u);
}

TEST(HealthEngine, ProactiveKeepsModulesHealthier) {
    HealthEngine with(fast_config(3, true, 5));
    HealthEngine without(fast_config(3, false, 5));
    // Time-average healthy counts over a long run, sampled densely.
    double healthy_with = 0.0;
    double healthy_without = 0.0;
    const int samples = 20'000;
    for (int i = 1; i <= samples; ++i) {
        const double t = 0.05 * i;
        with.advance_to(t);
        without.advance_to(t);
        healthy_with += with.counts().healthy;
        healthy_without += without.counts().healthy;
    }
    EXPECT_GT(healthy_with / samples, healthy_without / samples + 0.3);
}

TEST(HealthEngine, ForcedTransitions) {
    HealthEngine engine(fast_config(3, false, 6));
    engine.force_compromise(0);
    EXPECT_EQ(engine.state(0), ModuleState::compromised);
    EXPECT_THROW(engine.force_compromise(0), std::logic_error);
    engine.force_failure(0);
    EXPECT_EQ(engine.state(0), ModuleState::nonfunctional);
    EXPECT_THROW(engine.force_failure(0), std::logic_error);
    // Reactive rejuvenation repairs it shortly after.
    engine.advance_to(engine.now() + 50.0);
    EXPECT_NE(engine.state(0), ModuleState::nonfunctional);
    EXPECT_GE(engine.stats().reactive_rejuvenations, 1u);
}

TEST(HealthEngine, HealthReportMirrorsEngineStates) {
    HealthEngineConfig cfg;  // Table IV timing: no stochastic event for minutes
    cfg.proactive = false;
    HealthEngine engine(cfg);
    const obs::HealthReport fresh = health_report(engine);
    EXPECT_EQ(fresh.healthy, 3);
    EXPECT_DOUBLE_EQ(fresh.last_rejuvenation_age_s, -1.0);
    engine.force_compromise(0);
    engine.force_failure(1);
    const obs::HealthReport attacked = health_report(engine);
    EXPECT_EQ(attacked.healthy, 1);
    EXPECT_EQ(attacked.compromised, 1);
    EXPECT_EQ(attacked.nonfunctional, 1);
    EXPECT_EQ(attacked.module_states,
              (std::vector<std::string>{"compromised", "nonfunctional", "healthy"}));
    // Reactive repair of the crashed module completes within 0.5 s on
    // average; the age is then measured on the engine's clock.
    while (engine.stats().reactive_rejuvenations == 0)
        engine.advance_to(engine.now() + 0.1);
    const obs::HealthReport repaired = health_report(engine);
    EXPECT_EQ(repaired.nonfunctional, 0);
    EXPECT_DOUBLE_EQ(repaired.last_rejuvenation_age_s,
                     engine.now() - engine.last_rejuvenation_time());
    EXPECT_GE(repaired.last_rejuvenation_age_s, 0.0);
}

TEST(HealthEngine, DeterministicUnderSeed) {
    HealthEngine a(fast_config(3, true, 7));
    HealthEngine b(fast_config(3, true, 7));
    for (double t = 1.0; t < 100.0; t += 1.0) {
        a.advance_to(t);
        b.advance_to(t);
        for (int m = 0; m < 3; ++m) EXPECT_EQ(a.state(m), b.state(m)) << t;
    }
}

TEST(HealthEngine, ReactivePrecedesProactive) {
    // While a module is non-functional, no proactive rejuvenation may run.
    HealthEngine engine(fast_config(3, true, 8));
    for (double t = 0.05; t < 400.0; t += 0.05) {
        engine.advance_to(t);
        int proactive = 0;
        int nonfunctional_waiting = 0;
        for (int m = 0; m < 3; ++m) {
            if (engine.state(m) == ModuleState::rejuvenating_proactive) ++proactive;
            if (engine.state(m) == ModuleState::nonfunctional) ++nonfunctional_waiting;
        }
        EXPECT_LE(proactive, 1);
        // A proactive repair may outlast a later crash, but a *new* proactive
        // repair never starts while a module is down. We can only assert the
        // strong invariant at trigger instants, so assert the weak global
        // one here: never more than one proactive repair.
    }
    EXPECT_GT(engine.stats().proactive_rejuvenations, 50u);
}

/// Long-run state distribution of the engine must match the exact DSPN
/// steady state (the engine is the runtime twin of the Fig. 2/3 models).
class HealthVsDspn : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(HealthVsDspn, LongRunDistributionMatchesExactSolver) {
    const auto [modules, proactive] = GetParam();

    DspnConfig dspn_cfg;
    dspn_cfg.modules = modules;
    dspn_cfg.proactive = proactive;
    dspn_cfg.timing.mttc = 8.0;
    dspn_cfg.timing.mttf = 16.0;
    dspn_cfg.timing.reactive_duration = 0.5;
    dspn_cfg.timing.proactive_duration = 0.5;
    dspn_cfg.timing.rejuvenation_interval = 3.0;
    auto model = build_multiversion_dspn(dspn_cfg);
    dspn::ReachabilityGraph graph(model.net);
    const auto pi = dspn::dspn_steady_state(graph);

    // Exact marginal distribution over (healthy, compromised) counts.
    std::map<std::pair<int, int>, double> exact;
    for (std::size_t s = 0; s < graph.state_count(); ++s) {
        const auto& m = graph.marking(s);
        exact[{model.healthy(m), model.compromised(m)}] += pi[s];
    }

    HealthEngineConfig cfg;
    cfg.modules = modules;
    cfg.proactive = proactive;
    cfg.seed = 99;
    cfg.timing = dspn_cfg.timing;
    HealthEngine engine(cfg);

    std::map<std::pair<int, int>, double> observed;
    const int samples = 120'000;
    const double dt = 0.21;  // incommensurate with the 3.0 trigger period
    const int warmup = 500;
    for (int i = 0; i < samples + warmup; ++i) {
        engine.advance_to(dt * (i + 1));
        if (i < warmup) continue;
        const auto c = engine.counts();
        observed[{c.healthy, c.compromised}] += 1.0 / samples;
    }

    for (const auto& [state, probability] : exact) {
        EXPECT_NEAR(observed[state], probability, 0.02)
            << "state (h=" << state.first << ", c=" << state.second << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Configurations, HealthVsDspn,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(false, true)));

TEST(VictimPolicy, TwoThirdsPrefersCompromised) {
    // With one healthy + one compromised module, the 2/3 policy should pick
    // the compromised module about twice as often.
    int compromised_picked = 0;
    const int trials = 300;
    for (int trial = 0; trial < trials; ++trial) {
        HealthEngineConfig cfg = fast_config(2, true, 1000 + trial);
        cfg.policy = VictimPolicy::two_thirds_compromised;
        cfg.timing.mttc = 1.0;                    // compromise fast
        cfg.timing.mttf = 1e9;                    // never crash
        cfg.timing.rejuvenation_interval = 2.0;   // trigger soon
        cfg.timing.proactive_duration = 1e-3;
        HealthEngine engine(cfg);
        // Let exactly one compromise happen before the first trigger often
        // enough; sample the state right before the trigger.
        engine.advance_to(1.9999);
        const auto before = engine.counts();
        if (before.compromised != 1 || before.healthy != 1) continue;
        engine.advance_to(2.0001);
        // Victim went to rejuvenation: if the compromised one was chosen the
        // compromised count returns to zero.
        if (engine.counts().compromised == 0) ++compromised_picked;
        else --compromised_picked;
    }
    // 2/3 vs 1/3 -> expected positive margin.
    EXPECT_GT(compromised_picked, 20);
}

}  // namespace
}  // namespace mvreju::core
