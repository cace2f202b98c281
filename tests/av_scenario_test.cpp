#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "mvreju/av/degraded.hpp"
#include "mvreju/av/scenario.hpp"
#include "mvreju/av/simulation.hpp"
#include "mvreju/av/trust.hpp"
#include "mvreju/core/voter.hpp"
#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/util/parallel.hpp"
#include "mvreju/util/rng.hpp"

namespace mvreju::av {
namespace {

std::vector<float> as_vec(const ml::Tensor& t) {
    return {t.data().begin(), t.data().end()};
}

// ---------------------------------------------------------------- parser --

TEST(ScenarioParse, GoldenFreezeWindow) {
    const Scenario s = parse_scenario("scenario s\nat 6 until 16 freeze\n");
    EXPECT_EQ(s.name, "s");
    ASSERT_EQ(s.sensor_faults.size(), 1u);
    EXPECT_EQ(s.sensor_faults[0].kind, CorruptionKind::freeze);
    EXPECT_DOUBLE_EQ(s.sensor_faults[0].begin, 6.0);
    EXPECT_DOUBLE_EQ(s.sensor_faults[0].end, 16.0);
    EXPECT_TRUE(s.any_sensor_fault(10.0));
    EXPECT_FALSE(s.any_sensor_fault(16.0));  // half-open window
    EXPECT_FALSE(s.any_sensor_fault(2.0));
}

TEST(ScenarioParse, GoldenBlankDefaultAndExplicitLevel) {
    const Scenario s =
        parse_scenario("scenario s\nat 5 blank\nat 18 until 24 blank 0.05\n");
    ASSERT_EQ(s.sensor_faults.size(), 2u);
    EXPECT_EQ(s.sensor_faults[0].kind, CorruptionKind::blank);
    EXPECT_DOUBLE_EQ(s.sensor_faults[0].a, 0.0);
    EXPECT_TRUE(std::isinf(s.sensor_faults[0].end));  // open-ended window
    EXPECT_DOUBLE_EQ(s.sensor_faults[1].a, 0.05);
    EXPECT_DOUBLE_EQ(s.sensor_faults[1].end, 24.0);
}

TEST(ScenarioParse, GoldenSaltPepperLowLightOcclude) {
    const Scenario s = parse_scenario(
        "scenario s\n"
        "at 4 until 26 saltpepper 0.18\n"
        "at 5 until 25 lowlight 0.22\n"
        "at 6 until 24 occlude 0.25 0.45\n");
    ASSERT_EQ(s.sensor_faults.size(), 3u);
    EXPECT_EQ(s.sensor_faults[0].kind, CorruptionKind::salt_pepper);
    EXPECT_DOUBLE_EQ(s.sensor_faults[0].a, 0.18);
    EXPECT_EQ(s.sensor_faults[1].kind, CorruptionKind::low_light);
    EXPECT_DOUBLE_EQ(s.sensor_faults[1].a, 0.22);
    EXPECT_EQ(s.sensor_faults[2].kind, CorruptionKind::occlusion);
    EXPECT_DOUBLE_EQ(s.sensor_faults[2].a, 0.25);
    EXPECT_DOUBLE_EQ(s.sensor_faults[2].b, 0.45);
}

TEST(ScenarioParse, GoldenWeightEventsSortedByTime) {
    const Scenario s = parse_scenario(
        "scenario s\n"
        "seed 42\n"
        "at 10 inject 1 3 7\n"
        "at 3 compromise 0\n"
        "at 5 fail 2\n");
    EXPECT_EQ(s.seed, 42u);
    ASSERT_EQ(s.weight_faults.size(), 3u);
    EXPECT_EQ(s.weight_faults[0].kind, WeightFaultKind::compromise);
    EXPECT_DOUBLE_EQ(s.weight_faults[0].at, 3.0);
    EXPECT_EQ(s.weight_faults[0].module, 0);
    EXPECT_EQ(s.weight_faults[1].kind, WeightFaultKind::fail);
    EXPECT_EQ(s.weight_faults[1].module, 2);
    EXPECT_EQ(s.weight_faults[2].kind, WeightFaultKind::inject);
    EXPECT_EQ(s.weight_faults[2].module, 1);
    EXPECT_EQ(s.weight_faults[2].layer, 3u);
    EXPECT_EQ(s.weight_faults[2].seed, 7u);
}

TEST(ScenarioParse, CommentsAndBlankLinesIgnored) {
    const Scenario s = parse_scenario(
        "# header comment\n\nscenario s  # trailing\n\n  at 1 freeze # why\n");
    EXPECT_EQ(s.name, "s");
    EXPECT_EQ(s.sensor_faults.size(), 1u);
}

TEST(ScenarioParse, BuiltinsRoundTripThroughText) {
    const auto& names = builtin_scenario_names();
    ASSERT_EQ(names.size(), 7u);
    for (const std::string& name : names) {
        SCOPED_TRACE(name);
        const Scenario s = builtin_scenario(name);
        EXPECT_EQ(s.name, name);
        const std::string canon = to_text(s);
        EXPECT_EQ(to_text(parse_scenario(canon)), canon);
        // The stored source parses to the same canonical form.
        EXPECT_EQ(to_text(parse_scenario(builtin_scenario_text(name))), canon);
    }
    EXPECT_THROW((void)builtin_scenario("nope"), std::invalid_argument);
}

TEST(ScenarioParse, FileRoundTrip) {
    const auto path =
        std::filesystem::temp_directory_path() / "mvreju_scenario_test.scn";
    {
        std::ofstream out(path);
        out << builtin_scenario_text("compound");
    }
    const Scenario s = parse_scenario_file(path);
    EXPECT_EQ(to_text(s), to_text(builtin_scenario("compound")));
    std::filesystem::remove(path);
    EXPECT_THROW((void)parse_scenario_file(path), std::runtime_error);
}

TEST(ScenarioParse, ErrorOffsetsPointAtOffendingToken) {
    // Missing the required `scenario` header.
    try {
        (void)parse_scenario("seed 3\n");
        FAIL() << "expected ScenarioParseError";
    } catch (const ScenarioParseError& e) {
        EXPECT_EQ(e.offset(), 0u);
    }
    // Unknown directive: the offset lands on the bad token itself.
    const std::string bad = "scenario s\nat 1 wobble\n";
    try {
        (void)parse_scenario(bad);
        FAIL() << "expected ScenarioParseError";
    } catch (const ScenarioParseError& e) {
        EXPECT_EQ(e.offset(), bad.find("wobble"));
        EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos);
    }
    // Malformed number.
    const std::string nan = "scenario s\nat abc freeze\n";
    try {
        (void)parse_scenario(nan);
        FAIL() << "expected ScenarioParseError";
    } catch (const ScenarioParseError& e) {
        EXPECT_EQ(e.offset(), nan.find("abc"));
    }
}

TEST(ScenarioParse, RejectsEmptyUntilAndBadFractions) {
    // until must be strictly after at.
    const std::string rev = "scenario s\nat 5 until 5 freeze\n";
    try {
        (void)parse_scenario(rev);
        FAIL() << "expected ScenarioParseError";
    } catch (const ScenarioParseError& e) {
        EXPECT_GE(e.offset(), rev.find("until"));
    }
    // Fractions live in [0, 1].
    EXPECT_THROW((void)parse_scenario("scenario s\nat 1 saltpepper 1.5\n"),
                 ScenarioParseError);
    // Weight events are instantaneous: no until.
    EXPECT_THROW((void)parse_scenario("scenario s\nat 3 until 5 compromise 0\n"),
                 ScenarioParseError);
    // Trailing junk after a complete directive.
    EXPECT_THROW((void)parse_scenario("scenario s\nat 1 freeze extra\n"),
                 ScenarioParseError);
}

// ---------------------------------------------------------------- player --

ml::Tensor dithered_frame(std::size_t n, util::Rng& rng) {
    ml::Tensor t({2, n, n});
    for (std::size_t h = 0; h < n; ++h)
        for (std::size_t w = 0; w < n; ++w) {
            t.at3(0, h, w) = static_cast<float>(
                std::clamp(0.5 + rng.normal(0.0, 0.06), 0.0, 1.0));
            t.at3(1, h, w) = static_cast<float>(std::clamp(
                1.0 - static_cast<double>(h) / n + rng.normal(0.0, 0.06), 0.0,
                1.0));
        }
    return t;
}

TEST(ScenarioPlayerTest, FreezeRepeatsLastDeliveredFrame) {
    ScenarioPlayer player(parse_scenario("scenario s\nat 1 freeze\n"), 9);
    util::Rng rng(5);
    const ml::Tensor a = dithered_frame(8, rng);
    const ml::Tensor b = dithered_frame(8, rng);
    EXPECT_EQ(as_vec(player.apply(a, 0.0)), as_vec(a));  // pre-window: clean
    EXPECT_EQ(as_vec(player.apply(b, 1.0)), as_vec(a));  // frozen: re-emits a
    EXPECT_EQ(as_vec(player.apply(b, 2.0)), as_vec(a));
    EXPECT_EQ(player.active(1.5), std::vector<CorruptionKind>{CorruptionKind::freeze});
    EXPECT_TRUE(player.active(0.5).empty());
}

TEST(ScenarioPlayerTest, FreezeOnFirstFrameDeliversTheInput) {
    ScenarioPlayer player(parse_scenario("scenario s\nat 0 freeze\n"), 9);
    util::Rng rng(5);
    const ml::Tensor a = dithered_frame(8, rng);
    EXPECT_EQ(as_vec(player.apply(a, 0.0)), as_vec(a));  // nothing to repeat yet
}

TEST(ScenarioPlayerTest, BlankAndLowLightAndOcclusion) {
    util::Rng rng(5);
    const ml::Tensor clean = dithered_frame(8, rng);
    {
        ScenarioPlayer p(parse_scenario("scenario s\nat 0 blank 0.05\n"), 1);
        const ml::Tensor out = p.apply(clean, 0.0);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_FLOAT_EQ(out[i], 0.05f);
    }
    {
        ScenarioPlayer p(parse_scenario("scenario s\nat 0 lowlight 0.25\n"), 1);
        const ml::Tensor out = p.apply(clean, 0.0);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_FLOAT_EQ(out[i], clean[i] * 0.25f);
    }
    {
        ScenarioPlayer p(
            parse_scenario("scenario s\nat 0 occlude 0.25 0.5\n"), 1);
        const ml::Tensor out = p.apply(clean, 0.0);
        for (std::size_t c = 0; c < 2; ++c)
            for (std::size_t h = 0; h < 8; ++h)
                for (std::size_t w = 0; w < 8; ++w) {
                    const bool occluded = h >= 2 && h < 6;  // rows [2, 6)
                    EXPECT_FLOAT_EQ(out.at3(c, h, w),
                                    occluded ? 0.0f : clean.at3(c, h, w));
                }
    }
}

TEST(ScenarioPlayerTest, SaltPepperIsSeedDeterministic) {
    const Scenario s = parse_scenario("scenario s\nat 0 saltpepper 0.3\n");
    util::Rng rng(5);
    std::vector<ml::Tensor> frames;
    for (int i = 0; i < 5; ++i) frames.push_back(dithered_frame(10, rng));

    ScenarioPlayer p1(s, 17), p2(s, 17), p3(s, 18);
    bool any_differs_across_seeds = false;
    std::size_t corrupted = 0;
    for (int i = 0; i < 5; ++i) {
        const ml::Tensor a = p1.apply(frames[i], 0.1 * i);
        const ml::Tensor b = p2.apply(frames[i], 0.1 * i);
        const ml::Tensor c = p3.apply(frames[i], 0.1 * i);
        EXPECT_EQ(as_vec(a), as_vec(b));  // same seed: bit-identical
        if (as_vec(a) != as_vec(c)) any_differs_across_seeds = true;
        for (std::size_t j = 0; j < a.size(); ++j)
            if (a[j] != frames[i][j]) {
                ++corrupted;
                EXPECT_TRUE(a[j] == 0.0f || a[j] == 1.0f);
            }
    }
    EXPECT_TRUE(any_differs_across_seeds);
    // ~30% of 5*200 pixels; loose two-sided bound.
    EXPECT_GT(corrupted, 150u);
    EXPECT_LT(corrupted, 450u);
}

TEST(ScenarioPlayerTest, WeightFaultsDeliverExactlyOnce) {
    ScenarioPlayer player(parse_scenario(
        "scenario s\nat 3 compromise 0\nat 10 inject 1 2 7\n"));
    EXPECT_TRUE(player.due_weight_faults(2.9).empty());
    const auto first = player.due_weight_faults(5.0);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].kind, WeightFaultKind::compromise);
    EXPECT_TRUE(player.due_weight_faults(5.0).empty());  // already delivered
    const auto second = player.due_weight_faults(20.0);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].kind, WeightFaultKind::inject);
    EXPECT_TRUE(player.due_weight_faults(99.0).empty());
}

// ----------------------------------------------------------------- trust --

TEST(TrustMonitorTest, CleanFramesStayOkAtFullReliability) {
    TrustMonitor trust;
    util::Rng rng(3);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(trust.update(dithered_frame(12, rng), 0.05), SensorStatus::ok);
    }
    EXPECT_DOUBLE_EQ(trust.reliability(), 1.0);
    EXPECT_GT(trust.stats().delta, 0.02);   // dither keeps frames moving
    EXPECT_LT(trust.stats().ramp_dev, 0.08);
}

TEST(TrustMonitorTest, DetectsFrozenBlankAndCorruptedFrames) {
    util::Rng rng(3);
    const ml::Tensor clean = dithered_frame(12, rng);
    {
        TrustMonitor trust;
        (void)trust.update(clean, 0.05);
        EXPECT_EQ(trust.update(clean, 0.05), SensorStatus::frozen);
        EXPECT_LT(trust.reliability(), 1.0);
    }
    {
        TrustMonitor trust;
        EXPECT_EQ(trust.update(ml::Tensor({2, 12, 12}, 0.0f), 0.05),
                  SensorStatus::blank);
    }
    {
        TrustMonitor trust;
        ml::Tensor impulsed = clean;
        util::Rng imp(9);
        for (std::size_t i = 0; i < impulsed.size(); ++i)
            if (imp.bernoulli(0.25)) impulsed[i] = 1.0f;
        EXPECT_EQ(trust.update(impulsed, 0.05), SensorStatus::corrupted);
        EXPECT_GT(trust.stats().impulse, 0.10);
    }
}

TEST(TrustMonitorTest, ComputeStatsMatchesContract) {
    util::Rng rng(3);
    const ml::Tensor clean = dithered_frame(12, rng);
    const FrameStats first = TrustMonitor::compute_stats(clean, nullptr);
    EXPECT_DOUBLE_EQ(first.delta, 1.0);  // no previous frame: never frozen
    const FrameStats second = TrustMonitor::compute_stats(clean, &clean);
    EXPECT_DOUBLE_EQ(second.delta, 0.0);
    EXPECT_GT(second.entropy, 0.2);
    const FrameStats blank =
        TrustMonitor::compute_stats(ml::Tensor({2, 12, 12}, 0.3f), &clean);
    EXPECT_NEAR(blank.luma, 0.3, 1e-6);
    EXPECT_NEAR(blank.entropy, 0.0, 1e-9);  // single-bin histogram
}

TEST(TrustMonitorTest, DecayIsFasterThanRecovery) {
    TrustMonitor trust;
    util::Rng rng(3);
    (void)trust.update(dithered_frame(12, rng), 0.05);
    const ml::Tensor blank({2, 12, 12}, 0.0f);
    (void)trust.update(blank, 0.05);
    const double after_one_fault = trust.reliability();
    ASSERT_LT(after_one_fault, 1.0);
    (void)trust.update(dithered_frame(12, rng), 0.05);
    const double after_one_recovery = trust.reliability();
    EXPECT_GT(1.0 - after_one_fault,
              after_one_recovery - after_one_fault);  // asymmetric dynamics
    // Voter skips erode trust even when frames look clean.
    TrustMonitor vote_trust;
    (void)vote_trust.update(dithered_frame(12, rng), 0.05);
    vote_trust.observe_vote(false, 0.05);
    EXPECT_LT(vote_trust.reliability(), 1.0);
    vote_trust.observe_vote(true, 0.05);  // decided votes cost nothing
    EXPECT_LE(vote_trust.reliability(), 1.0);
}

// -------------------------------------------------------------- degraded --

TEST(DegradedControllerTest, EscalatesImmediatelyAcrossRungs) {
    DegradedModeController ctl(3);
    EXPECT_EQ(ctl.update(0.95), DegradedMode::normal);
    EXPECT_EQ(ctl.update(0.1), DegradedMode::minimal_risk_stop);  // multi-rung
    EXPECT_GE(ctl.transitions(), 1);
    EXPECT_THROW(DegradedModeController(0), std::invalid_argument);
}

TEST(DegradedControllerTest, RecoveryIsHystereticAndOneRungAtATime) {
    DegradedModeController ctl(3);
    (void)ctl.update(0.1);
    ASSERT_EQ(ctl.mode(), DegradedMode::minimal_risk_stop);
    // stop entry threshold 0.25 + margin 0.1: 0.3 is not enough to recover.
    for (int i = 0; i < 30; ++i) (void)ctl.update(0.3);
    EXPECT_EQ(ctl.mode(), DegradedMode::minimal_risk_stop);
    // High reliability de-escalates one rung per 10-frame dwell.
    for (int i = 0; i < 10; ++i) (void)ctl.update(0.99);
    EXPECT_EQ(ctl.mode(), DegradedMode::reduced_resolution);
    for (int i = 0; i < 10; ++i) (void)ctl.update(0.99);
    EXPECT_EQ(ctl.mode(), DegradedMode::drop_versions);
    for (int i = 0; i < 10; ++i) (void)ctl.update(0.99);
    EXPECT_EQ(ctl.mode(), DegradedMode::normal);
}

TEST(DegradedControllerTest, DropsPersistentDissenterButKeepsTwoVersions) {
    DegradedModeController ctl(3);
    (void)ctl.update(0.7);  // rung: drop_versions
    ASSERT_EQ(ctl.mode(), DegradedMode::drop_versions);
    for (int i = 0; i < 40; ++i) ctl.observe_votes({true, false, false});
    EXPECT_GT(ctl.dissent(0), 0.9);
    EXPECT_LT(ctl.dissent(1), 0.1);
    EXPECT_TRUE(ctl.version_dropped(0));
    EXPECT_FALSE(ctl.version_dropped(1));
    // Two persistent dissenters: at most one may be dropped (floor of 2 kept).
    DegradedModeController floor(3);
    (void)floor.update(0.7);
    for (int i = 0; i < 40; ++i) floor.observe_votes({true, true, false});
    int dropped = 0;
    for (int m = 0; m < 3; ++m) dropped += floor.version_dropped(m) ? 1 : 0;
    EXPECT_LE(dropped, 1);
    // Below the drop rung nothing is excluded regardless of dissent.
    DegradedModeController calm(3);
    for (int i = 0; i < 40; ++i) calm.observe_votes({true, false, false});
    (void)calm.update(0.95);
    EXPECT_FALSE(calm.version_dropped(0));
}

TEST(DegradedControllerTest, ReducedResolutionMeanPoolsInPlace) {
    ml::Tensor frame({1, 4, 4});
    for (std::size_t i = 0; i < frame.size(); ++i)
        frame[i] = static_cast<float>(i);
    const ml::Tensor pooled = reduced_resolution(frame);
    ASSERT_EQ(pooled.shape(), frame.shape());
    // Top-left 2x2 block of a row-major 4x4 ramp: (0 + 1 + 4 + 5) / 4.
    EXPECT_FLOAT_EQ(pooled.at3(0, 0, 0), 2.5f);
    EXPECT_FLOAT_EQ(pooled.at3(0, 0, 1), 2.5f);
    EXPECT_FLOAT_EQ(pooled.at3(0, 1, 0), 2.5f);
    EXPECT_FLOAT_EQ(pooled.at3(0, 3, 3), (10.f + 11.f + 14.f + 15.f) / 4.f);
    // A lone impulse is attenuated 4x by the pooling window.
    ml::Tensor impulse({1, 4, 4}, 0.0f);
    impulse.at3(0, 0, 0) = 1.0f;
    EXPECT_FLOAT_EQ(reduced_resolution(impulse).at3(0, 0, 0), 0.25f);
}

TEST(DissentingProposals, FlagsOnlyDisagreeingVersions) {
    const std::vector<std::optional<Detection>> proposals{
        Detection{3}, Detection{6}, std::nullopt};
    core::VoteResult<Detection> decided;
    decided.kind = core::VoteKind::decided;
    decided.value = Detection{3};
    const auto flags =
        core::dissenting_proposals(proposals, decided, DetectionNear{});
    ASSERT_EQ(flags.size(), 3u);
    EXPECT_FALSE(flags[0]);
    EXPECT_TRUE(flags[1]);
    EXPECT_FALSE(flags[2]);  // absent proposal cannot dissent
    core::VoteResult<Detection> skipped;
    skipped.kind = core::VoteKind::skipped;
    const auto none =
        core::dissenting_proposals(proposals, skipped, DetectionNear{});
    EXPECT_EQ(std::count(none.begin(), none.end(), true), 0);
}

// ------------------------------------------------------------ end-to-end --

/// Small, fast detector set shared by the whole suite (trained once; same
/// cache as av_perception_simulation_test so CI reuses the artifacts).
const DetectorSet& test_detectors() {
    static const DetectorSet set = [] {
        SensorConfig sensor;
        DetectorTrainOptions opts;
        opts.train_samples = 1200;
        opts.eval_samples = 400;
        opts.epochs = 4;
        opts.cache_dir = std::filesystem::temp_directory_path() / "mvreju_test_detectors";
        return prepare_detectors(sensor, opts);
    }();
    return set;
}

std::vector<double> metrics_key(const RunMetrics& m) {
    return {static_cast<double>(m.total_frames),
            static_cast<double>(m.decided_frames),
            static_cast<double>(m.skipped_frames),
            static_cast<double>(m.unsafe_decided_frames),
            static_cast<double>(m.collision_frames),
            static_cast<double>(m.sensor_fault_frames),
            static_cast<double>(m.stop_frames),
            static_cast<double>(m.reduced_frames),
            static_cast<double>(m.dropped_proposals),
            static_cast<double>(m.degraded_transitions),
            m.min_trust,
            m.mean_trust,
            m.route_completed};
}

/// The pinned outcome record of one run: metrics_key, the counters it
/// leaves out (no-output frames, first collision, inferences) and the six
/// health-process counters.
std::vector<double> outcome_record(const RunMetrics& m) {
    std::vector<double> record = metrics_key(m);
    const core::HealthStats& h = m.health_stats;
    for (const double v :
         {static_cast<double>(m.no_output_frames),
          static_cast<double>(m.first_collision_frame),
          static_cast<double>(m.inferences), static_cast<double>(h.compromises),
          static_cast<double>(h.failures),
          static_cast<double>(h.reactive_rejuvenations),
          static_cast<double>(h.proactive_rejuvenations),
          static_cast<double>(h.proactive_triggers),
          static_cast<double>(h.deferred_triggers)})
        record.push_back(v);
    return record;
}

/// 64-bit FNV-1a over the bit patterns of `values`, folded into `hash`.
std::uint64_t fnv1a(std::uint64_t hash, const std::vector<double>& values) {
    for (const double v : values) {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (bits >> (8 * byte)) & 0xffu;
            hash *= 1099511628211ULL;
        }
    }
    return hash;
}

// Outcome hash of the runs below, recorded before the frame loop moved onto
// core::MultiVersionSystem. Any change to what run_scenario computes for a
// seeded run moves it; the thread-count test below cannot see a change that
// moves every run alike.
constexpr std::uint64_t kRecordedOutcomeHash = 0x8f180ded47dfc7abULL;

TEST(ScenarioReplay, OutcomesMatchRecordedConstants) {
    const auto towns = make_towns();
    const Route& route = towns[0].routes[0];
    std::vector<Scenario> scenarios;
    for (const std::string& name : builtin_scenario_names())
        scenarios.push_back(builtin_scenario(name));
    // The only path through the injected weights: a scripted weight
    // corruption of version 1 on top of the compound scenario. Layer 0 with
    // seed 7 changes no detection of these runs. Seed 38211 replays the
    // suite's compromised variant of version 1: at run seed 4600 the
    // injected weights move the outcome, and at run seed 4625 the version is
    // rejuvenated back to pristine weights, which moves it too.
    const Scenario injected =
        parse_scenario(builtin_scenario_text("compound") + "at 4 inject 1 0 7\n");
    const Scenario corrupting =
        parse_scenario(builtin_scenario_text("compound") + "at 4 inject 1 0 38211\n");

    std::vector<ScenarioConfig> runs;
    const auto add = [&runs](const Scenario* scenario, bool policy, std::uint64_t seed) {
        ScenarioConfig cfg;
        cfg.horizon = 12.0;
        cfg.scenario = scenario;
        cfg.trust_policy = policy;
        cfg.seed = seed;
        runs.push_back(cfg);
        return &runs.back();
    };
    // The reference cells of the wall-clock AV campaign.
    for (std::size_t c = 0; c < scenarios.size(); ++c)
        for (const bool policy : {false, true}) add(&scenarios[c], policy, 4200 + 100 * c);
    add(&injected, false, 4600);
    add(&injected, true, 4600);
    add(&corrupting, false, 4600);
    add(&corrupting, false, 4625);
    add(nullptr, false, 4200)->rejuvenation = false;
    add(nullptr, false, 4200)->versions = 1;

    std::uint64_t hash = 1469598103934665603ULL;
    for (const ScenarioConfig& cfg : runs)
        hash = fnv1a(hash, outcome_record(run_scenario(route, test_detectors(), cfg)));
    EXPECT_EQ(hash, kRecordedOutcomeHash) << "0x" << std::hex << hash;
}

TEST(ScenarioReplay, VoteEventsShareTheFrameOfTheirHazard) {
#ifdef MVREJU_OBS_DISABLED
    GTEST_SKIP() << "flight recorder compiled out";
#endif
    const auto towns = make_towns();
    const Route& route = towns[0].routes[0];
    const Scenario freeze = builtin_scenario("freeze");
    ScenarioConfig cfg;
    cfg.horizon = 12.0;  // short enough for one 1024-slot ring
    cfg.scenario = &freeze;
    cfg.seed = 5;
    cfg.trust_policy = true;
    const DetectorSet& detectors = test_detectors();  // train before arming

    obs::FlightRecorder& recorder = obs::FlightRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);
    const RunMetrics m = run_scenario(route, detectors, cfg);
    recorder.set_enabled(false);
    std::size_t events = 0;
    std::vector<std::uint64_t> votes;
    std::vector<std::uint64_t> decided;
    std::vector<std::uint64_t> hazards;
    for (const auto& thread : recorder.snapshot()) {
        events = std::max(events, thread.events.size());
        for (const obs::EventRecord& e : thread.events) {
            switch (e.kind) {
                case obs::EventKind::vote_decided:
                    decided.push_back(e.frame);
                    [[fallthrough]];
                case obs::EventKind::vote_skipped:
                case obs::EventKind::vote_no_output:
                    votes.push_back(e.frame);
                    break;
                case obs::EventKind::hazard: hazards.push_back(e.frame); break;
                default: break;
            }
        }
    }
    recorder.clear();
    ASSERT_LT(events, obs::FlightRecorder::kRingCapacity);  // nothing overwritten
    ASSERT_GT(m.stop_frames, 0);
    EXPECT_EQ(votes.size(), static_cast<std::size_t>(m.total_frames - m.stop_frames));
    EXPECT_EQ(decided.size(), static_cast<std::size_t>(m.decided_frames));
    EXPECT_EQ(decided, hazards);
}

TEST(ScenarioReplay, BitIdenticalAcrossThreadCounts) {
    const auto towns = make_towns();
    const Route& route = towns[0].routes[0];
    const Scenario scenario = builtin_scenario("salt_pepper");
    constexpr int kCells = 6;

    const auto grid = [&](std::size_t threads) {
        std::vector<std::vector<double>> keys(kCells);
        util::parallel_for(
            kCells,
            [&](std::size_t i) {
                ScenarioConfig cfg;
                cfg.horizon = 10.0;
                cfg.scenario = &scenario;
                cfg.trust_policy = true;
                cfg.seed = 100 + i;
                keys[i] = metrics_key(run_scenario(route, test_detectors(), cfg));
            },
            threads);
        return keys;
    };
    const auto serial = grid(1);
    EXPECT_EQ(grid(4), serial);
    EXPECT_EQ(grid(8), serial);
    // Distinct seeds do explore distinct trajectories.
    EXPECT_NE(serial[0], serial[1]);
}

TEST(ScenarioReplay, PolicyEngagesOnFreezeAndStaysQuietWhenClean) {
    const auto towns = make_towns();
    const Route& route = towns[0].routes[0];
    const Scenario freeze = builtin_scenario("freeze");

    ScenarioConfig cfg;
    cfg.horizon = 12.0;
    cfg.scenario = &freeze;
    cfg.seed = 5;
    cfg.trust_policy = true;
    const RunMetrics policy = run_scenario(route, test_detectors(), cfg);
    EXPECT_GT(policy.sensor_fault_frames, 0);
    EXPECT_GT(policy.stop_frames, 0);
    EXPECT_LT(policy.min_trust, 0.5);
    EXPECT_GT(policy.degraded_transitions, 0);

    cfg.trust_policy = false;  // accounting stays zeroed without the monitor
    const RunMetrics baseline = run_scenario(route, test_detectors(), cfg);
    EXPECT_EQ(baseline.sensor_fault_frames, 0);
    EXPECT_EQ(baseline.stop_frames, 0);
    EXPECT_DOUBLE_EQ(baseline.min_trust, 1.0);

    // On a clean run the ladder must not perturb the system at all.
    const Scenario clear = builtin_scenario("clear");
    ScenarioConfig clean;
    clean.horizon = 12.0;
    clean.scenario = &clear;
    clean.seed = 5;
    clean.trust_policy = true;
    const RunMetrics with_policy = run_scenario(route, test_detectors(), clean);
    clean.trust_policy = false;
    const RunMetrics no_policy = run_scenario(route, test_detectors(), clean);
    EXPECT_EQ(with_policy.decided_frames, no_policy.decided_frames);
    EXPECT_EQ(with_policy.unsafe_decided_frames, no_policy.unsafe_decided_frames);
    EXPECT_EQ(with_policy.collision_frames, no_policy.collision_frames);
    EXPECT_EQ(with_policy.stop_frames, 0);
}

}  // namespace
}  // namespace mvreju::av
