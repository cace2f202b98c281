// Tests for the postmortem tooling: parsing a dump document back into
// structured form, the exact rendered timeline for a fixed fixture (the
// golden contract behind the tools/postmortem CLI), and byte-determinism of
// dumps produced by a seeded MultiVersionSystem run through the real
// flight-recorder instrumentation.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mvreju/core/system.hpp"
#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/obs/obs.hpp"
#include "mvreju/obs/postmortem.hpp"

namespace {

using namespace mvreju;
namespace pm = mvreju::obs::postmortem;

// A hand-written dump document covering every section the renderer handles:
// meta, trigger, two modules on one thread, and embedded metrics counters.
const char kFixture[] = R"({
"meta": {"git_sha": "abc1234", "build_type": "Release", "compiler": "g++ 13.2"},
"reason": "slo_breach",
"dumped_at_ns": 999,
"trigger": {"t_ns": 3000000, "frame": 3, "module": 1, "kind": "slo_breach", "a": 100, "b": 50},
"threads": [
 {"track": 1, "events": [
  {"t_ns": 1000000, "frame": 1, "module": 0, "kind": "vote_decided", "a": 3, "b": 3},
  {"t_ns": 2000000, "frame": 2, "module": 1, "kind": "module_state", "a": 1, "b": 0},
  {"t_ns": 3000000, "frame": 3, "module": 1, "kind": "slo_breach", "a": 100, "b": 50},
  {"t_ns": 4000000, "frame": 4, "module": 0, "kind": "vote_skipped", "a": 3, "b": 1}
 ]}
],
"metrics": {"counters": {"av.frames": 4, "av.votes.decided": 1}}
})";

TEST(ObsPostmortemTest, ParseRecoversStructureAndSortsEvents) {
    const pm::Dump dump = pm::parse(kFixture);
    EXPECT_EQ(dump.reason, "slo_breach");
    EXPECT_EQ(dump.git_sha, "abc1234");
    EXPECT_EQ(dump.build_type, "Release");
    EXPECT_EQ(dump.compiler, "g++ 13.2");
    EXPECT_EQ(dump.thread_count, 1u);
    ASSERT_TRUE(dump.trigger.has_value());
    EXPECT_EQ(dump.trigger->kind, "slo_breach");
    EXPECT_EQ(dump.trigger->a, 100.0);
    ASSERT_EQ(dump.events.size(), 4u);
    for (std::size_t i = 1; i < dump.events.size(); ++i)
        EXPECT_LE(dump.events[i - 1].t_ns, dump.events[i].t_ns);
    EXPECT_EQ(dump.events[0].track, 1u);
    ASSERT_EQ(dump.counters.size(), 2u);
    EXPECT_EQ(dump.counters[0].first, "av.frames");
    EXPECT_EQ(dump.counters[0].second, 4u);
}

TEST(ObsPostmortemTest, ParseRejectsMalformedDumps) {
    EXPECT_THROW((void)pm::parse("{"), std::runtime_error);
    EXPECT_THROW((void)pm::parse("{}"), std::runtime_error);  // no reason/meta
    EXPECT_THROW((void)pm::parse(R"({"reason": "x"})"), std::runtime_error);
    EXPECT_THROW((void)pm::load("/nonexistent/postmortem.json"), std::runtime_error);
}

TEST(ObsPostmortemTest, RenderMatchesTheGoldenTimeline) {
    const std::string golden =
        "postmortem: reason=slo_breach  events=4  threads=1\n"
        "build: abc1234 (Release, g++ 13.2)\n"
        "trigger: slo_breach at +2.000ms frame 3 module 1 (a=100, b=50)\n"
        "\n"
        "module 0 (2 events):\n"
        "  +0.000ms       frame 1      vote_decided        a=3 b=3\n"
        "  +3.000ms       frame 4      vote_skipped        a=3 b=1\n"
        "\n"
        "module 1 (2 events):\n"
        "  +1.000ms       frame 2      module_state        a=1 b=0\n"
        "  +2.000ms       frame 3      slo_breach          a=100 b=50   <<< TRIGGER\n"
        "\n"
        "event counts around trigger (before / at-or-after):\n"
        "  module_state             1      0\n"
        "  slo_breach               0      1\n"
        "  vote_decided             1      0\n"
        "  vote_skipped             0      1\n"
        "\n"
        "metrics counters at dump time:\n"
        "  av.frames = 4\n"
        "  av.votes.decided = 1\n";
    EXPECT_EQ(pm::render(pm::parse(kFixture)), golden);
}

TEST(ObsPostmortemTest, RenderOptionsTrimMetaMetricsAndOldEvents) {
    const pm::Dump dump = pm::parse(kFixture);
    pm::RenderOptions options;
    options.show_meta = false;
    options.show_metrics = false;
    options.max_events_per_module = 1;
    const std::string out = pm::render(dump, options);
    EXPECT_EQ(out.find("build:"), std::string::npos);
    EXPECT_EQ(out.find("metrics counters"), std::string::npos);
    EXPECT_NE(out.find("... 1 older events elided ..."), std::string::npos);
    EXPECT_NE(out.find("<<< TRIGGER"), std::string::npos);
}

#ifndef MVREJU_OBS_DISABLED

/// One seeded run of the three-version system with the traffic-sign-monitor
/// health parameters, recorded through the real core instrumentation into
/// the global flight recorder; returns the dump rendered without the
/// wall-clock-dependent sections.
std::string record_seeded_run() {
    obs::FlightRecorder& recorder = obs::FlightRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);

    std::vector<core::VersionSpec<int, int>> specs;
    for (int m = 0; m < 3; ++m) {
        core::VersionSpec<int, int> spec;
        spec.healthy = [](const int& x) { return x; };
        spec.compromised = [m](const int& x) { return x + 100 + m; };
        specs.push_back(std::move(spec));
    }
    core::HealthEngineConfig health_cfg;  // compressed Section VII-A scale
    health_cfg.timing.mttc = 8.0;
    health_cfg.timing.mttf = 16.0;
    health_cfg.timing.rejuvenation_interval = 3.0;
    health_cfg.policy = core::VictimPolicy::two_thirds_compromised;
    health_cfg.seed = 2024;
    core::MultiVersionSystem<int, int> system(std::move(specs), core::Voter<int>{},
                                              core::HealthEngine{health_cfg});
    for (int frame = 0; frame < 300; ++frame)
        (void)system.process(frame * 0.1, frame);

    const std::string json = recorder.dump_json("golden");
    recorder.set_enabled(false);
    pm::RenderOptions options;
    options.show_meta = false;     // git SHA varies per checkout
    options.show_metrics = false;  // global registry varies per test binary
    return pm::render(pm::parse(json), options);
}

TEST(ObsPostmortemTest, SeededRunsProduceByteIdenticalRenderings) {
    obs::set_enabled(true);
    const std::string first = record_seeded_run();
    const std::string second = record_seeded_run();
    EXPECT_EQ(first, second);

    // The dump is a real black box: simulated-time stamps, vote events every
    // frame, and health transitions from the seeded fault process.
    EXPECT_NE(first.find("vote_decided"), std::string::npos);
    EXPECT_NE(first.find("module_state"), std::string::npos);
    EXPECT_NE(first.find("threads=1"), std::string::npos);
    EXPECT_NE(first.find("+100.000ms"), std::string::npos);  // frame 1 at dt=0.1
}

#endif  // MVREJU_OBS_DISABLED

}  // namespace
