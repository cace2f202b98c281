// Tests for the obs flight recorder: record/snapshot roundtrip, ring wrap
// retention, the enabled/disabled gates, trigger-driven postmortem dumps
// (content validated through util::Json), dump limits, and an 8-thread
// writer/reader hammer that the TSan CI job runs to certify the lock-free
// hot path race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/obs/obs.hpp"
#include "mvreju/util/json.hpp"

namespace {

using namespace mvreju;
using obs::EventKind;
using obs::FlightRecorder;

class ObsFlightRecorderTest : public ::testing::Test {
protected:
    void SetUp() override { obs::set_enabled(true); }
    void TearDown() override { obs::set_enabled(true); }
};

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST_F(ObsFlightRecorderTest, RecordRoundtripPreservesOrderAndFields) {
    FlightRecorder recorder;
    recorder.set_enabled(true);
    recorder.record_at(100, EventKind::vote_decided, 1, 0, 3.0, 3.0);
    recorder.record_at(200, EventKind::slo_breach, 2, 1, 100.0, 50.0);
    recorder.record_at(300, EventKind::collision, 3, 0, 7.5, 1.0);

    const auto threads = recorder.snapshot();
    ASSERT_EQ(threads.size(), 1u);
    EXPECT_EQ(threads[0].track, 1u);
    ASSERT_EQ(threads[0].events.size(), 3u);
    EXPECT_EQ(threads[0].events[0].t_ns, 100u);
    EXPECT_EQ(threads[0].events[0].kind, EventKind::vote_decided);
    EXPECT_EQ(threads[0].events[1].frame, 2u);
    EXPECT_EQ(threads[0].events[1].module, 1u);
    EXPECT_EQ(threads[0].events[1].a, 100.0);
    EXPECT_EQ(threads[0].events[2].kind, EventKind::collision);
    EXPECT_EQ(threads[0].events[2].b, 1.0);
}

TEST_F(ObsFlightRecorderTest, RingWrapKeepsTheLastCapacityEvents) {
    FlightRecorder recorder;
    recorder.set_enabled(true);
    const std::size_t total = FlightRecorder::kRingCapacity + 300;
    for (std::size_t i = 0; i < total; ++i)
        recorder.record_at(i, EventKind::custom, i, 0, static_cast<double>(i), 0.0);

    const auto threads = recorder.snapshot();
    ASSERT_EQ(threads.size(), 1u);
    const auto& events = threads[0].events;
    // The postmortem contract guarantees at least the last 256 events.
    ASSERT_EQ(events.size(), FlightRecorder::kRingCapacity);
    ASSERT_GE(events.size(), 256u);
    // Oldest retained event is `total - capacity`; order is preserved.
    for (std::size_t k = 0; k < events.size(); ++k)
        EXPECT_EQ(events[k].frame, 300 + k);
}

TEST_F(ObsFlightRecorderTest, DisarmedAndKillSwitchedRecordersDropEverything) {
    FlightRecorder recorder;
    recorder.record(EventKind::custom, 1, 0);  // never armed
    EXPECT_TRUE(recorder.snapshot().empty());

    recorder.set_enabled(true);
    obs::set_enabled(false);  // MVREJU_OBS=off wins over set_enabled(true)
    EXPECT_FALSE(recorder.enabled());
    recorder.record(EventKind::custom, 2, 0);
    obs::set_enabled(true);
    EXPECT_TRUE(recorder.snapshot().empty());

    recorder.record(EventKind::custom, 3, 0);  // flows again once both are on
    ASSERT_EQ(recorder.snapshot().size(), 1u);
}

TEST_F(ObsFlightRecorderTest, TriggerWritesAValidPostmortemDocument) {
    FlightRecorder recorder;
    recorder.set_enabled(true);
    recorder.set_dump_dir(::testing::TempDir());
    recorder.set_trigger(EventKind::slo_breach, true);

    for (int i = 0; i < 5; ++i)
        recorder.record_at(100 + i, EventKind::vote_decided, i, 0, 3.0, 3.0);
    EXPECT_EQ(recorder.trigger_dumps(), 0u);
    recorder.record_at(200, EventKind::slo_breach, 5, 2, 100.0, 50.0);
    ASSERT_EQ(recorder.trigger_dumps(), 1u);

    const std::string path = recorder.last_dump_path();
    ASSERT_FALSE(path.empty());
    const util::Json doc = util::Json::parse(read_file(path));
    EXPECT_EQ(doc.at("reason").str(), "slo_breach");
    EXPECT_FALSE(doc.at("meta").at("git_sha").str().empty());
    EXPECT_FALSE(doc.at("meta").at("compiler").str().empty());
    const util::Json& trigger = doc.at("trigger");
    EXPECT_EQ(trigger.at("kind").str(), "slo_breach");
    EXPECT_EQ(trigger.at("frame").number(), 5.0);
    EXPECT_EQ(trigger.at("module").number(), 2.0);
    EXPECT_EQ(trigger.at("a").number(), 100.0);
    const util::Json& threads = doc.at("threads");
    ASSERT_EQ(threads.size(), 1u);
    // 5 votes + the breach itself are all in the black box.
    EXPECT_EQ(threads.at(0).at("events").size(), 6u);
    EXPECT_NE(doc.find("metrics"), nullptr);
    std::remove(path.c_str());
}

TEST_F(ObsFlightRecorderTest, TriggerThresholdIgnoresEventsBelowMinA) {
    FlightRecorder recorder;
    recorder.set_enabled(true);
    recorder.set_dump_dir(::testing::TempDir());
    recorder.set_trigger(EventKind::slo_breach, true, 10.0);

    recorder.record(EventKind::slo_breach, 1, 0, 5.0, 10.0);  // below threshold
    EXPECT_EQ(recorder.trigger_dumps(), 0u);
    recorder.record(EventKind::slo_breach, 2, 0, 15.0, 10.0);
    EXPECT_EQ(recorder.trigger_dumps(), 1u);
    std::remove(recorder.last_dump_path().c_str());
}

TEST_F(ObsFlightRecorderTest, DumpLimitBoundsTriggerStormsButNotForcedDumps) {
    FlightRecorder recorder;
    recorder.set_enabled(true);
    recorder.set_dump_dir(::testing::TempDir());
    recorder.set_dump_limit(2);
    recorder.set_trigger(EventKind::collision, true);

    std::vector<std::string> paths;
    for (int i = 0; i < 5; ++i) {
        recorder.record(EventKind::collision, i, 0, 1.0, 0.0);
        if (!recorder.last_dump_path().empty() &&
            (paths.empty() || paths.back() != recorder.last_dump_path()))
            paths.push_back(recorder.last_dump_path());
    }
    EXPECT_EQ(recorder.trigger_dumps(), 2u);

    // A forced dump (the /record endpoint) ignores the trigger budget.
    const std::string forced = recorder.dump("forced");
    ASSERT_FALSE(forced.empty());
    EXPECT_EQ(recorder.trigger_dumps(), 2u);
    EXPECT_EQ(util::Json::parse(read_file(forced)).at("reason").str(), "forced");
    paths.push_back(forced);
    for (const std::string& p : paths) std::remove(p.c_str());
}

TEST_F(ObsFlightRecorderTest, ClearDropsEventsAndResetsTheTriggerBudget) {
    FlightRecorder recorder;
    recorder.set_enabled(true);
    recorder.set_dump_dir(::testing::TempDir());
    recorder.set_dump_limit(1);
    recorder.set_trigger(EventKind::collision, true);
    recorder.record(EventKind::collision, 1, 0);
    EXPECT_EQ(recorder.trigger_dumps(), 1u);
    std::remove(recorder.last_dump_path().c_str());

    recorder.clear();
    EXPECT_TRUE(recorder.snapshot().empty());
    EXPECT_EQ(recorder.trigger_dumps(), 0u);
    recorder.record(EventKind::collision, 2, 0);  // budget is fresh again
    EXPECT_EQ(recorder.trigger_dumps(), 1u);
    std::remove(recorder.last_dump_path().c_str());
}

TEST_F(ObsFlightRecorderTest, EightWriterHammerWithConcurrentSnapshots) {
    // The TSan job runs this: 8 writers spin on the lock-free hot path while
    // a reader snapshots continuously. Correctness bar: no race reports, and
    // every event a snapshot returns is internally consistent (a == thread
    // id, b == sequence within that thread) — torn slots would break that.
    FlightRecorder recorder;
    recorder.set_enabled(true);
    constexpr int kThreads = 8;
    constexpr std::uint64_t kPerThread = 20'000;

    std::atomic<bool> start{false};
    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> torn{0};

    std::thread reader([&] {
        while (!done.load(std::memory_order_acquire)) {
            for (const auto& thread_events : recorder.snapshot())
                for (const auto& e : thread_events.events)
                    if (e.t_ns != e.frame || e.a + e.b < 0.0)
                        torn.fetch_add(1, std::memory_order_relaxed);
        }
    });

    std::vector<std::thread> writers;
    for (int w = 0; w < kThreads; ++w) {
        writers.emplace_back([&, w] {
            while (!start.load(std::memory_order_acquire)) {}
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                recorder.record_at(i, EventKind::custom, i,
                                   static_cast<std::uint32_t>(w),
                                   static_cast<double>(w), static_cast<double>(i));
        });
    }
    start.store(true, std::memory_order_release);
    for (std::thread& t : writers) t.join();
    done.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(torn.load(), 0u);
    const auto threads = recorder.snapshot();
    ASSERT_EQ(threads.size(), static_cast<std::size_t>(kThreads));
    for (const auto& thread_events : threads) {
        // Quiescent rings yield exactly the last kRingCapacity events, in
        // order, with consistent payloads.
        ASSERT_EQ(thread_events.events.size(), FlightRecorder::kRingCapacity);
        const std::uint32_t module = thread_events.events[0].module;
        for (std::size_t k = 0; k < thread_events.events.size(); ++k) {
            const auto& e = thread_events.events[k];
            EXPECT_EQ(e.frame, kPerThread - FlightRecorder::kRingCapacity + k);
            EXPECT_EQ(e.module, module);
            EXPECT_EQ(e.a, static_cast<double>(module));
            EXPECT_EQ(e.b, static_cast<double>(e.frame));
        }
    }
}

#ifdef MVREJU_OBS_DISABLED
TEST_F(ObsFlightRecorderTest, CompiledOutMacrosAreNoOps) {
    // With -DMVREJU_OBS=OFF the macros must not evaluate their arguments.
    int evaluations = 0;
    MVREJU_OBS_EVENT(EventKind::custom, ++evaluations, 0, 0.0, 0.0);
    MVREJU_OBS_EVENT_AT(0, EventKind::custom, ++evaluations, 0, 0.0, 0.0);
    EXPECT_EQ(evaluations, 0);
}
#endif

}  // namespace
