// Tests for the deterministic synthetic fleet and the overload controller:
// run-to-run determinism, bit-identical outcomes for batched vs unbatched
// serving of the same seeded inputs, load shedding under overload with
// recovery when load drops, outcomes pinned to recorded constants, the
// frame ids on load_shed events, and the hysteresis of OverloadControl
// itself.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>

#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/serve/overload.hpp"
#include "mvreju/serve/session.hpp"
#include "mvreju/serve/synthetic.hpp"

namespace {

using namespace mvreju;

const serve::ModelSet& shared_set() {
    // The scalar oracle, named explicitly so MVREJU_BACKEND cannot move the
    // recorded constants below.
    static const serve::ModelSet set = [] {
        serve::ModelSetConfig config;
        config.backend = "scalar";
        return serve::make_model_set(config);
    }();
    return set;
}

serve::FleetOptions small_fleet() {
    serve::FleetOptions options;
    options.streams = 24;
    options.frame_rate_hz = 50.0;
    options.frames_per_stream = 12;
    options.seed = 5;
    options.batch_max = 16;
    options.batch_delay_us = 3000;
    options.shedding = false;  // equivalence configuration
    options.slo_budget_ms = 1e9;
    return options;
}

/// Saturating virtual service times: the engine falls behind at once.
serve::FleetOptions overload_fleet() {
    serve::FleetOptions options;
    options.streams = 64;
    options.frame_rate_hz = 100.0;
    options.frames_per_stream = 30;
    options.seed = 9;
    options.batch_max = 8;
    options.batch_delay_us = 2000;
    options.service_base_us = 4000.0;
    options.service_per_frame_us = 500.0;
    options.slo_budget_ms = 5.0;
    options.shedding = true;
    return options;
}

/// Batches pile up behind a far deadline into a tiny inflight budget.
serve::FleetOptions hard_cap_fleet() {
    serve::FleetOptions options = small_fleet();
    options.shedding = true;
    options.slo_budget_ms = 5.0;
    options.batch_delay_us = 1'000'000;
    options.batch_max = 1024;
    options.max_inflight = 8;
    return options;
}

struct PinnedOutcome {
    std::uint64_t output_hash;
    std::uint64_t decided;
    std::uint64_t skipped;
    std::uint64_t no_output;
    std::uint64_t degraded;
    std::uint64_t dropped;
    std::uint64_t slo_breaches;
    std::uint64_t batch_flushes;
};

void expect_pinned(const serve::FleetResult& r, const PinnedOutcome& want) {
    EXPECT_EQ(r.output_hash, want.output_hash);
    EXPECT_EQ(r.decided, want.decided);
    EXPECT_EQ(r.skipped, want.skipped);
    EXPECT_EQ(r.no_output, want.no_output);
    EXPECT_EQ(r.degraded, want.degraded);
    EXPECT_EQ(r.dropped, want.dropped);
    EXPECT_EQ(r.slo_breaches, want.slo_breaches);
    EXPECT_EQ(r.batch_flushes, want.batch_flushes);
}

TEST(ServeFleetTest, DeterministicUnderSeed) {
    const serve::FleetResult a = serve::run_fleet(shared_set(), small_fleet());
    const serve::FleetResult b = serve::run_fleet(shared_set(), small_fleet());
    EXPECT_EQ(a.output_hash, b.output_hash);
    EXPECT_EQ(a.decided, b.decided);
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.no_output, b.no_output);
    EXPECT_EQ(a.slo_breaches, b.slo_breaches);
    EXPECT_EQ(a.batch_flushes, b.batch_flushes);
    EXPECT_EQ(a.frames, 24u * 12u);
    EXPECT_EQ(a.decided + a.skipped + a.no_output + a.dropped, a.frames);

    serve::FleetOptions different = small_fleet();
    different.seed = 6;
    const serve::FleetResult c = serve::run_fleet(shared_set(), different);
    EXPECT_NE(a.output_hash, c.output_hash);
}

TEST(ServeFleetTest, BatchedOutcomesBitIdenticalToUnbatched) {
    // The tentpole equivalence gate: cross-stream batching must not change
    // a single frame's outcome. batch_max = 1 is the unbatched reference —
    // every inference runs alone — and the outcome hash covers status,
    // label, agreeing count and functional-module count of every frame.
    const serve::FleetResult batched = serve::run_fleet(shared_set(), small_fleet());

    serve::FleetOptions unbatched = small_fleet();
    unbatched.batch_max = 1;
    const serve::FleetResult reference =
        serve::run_fleet(shared_set(), unbatched);

    EXPECT_EQ(batched.output_hash, reference.output_hash);
    EXPECT_EQ(batched.decided, reference.decided);
    EXPECT_EQ(batched.skipped, reference.skipped);
    EXPECT_EQ(batched.no_output, reference.no_output);
    // And it genuinely batched: fewer flushes than frames were served.
    EXPECT_LT(batched.batch_flushes, reference.batch_flushes);
    EXPECT_GT(batched.mean_batch, 1.0);
}

TEST(ServeFleetTest, MultiThreadFlushMatchesSerial) {
    // logits_batch is bit-identical for any num_threads; so is the fleet.
    const serve::FleetResult serial = serve::run_fleet(shared_set(), small_fleet());
    serve::FleetOptions threaded = small_fleet();
    threaded.infer_threads = 4;
    const serve::FleetResult parallel = serve::run_fleet(shared_set(), threaded);
    EXPECT_EQ(serial.output_hash, parallel.output_hash);
}

TEST(ServeFleetTest, OverloadShedsAndLightLoadDoesNot) {
    // Saturating virtual service times trip the SLO controller: a large
    // share of frames must go out degraded (single-version) or dropped.
    const serve::FleetOptions heavy = overload_fleet();
    const serve::FleetResult overload = serve::run_fleet(shared_set(), heavy);
    EXPECT_GT(overload.shed_rate, 0.2);
    EXPECT_GT(overload.degraded, 0u);
    EXPECT_GT(overload.slo_breaches, 0u);
    EXPECT_GT(overload.p99_virtual_ms, heavy.slo_budget_ms);

    // The same fleet at a light load breaches nothing and sheds nothing.
    serve::FleetOptions light = heavy;
    light.frame_rate_hz = 5.0;
    light.service_base_us = 100.0;
    light.service_per_frame_us = 10.0;
    const serve::FleetResult relaxed = serve::run_fleet(shared_set(), light);
    EXPECT_EQ(relaxed.shed_rate, 0.0);
    EXPECT_EQ(relaxed.degraded, 0u);
    EXPECT_EQ(relaxed.dropped, 0u);
}

TEST(ServeFleetTest, HardCapDropsFrames) {
    const serve::FleetResult result = serve::run_fleet(shared_set(), hard_cap_fleet());
    EXPECT_GT(result.dropped, 0u);
    EXPECT_EQ(result.decided + result.skipped + result.no_output + result.dropped,
              result.frames);
}

TEST(ServeFleetTest, OutcomesMatchRecordedConstants) {
    // Every other gate compares one run against another, so a change that
    // moves every run alike would pass them. These constants were recorded
    // before the socket server and the fleet were merged onto one frame
    // path; a refactor that moves them has changed behaviour.
    // {output_hash, decided, skipped, no_output, degraded, dropped,
    //  slo_breaches, batch_flushes}
    expect_pinned(serve::run_fleet(shared_set(), small_fleet()),
                  {10281762187170132651ull, 14, 274, 0, 0, 0, 0, 198});
    expect_pinned(serve::run_fleet(shared_set(), overload_fleet()),
                  {16140063751357787626ull, 1884, 36, 0, 1883, 0, 1920, 251});
    expect_pinned(serve::run_fleet(shared_set(), hard_cap_fleet()),
                  {4470350689529957635ull, 0, 8, 0, 0, 280, 8, 3});
}

#ifndef MVREJU_OBS_DISABLED

TEST(ServeFleetTest, DropEventsNameTheDroppedFrame) {
    // A load_shed event with a == 2 marks a frame refused at the inflight
    // cap. Its (module, frame) must be that frame's (stream, frame index),
    // the pair FrameObservation carries, so each drop names one frame.
    obs::set_enabled(true);
    obs::FlightRecorder& recorder = obs::FlightRecorder::global();
    recorder.clear();
    recorder.set_enabled(true);
    const serve::FleetOptions options = hard_cap_fleet();
    const serve::FleetResult result = serve::run_fleet(shared_set(), options);
    recorder.set_enabled(false);

    std::set<std::pair<std::uint32_t, std::uint64_t>> dropped;
    std::uint64_t drop_events = 0;
    for (const auto& thread : recorder.snapshot()) {
        // The ring keeps the newest kRingCapacity events; none may be lost.
        ASSERT_LT(thread.events.size(), obs::FlightRecorder::kRingCapacity);
        for (const obs::EventRecord& event : thread.events) {
            if (event.kind != obs::EventKind::load_shed || event.a != 2.0) continue;
            ++drop_events;
            EXPECT_LT(event.module, static_cast<std::uint32_t>(options.streams));
            EXPECT_LT(event.frame,
                      static_cast<std::uint64_t>(options.frames_per_stream));
            EXPECT_TRUE(dropped.emplace(event.module, event.frame).second)
                << "stream " << event.module << " frame " << event.frame
                << " dropped twice";
        }
    }
    recorder.clear();
    EXPECT_GT(result.dropped, 0u);
    EXPECT_EQ(drop_events, result.dropped);
}

#endif  // MVREJU_OBS_DISABLED

TEST(ServeFleetTest, SynchronousCompletionDoesNotLeakInflight) {
    // With batch_max = 1 every frame completes synchronously inside its own
    // submit loop — the arrangement that once default-inserted an empty
    // inflight entry per frame via operator[] after the erase. The genuine
    // inflight population never exceeds one here, so a small hard cap must
    // never trip over hundreds of frames; leaked entries would saturate it
    // and drop nearly everything.
    serve::FleetOptions options = small_fleet();
    options.batch_max = 1;
    options.max_inflight = 8;
    const serve::FleetResult result = serve::run_fleet(shared_set(), options);
    EXPECT_EQ(result.dropped, 0u);
    EXPECT_EQ(result.decided + result.skipped + result.no_output, result.frames);
}

TEST(ServeOverloadControlTest, HysteresisEntersAndExits) {
    serve::OverloadControl::Options options;
    options.window = 10;
    options.enter_breach_fraction = 0.5;
    options.exit_breach_fraction = 0.1;
    serve::OverloadControl control(options);

    // A couple of early breaches are not enough evidence (half a window).
    control.record(true);
    control.record(true);
    EXPECT_FALSE(control.overloaded());

    for (int i = 0; i < 8; ++i) control.record(true);
    EXPECT_TRUE(control.overloaded());

    // Healthy frames above the exit threshold keep it latched (hysteresis)...
    for (int i = 0; i < 6; ++i) control.record(false);
    EXPECT_TRUE(control.overloaded());
    // ...until the breach fraction falls to the exit bound.
    for (int i = 0; i < 4; ++i) control.record(false);
    EXPECT_FALSE(control.overloaded());
}

}  // namespace
