// Tests for the fleet telemetry aggregator: byte-identical /fleet
// documents from reruns of a seeded virtual-time fleet (and no outcome
// perturbation from attaching the stats at all), the seeded document
// pinned to a recorded checksum, SLO-breach attribution
// to the dominant pipeline stage, the deterministic worst-stream
// ordering, and the bounded-stage rule that keeps frames which never
// reached a stage out of its digest.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "mvreju/serve/fleet_stats.hpp"
#include "mvreju/serve/session.hpp"
#include "mvreju/serve/synthetic.hpp"

namespace {

using namespace mvreju;

const serve::ModelSet& shared_set() {
    // The scalar oracle, named explicitly so MVREJU_BACKEND cannot move the
    // recorded checksum below.
    static const serve::ModelSet set = [] {
        serve::ModelSetConfig config;
        config.backend = "scalar";
        return serve::make_model_set(config);
    }();
    return set;
}

serve::FleetOptions small_fleet() {
    serve::FleetOptions options;
    options.streams = 16;
    options.frame_rate_hz = 40.0;
    options.frames_per_stream = 6;
    options.seed = 11;
    options.batch_max = 16;
    options.batch_delay_us = 3000;
    options.shedding = false;
    options.slo_budget_ms = 1e9;
    return options;
}

/// Local-only options: unit tests must not write into the process-wide
/// metrics registry or flight recorder.
serve::FleetStats::Options local_options() {
    serve::FleetStats::Options options;
    options.publish_metrics = false;
    return options;
}

/// A fully-stamped trace starting at `start_us` with the given per-stage
/// durations, in pipeline order.
serve::FrameTrace make_trace(std::uint64_t start_us, std::uint64_t parse_us,
                             std::uint64_t queue_us, std::uint64_t dispatch_us,
                             std::uint64_t infer_us, std::uint64_t vote_us,
                             std::uint64_t tx_us) {
    serve::FrameTrace trace;
    std::uint64_t at = start_us;
    trace.stamp(serve::TracePoint::rx, at);
    trace.stamp(serve::TracePoint::enqueue, at += parse_us);
    trace.stamp(serve::TracePoint::formed, at += queue_us);
    trace.stamp(serve::TracePoint::infer_start, at += dispatch_us);
    trace.stamp(serve::TracePoint::infer_end, at += infer_us);
    trace.stamp(serve::TracePoint::vote, at += vote_us);
    trace.stamp(serve::TracePoint::tx, at += tx_us);
    return trace;
}

serve::FrameObservation clean_frame(std::uint32_t stream, std::uint64_t frame) {
    serve::FrameObservation obs;
    obs.stream = stream;
    obs.frame = frame;
    obs.trace = make_trace(1'000 * frame + 1, 100, 200, 50, 800, 30, 20);
    obs.status = serve::ResponseStatus::decided;
    obs.latency_ms = 1.2;
    obs.slo_budget_ms = 5.0;
    return obs;
}

TEST(ServeFleetStatsTest, SeededFleetDocumentByteIdentical) {
    const serve::FleetOptions options = small_fleet();
    const std::uint64_t render_us = 1'000'000;

    serve::FleetStats a;
    const serve::FleetResult ra = serve::run_fleet(shared_set(), options, &a);
    serve::FleetStats b;
    const serve::FleetResult rb = serve::run_fleet(shared_set(), options, &b);

    // The rendered /fleet document is a pure function of (seed, now_us).
    const std::string doc = a.to_json(render_us, /*include_meta=*/false);
    EXPECT_EQ(doc, b.to_json(render_us, /*include_meta=*/false));
    EXPECT_NE(doc.find("\"schema\": \"mvreju.fleet.v1\""), std::string::npos);
    EXPECT_NE(doc.find("\"stages\""), std::string::npos);
    EXPECT_NE(doc.find("\"worst_streams\""), std::string::npos);

    // Every fleet frame was observed, spread over every stream.
    EXPECT_EQ(a.frames(), static_cast<std::uint64_t>(options.streams) *
                              options.frames_per_stream);
    EXPECT_EQ(a.stream_count(), static_cast<std::size_t>(options.streams));
#ifndef MVREJU_OBS_DISABLED
    const obs::HistogramValue total =
        a.stage_window(serve::Stage::total, render_us);
    EXPECT_GT(total.count, 0u);
    EXPECT_LE(total.count, a.frames());
#endif

    // Attaching the stats must not perturb outcomes: same hash either way.
    const serve::FleetResult plain = serve::run_fleet(shared_set(), options);
    EXPECT_EQ(ra.output_hash, plain.output_hash);
    EXPECT_EQ(ra.output_hash, rb.output_hash);
}

#ifndef MVREJU_OBS_DISABLED

/// FNV-1a over the document up to its "build" stamp, which names the
/// checkout and build type and so differs between builds by design.
std::uint64_t document_checksum(const std::string& doc) {
    const std::size_t end = doc.find(",\n\"build\": ");
    EXPECT_NE(end, std::string::npos);
    std::uint64_t hash = 1469598103934665603ull;
    for (std::size_t i = 0; i < std::min(end, doc.size()); ++i) {
        hash ^= static_cast<unsigned char>(doc[i]);
        hash *= 1099511628211ull;
    }
    return hash;
}

TEST(ServeFleetStatsTest, SeededFleetDocumentMatchesRecordedChecksum) {
    // Rerun equality cannot see a change that moves every run alike. This
    // checksum was recorded before the socket server and the fleet were
    // merged onto one frame path; a refactor that moves it has changed the
    // document.
    serve::FleetStats stats;
    (void)serve::run_fleet(shared_set(), small_fleet(), &stats);
    EXPECT_EQ(document_checksum(stats.to_json(1'000'000, /*include_meta=*/false)),
              12284939691186927336ull);
}

#endif  // MVREJU_OBS_DISABLED

TEST(ServeFleetStatsTest, BuildStampIsAlwaysPresent) {
    // The "build" block names the binary in every document — including the
    // meta-less renders the golden tests use — and is constant within one
    // build, so byte-determinism is unaffected.
    serve::FleetStats stats(local_options());
    const std::string doc = stats.to_json(1'000, /*include_meta=*/false);
    EXPECT_NE(doc.find("\"build\": {\"git_sha\": \""), std::string::npos);
    EXPECT_NE(doc.find("\"build_type\": \""), std::string::npos);
}

TEST(ServeFleetStatsTest, CpuByStageBlockIsOptIn) {
    serve::FleetStats stats(local_options());
    stats.observe(clean_frame(0, 1), 2'000);

    // Default: no profiler attribution pushed, no block — so unprofiled
    // documents (and their goldens) are unchanged.
    const std::string without = stats.to_json(3'000, /*include_meta=*/false);
    EXPECT_EQ(without.find("cpu_by_stage"), std::string::npos);

    stats.set_cpu_by_stage({{"infer", 90, 0.75}, {"parse", 30, 0.25}});
    const std::string with = stats.to_json(3'000, /*include_meta=*/false);
    EXPECT_NE(with.find("\"cpu_by_stage\": {\"infer\": {\"fraction\": 0.75, "
                        "\"samples\": 90}, \"parse\": {\"fraction\": 0.25, "
                        "\"samples\": 30}}"),
              std::string::npos);

    // Clearing the attribution removes the block again (a serving loop
    // whose profiler stopped goes back to the classic document).
    stats.set_cpu_by_stage({});
    const std::string cleared = stats.to_json(3'000, /*include_meta=*/false);
    EXPECT_EQ(cleared.find("cpu_by_stage"), std::string::npos);
}

// Stage-trace-dependent behaviour: under -DMVREJU_OBS=OFF stamp() is a
// no-op and every digest stays empty, so these suites only run with the
// observability layer compiled in (same pattern as the obs tests).
#ifndef MVREJU_OBS_DISABLED

TEST(ServeFleetStatsTest, BreachAttributionPinsTheDominantStage) {
    serve::FleetStats stats(local_options());

    // Queue-dominated breach: 5 ms queueing dwarfs everything else.
    serve::FrameObservation queued = clean_frame(1, 1);
    queued.trace = make_trace(1'001, 100, 5'000, 50, 800, 30, 20);
    queued.latency_ms = 6.0;
    stats.observe(queued, 10'000);

    // Infer-dominated breach on another stream.
    serve::FrameObservation inferred = clean_frame(2, 2);
    inferred.trace = make_trace(2'001, 100, 50, 50, 9'000, 30, 20);
    inferred.latency_ms = 9.25;
    stats.observe(inferred, 12'000);

    // Under budget: no breach, no attribution.
    stats.observe(clean_frame(3, 3), 14'000);

    // Budget 0 disables breach accounting entirely.
    serve::FrameObservation unbudgeted = clean_frame(4, 4);
    unbudgeted.trace = make_trace(4'001, 100, 50, 50, 20'000, 30, 20);
    unbudgeted.latency_ms = 20.0;
    unbudgeted.slo_budget_ms = 0.0;
    stats.observe(unbudgeted, 30'000);

    const auto& by_stage = stats.breach_by_stage();
    EXPECT_EQ(by_stage[static_cast<std::size_t>(serve::Stage::queue)], 1u);
    EXPECT_EQ(by_stage[static_cast<std::size_t>(serve::Stage::infer)], 1u);
    EXPECT_EQ(by_stage[static_cast<std::size_t>(serve::Stage::parse)], 0u);
    // Stage::total spans every breach but never wins the attribution.
    EXPECT_EQ(by_stage[static_cast<std::size_t>(serve::Stage::total)], 0u);

    const std::string doc = stats.to_json(30'000, /*include_meta=*/false);
    EXPECT_NE(doc.find("\"slo_breaches\": 2"), std::string::npos);
    EXPECT_NE(doc.find("\"queue\": 1"), std::string::npos);
}

TEST(ServeFleetStatsTest, WorstStreamsOrderIsDeterministic) {
    serve::FleetStats stats(local_options());
    const std::uint64_t now_us = 100'000;

    for (std::uint64_t i = 0; i < 5; ++i) {
        // Stream 1: nothing but errors -> quality 0 every frame.
        serve::FrameObservation failing = clean_frame(1, 10 + i);
        failing.status = serve::ResponseStatus::error;
        stats.observe(failing, now_us);

        // Stream 2: every frame breaches its budget -> quality 0.5.
        serve::FrameObservation breaching = clean_frame(2, 20 + i);
        breaching.latency_ms = 50.0;
        stats.observe(breaching, now_us);

        // Streams 3, 5 and 7: identical clean histories (the id tie-break).
        stats.observe(clean_frame(3, 30 + i), now_us);
        stats.observe(clean_frame(5, 50 + i), now_us);
        stats.observe(clean_frame(7, 70 + i), now_us);
    }

    const auto worst = stats.worst_streams(now_us);
    ASSERT_EQ(worst.size(), 5u);
    EXPECT_EQ(worst[0].stream, 1u);  // lowest reliability first
    EXPECT_EQ(worst[1].stream, 2u);
    EXPECT_EQ(worst[2].stream, 3u);  // equal histories order by stream id
    EXPECT_EQ(worst[3].stream, 5u);
    EXPECT_EQ(worst[4].stream, 7u);
    EXPECT_LT(worst[0].reliability, worst[1].reliability);
    EXPECT_LT(worst[1].reliability, worst[2].reliability);
    EXPECT_EQ(worst[2].reliability, worst[3].reliability);
    EXPECT_EQ(worst[1].breaches, 5u);

    // top_k truncates the ranking, keeping the worst entries.
    serve::FleetStats::Options top2 = local_options();
    top2.top_k = 2;
    serve::FleetStats truncated(top2);
    for (std::uint64_t i = 0; i < 5; ++i) {
        serve::FrameObservation failing = clean_frame(1, 10 + i);
        failing.status = serve::ResponseStatus::error;
        truncated.observe(failing, now_us);
        truncated.observe(clean_frame(3, 30 + i), now_us);
        truncated.observe(clean_frame(5, 50 + i), now_us);
    }
    const auto top = truncated.worst_streams(now_us);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].stream, 1u);
    EXPECT_EQ(top[1].stream, 3u);
}

TEST(ServeFleetStatsTest, OnlyBoundedStagesEnterTheDigests) {
    serve::FleetStats stats(local_options());
    const std::uint64_t now_us = 50'000;

    stats.observe(clean_frame(1, 1), now_us);

    // A shed frame never reaches the batcher: only rx and tx are stamped,
    // so `total` is bounded but the interior stages are not.
    serve::FrameObservation shed;
    shed.stream = 2;
    shed.frame = 2;
    shed.trace.stamp(serve::TracePoint::rx, 5'000);
    shed.trace.stamp(serve::TracePoint::tx, 6'000);
    shed.status = serve::ResponseStatus::shed;
    stats.observe(shed, now_us);

    EXPECT_EQ(stats.stage_window(serve::Stage::total, now_us).count, 2u);
    EXPECT_EQ(stats.stage_window(serve::Stage::parse, now_us).count, 1u);
    EXPECT_EQ(stats.stage_window(serve::Stage::infer, now_us).count, 1u);

    const std::string doc = stats.to_json(now_us, /*include_meta=*/false);
    EXPECT_NE(doc.find("\"status\": {\"decided\": 1, \"skipped\": 0, "
                       "\"no_output\": 0, \"shed\": 1, \"error\": 0}"),
              std::string::npos);
}

#endif  // MVREJU_OBS_DISABLED

TEST(ServeFleetStatsTest, ClearDropsStateButKeepsOptions) {
    serve::FleetStats::Options top3 = local_options();
    top3.top_k = 3;
    serve::FleetStats stats(top3);
    stats.observe(clean_frame(1, 1), 10'000);
    ASSERT_EQ(stats.frames(), 1u);

    stats.clear();
    EXPECT_EQ(stats.frames(), 0u);
    EXPECT_EQ(stats.stream_count(), 0u);
    EXPECT_EQ(stats.breach_by_stage()[0], 0u);
    EXPECT_EQ(stats.options().top_k, 3u);

    stats.observe(clean_frame(4, 4), 20'000);
    EXPECT_EQ(stats.frames(), 1u);
    EXPECT_EQ(stats.stream_count(), 1u);
}

}  // namespace
