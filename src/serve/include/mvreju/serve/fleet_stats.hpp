#pragma once

// Fleet-wide serving telemetry: per-stream windowed stage digests folded
// into fleet percentiles, top-K worst-stream ranking, and per-stage SLO
// breach attribution — the read side of the FrameTrace stamps.
//
// serve::Pipeline, on its driver's thread (run_fleet's loop or the socket
// Server's service thread), calls observe() once per finished frame with
// the frame's FrameTrace and outcome; to_json() renders the /fleet document for the exporter. Both
// take caller time (`now_us`) and never read a clock, so a seeded
// virtual-time fleet renders a byte-identical document on every rerun —
// the property tests/serve_fleet_stats_test.cpp pins.
//
// Single-owner like the batcher: observe() runs on the service thread only.
// The exporter never touches a FleetStats — the owner pushes rendered JSON
// via obs::Exporter::set_fleet_json(), keeping the HTTP thread out of
// engine state entirely.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mvreju/obs/windowed_digest.hpp"
#include "mvreju/serve/protocol.hpp"
#include "mvreju/serve/trace.hpp"

namespace mvreju::serve {

/// Everything FleetStats needs to know about one finished frame.
struct FrameObservation {
    std::uint32_t stream = 0;
    std::uint64_t frame = 0;
    FrameTrace trace;
    ResponseStatus status = ResponseStatus::decided;
    bool degraded = false;      ///< shed to the single-version path
    double latency_ms = 0.0;    ///< end-to-end latency (virtual or steady)
    double slo_budget_ms = 0.0; ///< 0 disables breach accounting for the frame
};

class FleetStats {
public:
    struct Options {
        /// Geometry of every per-stream per-stage digest. The serving
        /// default keeps a 4 s window in 1 s slots — wide enough to survive
        /// scrape jitter, small enough that streams * stages digests stay
        /// cheap.
        std::uint64_t slot_width_us = 1'000'000;
        std::size_t slots = 4;
        /// Streams listed in the worst_streams ranking.
        std::size_t top_k = 8;
        /// Reliability EWMA weight of the newest frame's quality sample.
        double ewma_alpha = 0.1;
        /// Mirror per-stage durations into obs::metrics() histograms
        /// ("serve.stage.<name>", ms) and emit breach_stage flight-recorder
        /// events. Off keeps observe() purely local — what a benchmark
        /// isolating digest cost wants.
        bool publish_metrics = true;
    };

    /// Per-stream rollup as reported in worst_streams.
    struct StreamSummary {
        std::uint32_t stream = 0;
        double reliability = 1.0;  ///< EWMA in [0, 1]; 1 = every frame clean
        std::uint64_t frames = 0;
        std::uint64_t breaches = 0;
        std::uint64_t dropped = 0;
        double p99_total_ms = 0.0;  ///< windowed p99 of the total stage
    };

    FleetStats() : FleetStats(Options{}) {}
    explicit FleetStats(const Options& options);

    /// Fold one finished frame in. `now_us` is the caller's clock at the
    /// moment of observation (virtual in the fleet, steady in the server)
    /// and keys the digests' time window.
    void observe(const FrameObservation& obs, std::uint64_t now_us);

    /// Fleet-merged windowed digest of one stage at `now_us`.
    [[nodiscard]] obs::HistogramValue stage_window(Stage stage,
                                                   std::uint64_t now_us) const;

    /// The `top_k` worst streams by (reliability asc, breaches desc,
    /// stream id asc) — the id tie-break keeps the ranking deterministic.
    [[nodiscard]] std::vector<StreamSummary> worst_streams(
        std::uint64_t now_us) const;

    /// SLO breaches attributed to each stage (dominant_stage of the
    /// breaching frame's trace; `total` never wins).
    [[nodiscard]] const std::array<std::uint64_t, kStageCount>& breach_by_stage()
        const noexcept {
        return breach_by_stage_;
    }

    /// Name of the kernel backend serving the fleet's float32 versions
    /// (ModelSet::backend_name); rendered into the /fleet document so
    /// fleet_top can show which arithmetic served each stream.
    void set_backend(std::string backend) { backend_ = std::move(backend); }
    [[nodiscard]] const std::string& backend() const noexcept { return backend_; }

    /// CPU share of one pipeline stage over the profiler's recent window.
    /// Mirrors obs::StageCpu without depending on the profiler — FleetStats
    /// stays a pure fold of pushed observations.
    struct StageCpuShare {
        std::string stage;
        std::uint64_t samples = 0;
        double fraction = 0.0;
    };

    /// Publish per-stage CPU attribution (from obs::Profiler::stage_cpu,
    /// pushed by the serving loop when profiling is on). Rendered as the
    /// optional "cpu_by_stage" block of the /fleet document; an empty vector
    /// (the default) omits the block, keeping unprofiled documents — and the
    /// byte-determinism golden tests — unchanged.
    void set_cpu_by_stage(std::vector<StageCpuShare> shares) {
        cpu_by_stage_ = std::move(shares);
    }
    [[nodiscard]] const std::vector<StageCpuShare>& cpu_by_stage() const noexcept {
        return cpu_by_stage_;
    }

    [[nodiscard]] std::uint64_t frames() const noexcept { return frames_; }
    [[nodiscard]] std::size_t stream_count() const noexcept {
        return streams_.size();
    }
    [[nodiscard]] const Options& options() const noexcept { return options_; }

    /// Render the /fleet JSON document ("mvreju.fleet.v1"). Deterministic:
    /// depends only on the observations, `now_us` and the build (a "build"
    /// {git_sha, build_type} block is always stamped in, so dumps and fleet
    /// snapshots correlate post-hoc; it is constant within one binary, so
    /// golden tests stay byte-stable). `include_meta` adds the full
    /// run-metadata block (compiler, hardware threads) on top.
    [[nodiscard]] std::string to_json(std::uint64_t now_us,
                                      bool include_meta = true) const;

    /// Drop all state; geometry and options persist.
    void clear();

private:
    struct StreamState {
        std::uint32_t stream = 0;
        std::vector<obs::WindowedDigest> stage;  ///< kStageCount digests
        double reliability = 1.0;
        std::uint64_t frames = 0;
        std::uint64_t breaches = 0;
        std::uint64_t dropped = 0;
    };

    StreamState& stream_for(std::uint32_t stream);
    [[nodiscard]] StreamSummary summarize(const StreamState& s,
                                          std::uint64_t now_us) const;

    Options options_;
    std::string backend_ = "scalar";
    std::vector<StageCpuShare> cpu_by_stage_;
    obs::WindowedDigest::Options digest_options_;
    std::vector<StreamState> streams_;  ///< sorted by stream id
    std::uint64_t frames_ = 0;
    std::array<std::uint64_t, static_cast<std::size_t>(ResponseStatus::error) + 1>
        by_status_{};
    std::uint64_t degraded_ = 0;
    std::uint64_t breaches_ = 0;
    std::array<std::uint64_t, kStageCount> breach_by_stage_{};
};

}  // namespace mvreju::serve
