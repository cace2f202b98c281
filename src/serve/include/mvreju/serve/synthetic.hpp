#pragma once

// Deterministic synthetic serving fleet: the discrete-event, virtual-time
// driver of serve::Pipeline, the same frame path the socket Server drives,
// with no sockets and no wall clock in the control path.
//
// Seeded synthetic clients arrive on a virtual microsecond clock; the
// engine's service time is a *virtual* cost model (base + per-frame cost,
// queued behind the previous batch) that re-stamps each flush's infer
// interval, so SLO breaches, shedding decisions and per-frame latencies are
// pure functions of the seed and options — two runs with the same options
// produce byte-identical results, including the output hash over every
// (stream, frame) outcome. The actual inference
// still runs for real, which is what makes the hash meaningful (labels are
// the models' labels) and what the wall_ms throughput measurement times.
//
// The same options with batch_max = 1 is the unbatched reference: by the
// logits_batch bit-identity invariant the output hash must be identical,
// and the ratio of the two wall times is the serving layer's speedup —
// both are gated in bench/bench_serve.cpp.

#include <cstdint>
#include <vector>

#include "mvreju/core/health.hpp"
#include "mvreju/core/voter.hpp"
#include "mvreju/serve/overload.hpp"
#include "mvreju/serve/session.hpp"

namespace mvreju::serve {

class FleetStats;

struct FleetOptions {
    int streams = 64;
    double frame_rate_hz = 30.0;   ///< per-stream arrival rate
    int frames_per_stream = 32;
    std::uint64_t seed = 1;        ///< arrival phases + sample contents

    /// Batching policy (the fleet's Pipeline builds the DynamicBatcher).
    int batch_max = 64;
    std::uint64_t batch_delay_us = 2000;
    std::size_t infer_threads = 1;

    /// Virtual service-time model: a flushed batch of B frames occupies the
    /// engine for base + B * per_frame microseconds, queued behind the
    /// previous batch. Latency = completion - arrival, in virtual time.
    double service_base_us = 200.0;
    double service_per_frame_us = 50.0;
    double slo_budget_ms = 5.0;

    /// Load shedding. Off = never degrade (the equivalence configuration).
    bool shedding = true;
    OverloadControl::Options overload;
    std::size_t max_inflight = 1u << 20;  ///< hard cap; beyond it frames drop

    /// Per-stream health process; `health.seed` is the base seed.
    core::HealthEngineConfig health;
    core::VotingScheme scheme = core::VotingScheme::majority;
};

struct FleetResult {
    std::uint64_t frames = 0;
    std::uint64_t decided = 0;
    std::uint64_t skipped = 0;
    std::uint64_t no_output = 0;
    std::uint64_t degraded = 0;  ///< shed to the single-version path
    std::uint64_t dropped = 0;   ///< refused at the hard inflight cap
    std::uint64_t slo_breaches = 0;
    std::uint64_t batch_flushes = 0;
    double mean_batch = 0.0;       ///< mean flushed batch size
    double p50_virtual_ms = 0.0;   ///< virtual-latency percentiles over
    double p99_virtual_ms = 0.0;   ///< frames that ran inference
    double shed_rate = 0.0;        ///< (degraded + dropped) / frames
    double wall_ms = 0.0;          ///< real elapsed time (throughput only)
    /// FNV-1a over every (stream, frame) outcome in canonical order —
    /// identical for any batching of the same seeded inputs.
    std::uint64_t output_hash = 0;
};

/// Run the fleet to completion. `set` is shared const across all streams.
/// When `stats` is non-null every finished frame is folded into it with
/// virtual-time FrameTrace stamps, so a seeded run renders a byte-identical
/// FleetStats::to_json document — and the output hash is unchanged either
/// way (telemetry never feeds back into the control path).
[[nodiscard]] FleetResult run_fleet(const ModelSet& set, const FleetOptions& options,
                                    FleetStats* stats = nullptr);

}  // namespace mvreju::serve
