#pragma once

// Per-frame stage trace for the serving layer: one monotonic microsecond
// timestamp per stage boundary, stamped as a frame moves rx -> queue ->
// batch-formation -> infer -> vote -> tx through serve::Pipeline on its
// driver's clock: steady time in the socket Server, virtual time in the
// synthetic fleet (so traces are byte-deterministic under a seed).
//
// The derived per-stage durations feed three consumers: the WindowedDigest
// aggregation in serve::FleetStats (fleet percentiles per stage, breach
// stage attribution), the serve.stage.* histograms on /metrics, and the
// optional response annex of the frame protocol (a client that sets the
// trace flag gets its own frame's breakdown back on the wire).
//
// Stamping honours the compile-time kill switch: under -DMVREJU_OBS=OFF
// stamp() is an empty inline function the optimizer deletes, and every
// breakdown reads as zero.

#include <array>
#include <cstddef>
#include <cstdint>

namespace mvreju::serve {

/// Stage boundaries of one served frame, in pipeline order.
enum class TracePoint : std::uint8_t {
    rx = 0,       ///< request bytes complete on the wire / synthetic arrival
    enqueue,      ///< parsed + planned, submitted to the DynamicBatcher
    formed,       ///< the (last) batch carrying this frame flushed
    infer_start,  ///< inference engine started on that batch
    infer_end,    ///< inference engine finished
    vote,         ///< voter decided over the returned labels
    tx,           ///< response handed to the transport
    kCount,
};

/// Derived per-stage durations (interval between consecutive boundaries).
enum class Stage : std::uint8_t {
    parse = 0,  ///< rx -> enqueue: parse + health plan
    queue,      ///< enqueue -> formed: wait in the batcher staging queue
    dispatch,   ///< formed -> infer_start: wait for the inference engine
    infer,      ///< infer_start -> infer_end: model execution
    vote,       ///< infer_end -> vote: proposal collection + voting
    tx,         ///< vote -> tx: response serialisation / send
    total,      ///< rx -> tx
    kCount,
};

inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::kCount);

/// Stable lower-case stage names ("parse", "queue", ...), index = Stage.
[[nodiscard]] const char* stage_name(Stage stage) noexcept;

/// One frame's stage timestamps. Unstamped points read as 0; breakdown()
/// treats a missing boundary as a zero-length stage (e.g. a dropped frame
/// never reaches infer). Monotone stamping: a later stamp of the same
/// point wins, which is what a frame fanned out over several batches
/// needs — its formed/infer boundaries are those of the last batch that
/// carried one of its versions.
struct FrameTrace {
    std::array<std::uint64_t, static_cast<std::size_t>(TracePoint::kCount)> t_us{};

#ifdef MVREJU_OBS_DISABLED
    void stamp(TracePoint, std::uint64_t) noexcept {}
#else
    void stamp(TracePoint point, std::uint64_t now_us) noexcept {
        std::uint64_t& slot = t_us[static_cast<std::size_t>(point)];
        if (now_us > slot) slot = now_us;
    }
#endif

    [[nodiscard]] std::uint64_t at(TracePoint point) const noexcept {
        return t_us[static_cast<std::size_t>(point)];
    }

    /// Duration of one derived stage in microseconds; 0 when either
    /// boundary was never stamped or the boundaries are out of order.
    [[nodiscard]] std::uint64_t stage_us(Stage stage) const noexcept;

    /// Whether both boundaries of `stage` were stamped in order —
    /// distinguishes a genuinely zero-length stage (counted by the
    /// digests) from one the frame never reached (not counted).
    [[nodiscard]] bool stage_bounded(Stage stage) const noexcept;

    /// All stages at once (order = Stage), the wire-annex payload.
    [[nodiscard]] std::array<std::uint32_t, kStageCount> breakdown_us() const noexcept;

    /// The stage that consumed the largest share of the frame's budget —
    /// the SLO-breach attribution (never Stage::total). Ties resolve to
    /// the earliest stage, deterministically.
    [[nodiscard]] Stage dominant_stage() const noexcept;
};

}  // namespace mvreju::serve
