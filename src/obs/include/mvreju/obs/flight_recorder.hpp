#pragma once

// Black-box flight recorder for the multi-version runtime: a fixed-size,
// per-thread ring buffer of structured binary event records capturing the
// moments *before* a failure — the paper's whole premise is that modules age
// silently from healthy to compromised, so the frames leading up to a
// deadline miss, vote disagreement or collision are exactly the ones a
// postmortem needs and exactly the ones exit-time aggregation loses.
//
// Hot-path contract (enforced by tests/obs_flight_recorder_test.cpp and the
// microbench `obs_flight_record` sections):
//  - record() performs no allocation and takes no lock: the calling thread
//    owns its ring (registered once, on first use), a slot write is a
//    handful of relaxed atomic stores plus a relaxed index bump, and a
//    disabled recorder returns after one relaxed load.
//  - Readers (snapshot/dump, possibly concurrent with writers) validate each
//    slot with a per-slot sequence number written last (release) and read
//    first (acquire); a slot being overwritten mid-read is skipped, never
//    torn and never a data race. A recorder under concurrent writes is a
//    best-effort black box: the merge may miss the 1-2 newest events of a
//    racing thread, but always yields the last kRingCapacity committed
//    events of every quiescent thread.
//  - Triggers move all cost off the steady state: record() checks one
//    relaxed bitmask; only a *matching* event (optionally above a per-kind
//    payload threshold) pays for the snapshot-merge + metrics snapshot +
//    JSON dump, guarded by a dump counter so a storm of deadline misses
//    cannot fill the disk.
//
// Timestamps are monotonic nanoseconds since the recorder's epoch by
// default; call sites that live in simulated time (MultiVersionSystem, the
// av frame loop) pass their own clock via record_at(), which makes dumps
// from seeded runs byte-deterministic — the property the postmortem golden
// test builds on.
//
// Everything is default-off: nothing is recorded until set_enabled(true)
// (wired to the --flight flag by obs::Session), MVREJU_OBS=off wins over
// that, and with -DMVREJU_OBS=OFF the MVREJU_OBS_EVENT macros below compile
// call sites out entirely.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mvreju/obs/obs.hpp"

namespace mvreju::obs {

/// What happened. Payload doubles `a`/`b` are kind-specific; the table in
/// DESIGN.md section 8 is the authoritative contract.
enum class EventKind : std::uint16_t {
    vote_decided = 0,    ///< a = proposals posted, b = proposals agreeing/responded
    vote_skipped,        ///< voter disagreement; a = posted, b = responded
    vote_no_output,      ///< no functional module; a = posted
    module_state,        ///< health transition; a = new state, b = old state
    rejuvenation_start,  ///< a = cause (0 manual, 1 reactive, 2 proactive)
    rejuvenation_end,    ///< a = cause
    collision,           ///< av: ego overlaps an NPC; a = ego speed, b = first (0/1)
    hazard,              ///< av: decided hazard bucket; a = voted, b = ground truth
    injection,           ///< fi: fault injected; a = accuracy drop, b = faulty accuracy
    slo_breach,          ///< latency above budget; a = observed ms, b = budget ms
    custom,              ///< application-defined
    load_shed,           ///< serve: frame degraded/dropped; a = 1 shed, 2 dropped
    breach_stage,        ///< serve: SLO breach attributed to a pipeline stage;
                         ///< a = serve::Stage index, b = that stage's ms
    sensor_fault,        ///< av: input monitor flagged a frame; a =
                         ///< SensorStatus, b = trust reliability score
    degraded_mode,       ///< av: policy ladder transition; a = new mode,
                         ///< b = old mode
    kCount,
};

/// Stable lower-case name ("vote_decided", ...) used in dumps and triggers.
[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

/// One black-box record: 48 bytes, plain data, no pointers.
struct EventRecord {
    std::uint64_t t_ns = 0;    ///< monotonic ns since the recorder epoch (or simulated)
    std::uint64_t frame = 0;   ///< frame / iteration id at the call site
    std::uint32_t module = 0;  ///< module / version / site index (0 when n/a)
    EventKind kind = EventKind::custom;
    double a = 0.0;
    double b = 0.0;
};

/// Fixed-size per-thread ring-buffer recorder with trigger-driven postmortem
/// dumps. The process-global instance is FlightRecorder::global(); separate
/// instances exist for tests.
class FlightRecorder {
public:
    /// Events retained per thread (power of two; the postmortem contract
    /// guarantees at least the last 256 events per thread, this keeps 4x).
    static constexpr std::size_t kRingCapacity = 1024;

    FlightRecorder();
    ~FlightRecorder();
    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    [[nodiscard]] static FlightRecorder& global();

    /// Arm / disarm the recorder. Off by default; obs::enabled() == false
    /// (MVREJU_OBS=off) wins over set_enabled(true).
    void set_enabled(bool on) noexcept;
    [[nodiscard]] bool enabled() const noexcept;

    /// Where postmortem-*.json files go (default: current directory).
    void set_dump_dir(std::string dir);
    /// Cap on trigger-produced dumps for the recorder's lifetime (default 8);
    /// forced dumps via dump() do not count against it.
    void set_dump_limit(std::size_t limit) noexcept;

    /// Arm a trigger: an event of `kind` with payload a >= min_a produces a
    /// postmortem dump (subject to the dump limit). Pass on=false to disarm.
    void set_trigger(EventKind kind, bool on, double min_a = 0.0) noexcept;

    /// Record one event on the calling thread's ring; timestamps against the
    /// recorder's steady-clock epoch. Allocation- and lock-free after the
    /// thread's first event.
    void record(EventKind kind, std::uint64_t frame, std::uint32_t module,
                double a = 0.0, double b = 0.0) noexcept;

    /// Same, with an explicit timestamp — for call sites living in simulated
    /// time, whose dumps must be deterministic under a seed.
    void record_at(std::uint64_t t_ns, EventKind kind, std::uint64_t frame,
                   std::uint32_t module, double a = 0.0, double b = 0.0) noexcept;

    /// Monotonic ns since the recorder epoch (what record() stamps).
    [[nodiscard]] std::uint64_t now_ns() const noexcept;

    /// Snapshot-merge of one thread's ring, oldest first.
    struct ThreadEvents {
        std::uint64_t track = 0;  ///< stable per-thread id (registration order)
        std::vector<EventRecord> events;
    };
    /// Consistent-slot merge of all rings (live and exited threads).
    [[nodiscard]] std::vector<ThreadEvents> snapshot();

    /// The postmortem document: run metadata, reason, optional triggering
    /// event, all rings, and a full metrics snapshot of obs::metrics().
    [[nodiscard]] std::string dump_json(const std::string& reason,
                                        const EventRecord* trigger = nullptr);

    /// Write dump_json() to `<dump_dir>/postmortem-<utc>-<seq>.json`;
    /// returns the path, or "" when the write failed. Forced dumps ignore
    /// the trigger dump limit.
    std::string dump(const std::string& reason);

    /// Trigger-produced dumps so far (forced dumps excluded).
    [[nodiscard]] std::uint64_t trigger_dumps() const noexcept;
    /// Path of the most recent dump ("" when none yet).
    [[nodiscard]] std::string last_dump_path() const;

    /// Drop all recorded events and reset the trigger-dump counter (rings
    /// and trigger arms persist). Not safe against concurrent writers.
    void clear();

private:
    void maybe_trigger(EventKind kind, const EventRecord& record) noexcept;
    std::string write_dump(const std::string& reason, const EventRecord* trigger);

    struct Impl;
    Impl* impl_;
};

}  // namespace mvreju::obs

// Event instrumentation macros: compile to nothing under -DMVREJU_OBS=OFF,
// and to a single relaxed load when the recorder is disarmed. Library call
// sites use these, never FlightRecorder::global() directly.
#ifdef MVREJU_OBS_DISABLED
// sizeof keeps the arguments unevaluated (zero code, zero data) while still
// "using" them, so -Wunused warnings don't fire in OBS=OFF builds.
#define MVREJU_OBS_EVENT(kind, frame, module, a, b)                               \
    ((void)sizeof(((void)(kind), (void)(frame), (void)(module), (void)(a),        \
                   (void)(b), 0)))
#define MVREJU_OBS_EVENT_AT(t_ns, kind, frame, module, a, b)                      \
    ((void)sizeof(((void)(t_ns), (void)(kind), (void)(frame), (void)(module),     \
                   (void)(a), (void)(b), 0)))
#else
#define MVREJU_OBS_EVENT(kind, frame, module, a, b) \
    ::mvreju::obs::FlightRecorder::global().record((kind), (frame), (module), (a), (b))
#define MVREJU_OBS_EVENT_AT(t_ns, kind, frame, module, a, b)                  \
    ::mvreju::obs::FlightRecorder::global().record_at((t_ns), (kind), (frame), \
                                                      (module), (a), (b))
#endif
