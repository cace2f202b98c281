#include "mvreju/obs/flight_recorder.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

#include "mvreju/obs/buildinfo.hpp"
#include "mvreju/obs/log.hpp"
#include "mvreju/obs/metrics.hpp"

namespace mvreju::obs {

namespace {

constexpr std::size_t kMask = FlightRecorder::kRingCapacity - 1;
static_assert((FlightRecorder::kRingCapacity & kMask) == 0,
              "ring capacity must be a power of two");

/// One ring slot. All fields are relaxed atomics so a concurrent reader is
/// race-free; `seq` (the 1-based absolute event index, written last with
/// release) validates a slot read: a reader that sees seq change across its
/// field reads discards the slot.
struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> t_ns{0};
    std::atomic<std::uint64_t> frame{0};
    std::atomic<std::uint32_t> module{0};
    std::atomic<std::uint16_t> kind{0};
    std::atomic<double> a{0.0};
    std::atomic<double> b{0.0};
};

/// One thread's ring. Only the owning thread writes; head counts events ever
/// written (the next write lands at head & kMask).
struct Ring {
    explicit Ring(std::uint64_t track_id) : track(track_id) {}
    const std::uint64_t track;
    std::atomic<std::uint64_t> head{0};
    std::vector<Slot> slots{FlightRecorder::kRingCapacity};
};

std::atomic<std::uint64_t> g_next_recorder_id{1};

std::string fmt_payload(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

const char* event_kind_name(EventKind kind) noexcept {
    switch (kind) {
        case EventKind::vote_decided: return "vote_decided";
        case EventKind::vote_skipped: return "vote_skipped";
        case EventKind::vote_no_output: return "vote_no_output";
        case EventKind::module_state: return "module_state";
        case EventKind::rejuvenation_start: return "rejuvenation_start";
        case EventKind::rejuvenation_end: return "rejuvenation_end";
        case EventKind::collision: return "collision";
        case EventKind::hazard: return "hazard";
        case EventKind::injection: return "injection";
        case EventKind::slo_breach: return "slo_breach";
        case EventKind::custom: return "custom";
        case EventKind::load_shed: return "load_shed";
        case EventKind::breach_stage: return "breach_stage";
        case EventKind::sensor_fault: return "sensor_fault";
        case EventKind::degraded_mode: return "degraded_mode";
        case EventKind::kCount: break;
    }
    return "unknown";
}

struct FlightRecorder::Impl {
    const std::uint64_t recorder_id = g_next_recorder_id.fetch_add(1);
    const std::chrono::steady_clock::time_point epoch = std::chrono::steady_clock::now();

    std::atomic<bool> armed{false};
    std::atomic<std::uint32_t> trigger_mask{0};
    std::array<std::atomic<double>, static_cast<std::size_t>(EventKind::kCount)>
        trigger_min_a{};
    std::atomic<std::uint64_t> trigger_dump_count{0};
    std::atomic<std::uint64_t> dump_limit{8};
    std::atomic<bool> dumping{false};  ///< one dump at a time; extras are dropped

    std::mutex mu;  ///< guards rings list, dump_dir, last_dump, dump_seq
    std::vector<std::shared_ptr<Ring>> rings;
    std::string dump_dir = ".";
    std::string last_dump;
    std::uint64_t dump_seq = 0;

    Ring& ring_for_this_thread();
};

namespace {
/// Thread-local ring directory, keyed by recorder id (ids are never reused,
/// so a recorder destroyed while a thread still holds a ring cannot be
/// confused with a new one).
struct TlsRing {
    std::uint64_t recorder_id;
    std::shared_ptr<Ring> ring;
};
thread_local std::vector<TlsRing> t_rings;
}  // namespace

Ring& FlightRecorder::Impl::ring_for_this_thread() {
    for (const TlsRing& e : t_rings)
        if (e.recorder_id == recorder_id) return *e.ring;
    std::shared_ptr<Ring> ring;
    {
        const std::lock_guard<std::mutex> lock(mu);
        ring = std::make_shared<Ring>(rings.size() + 1);
        rings.push_back(ring);
    }
    t_rings.push_back({recorder_id, ring});
    return *t_rings.back().ring;
}

FlightRecorder::FlightRecorder() : impl_(new Impl) {}

FlightRecorder::~FlightRecorder() { delete impl_; }

FlightRecorder& FlightRecorder::global() {
    // Leaked like the metrics registry: worker threads may outlive main().
    static FlightRecorder* recorder = new FlightRecorder();
    return *recorder;
}

void FlightRecorder::set_enabled(bool on) noexcept {
    impl_->armed.store(on, std::memory_order_relaxed);
}

bool FlightRecorder::enabled() const noexcept {
    return impl_->armed.load(std::memory_order_relaxed) && obs::enabled();
}

void FlightRecorder::set_dump_dir(std::string dir) {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->dump_dir = dir.empty() ? "." : std::move(dir);
}

void FlightRecorder::set_dump_limit(std::size_t limit) noexcept {
    impl_->dump_limit.store(limit, std::memory_order_relaxed);
}

void FlightRecorder::set_trigger(EventKind kind, bool on, double min_a) noexcept {
    const auto bit = 1u << static_cast<unsigned>(kind);
    impl_->trigger_min_a[static_cast<std::size_t>(kind)].store(
        min_a, std::memory_order_relaxed);
    if (on)
        impl_->trigger_mask.fetch_or(bit, std::memory_order_relaxed);
    else
        impl_->trigger_mask.fetch_and(~bit, std::memory_order_relaxed);
}

std::uint64_t FlightRecorder::now_ns() const noexcept {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - impl_->epoch)
                                          .count());
}

void FlightRecorder::record(EventKind kind, std::uint64_t frame, std::uint32_t module,
                            double a, double b) noexcept {
    if (!enabled()) return;
    record_at(now_ns(), kind, frame, module, a, b);
}

void FlightRecorder::record_at(std::uint64_t t_ns, EventKind kind, std::uint64_t frame,
                               std::uint32_t module, double a, double b) noexcept {
    if (!enabled()) return;
    Ring& ring = impl_->ring_for_this_thread();
    const std::uint64_t i = ring.head.load(std::memory_order_relaxed);
    Slot& slot = ring.slots[i & kMask];
    // Invalidate, write fields, publish: a reader whose two seq loads
    // disagree (or see 0) skips the slot instead of reading a torn record.
    slot.seq.store(0, std::memory_order_release);
    slot.t_ns.store(t_ns, std::memory_order_relaxed);
    slot.frame.store(frame, std::memory_order_relaxed);
    slot.module.store(module, std::memory_order_relaxed);
    slot.kind.store(static_cast<std::uint16_t>(kind), std::memory_order_relaxed);
    slot.a.store(a, std::memory_order_relaxed);
    slot.b.store(b, std::memory_order_relaxed);
    slot.seq.store(i + 1, std::memory_order_release);
    ring.head.store(i + 1, std::memory_order_relaxed);

    const auto bit = 1u << static_cast<unsigned>(kind);
    if (impl_->trigger_mask.load(std::memory_order_relaxed) & bit) {
        EventRecord record{t_ns, frame, module, kind, a, b};
        maybe_trigger(kind, record);
    }
}

void FlightRecorder::maybe_trigger(EventKind kind, const EventRecord& record) noexcept {
    if (record.a < impl_->trigger_min_a[static_cast<std::size_t>(kind)].load(
                       std::memory_order_relaxed))
        return;
    if (impl_->trigger_dump_count.load(std::memory_order_relaxed) >=
        impl_->dump_limit.load(std::memory_order_relaxed))
        return;
    // One dump at a time; a concurrent trigger is dropped, not queued — the
    // black box it would have dumped is (almost) the same one.
    if (impl_->dumping.exchange(true, std::memory_order_acquire)) return;
    if (impl_->trigger_dump_count.load(std::memory_order_relaxed) <
        impl_->dump_limit.load(std::memory_order_relaxed)) {
        try {
            const std::string path = write_dump(event_kind_name(kind), &record);
            if (!path.empty())
                impl_->trigger_dump_count.fetch_add(1, std::memory_order_relaxed);
        } catch (...) {
            // A failing dump must never take the service down with it.
        }
    }
    impl_->dumping.store(false, std::memory_order_release);
}

std::vector<FlightRecorder::ThreadEvents> FlightRecorder::snapshot() {
    std::vector<std::shared_ptr<Ring>> rings;
    {
        const std::lock_guard<std::mutex> lock(impl_->mu);
        rings = impl_->rings;
    }
    std::vector<ThreadEvents> out;
    out.reserve(rings.size());
    for (const std::shared_ptr<Ring>& ring : rings) {
        ThreadEvents events;
        events.track = ring->track;
        const std::uint64_t head = ring->head.load(std::memory_order_acquire);
        const std::uint64_t count = head < kRingCapacity ? head : kRingCapacity;
        events.events.reserve(count);
        for (std::uint64_t k = head - count; k < head; ++k) {
            const Slot& slot = ring->slots[k & kMask];
            const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
            if (s1 != k + 1) continue;  // overwritten (or being written) — skip
            EventRecord record;
            record.t_ns = slot.t_ns.load(std::memory_order_relaxed);
            record.frame = slot.frame.load(std::memory_order_relaxed);
            record.module = slot.module.load(std::memory_order_relaxed);
            record.kind = static_cast<EventKind>(slot.kind.load(std::memory_order_relaxed));
            record.a = slot.a.load(std::memory_order_relaxed);
            record.b = slot.b.load(std::memory_order_relaxed);
            const std::uint64_t s2 = slot.seq.load(std::memory_order_acquire);
            if (s1 != s2) continue;
            events.events.push_back(record);
        }
        if (!events.events.empty()) out.push_back(std::move(events));
    }
    return out;
}

std::string FlightRecorder::dump_json(const std::string& reason,
                                      const EventRecord* trigger) {
    auto append_event = [](std::string& out, const EventRecord& e) {
        out += "{\"t_ns\": " + std::to_string(e.t_ns);
        out += ", \"frame\": " + std::to_string(e.frame);
        out += ", \"module\": " + std::to_string(e.module);
        out += ", \"kind\": \"";
        out += event_kind_name(e.kind);
        out += "\", \"a\": " + fmt_payload(e.a);
        out += ", \"b\": " + fmt_payload(e.b);
        out += "}";
    };

    std::string out = "{\n\"meta\": " + run_metadata_json() + ",\n";
    out += "\"reason\": \"" + reason + "\",\n";
    out += "\"dumped_at_ns\": " + std::to_string(now_ns()) + ",\n";
    if (trigger != nullptr) {
        out += "\"trigger\": ";
        append_event(out, *trigger);
        out += ",\n";
    }
    out += "\"threads\": [";
    const std::vector<ThreadEvents> threads = snapshot();
    for (std::size_t t = 0; t < threads.size(); ++t) {
        out += t ? ",\n" : "\n";
        out += "{\"track\": " + std::to_string(threads[t].track) + ", \"events\": [";
        const std::vector<EventRecord>& events = threads[t].events;
        for (std::size_t e = 0; e < events.size(); ++e) {
            out += e ? ",\n  " : "\n  ";
            append_event(out, events[e]);
        }
        out += events.empty() ? "]}" : "\n]}";
    }
    out += threads.empty() ? "],\n" : "\n],\n";
    out += "\"metrics\": " + metrics().snapshot().to_json();
    out += "\n}\n";
    return out;
}

std::string FlightRecorder::write_dump(const std::string& reason,
                                       const EventRecord* trigger) {
    const std::string body = dump_json(reason, trigger);

    char stamp[32] = "00000000T000000";
    const std::time_t wall = std::time(nullptr);
    std::tm utc{};
    if (gmtime_r(&wall, &utc) != nullptr)
        std::strftime(stamp, sizeof stamp, "%Y%m%dT%H%M%S", &utc);

    std::string path;
    {
        const std::lock_guard<std::mutex> lock(impl_->mu);
        path = impl_->dump_dir + "/postmortem-" + stamp + "-" +
               std::to_string(impl_->dump_seq++) + ".json";
    }
    std::ofstream file(path);
    file << body;
    if (!file.good()) {
        log_error("flight recorder: cannot write " + path);
        return "";
    }
    {
        const std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->last_dump = path;
    }
    log_info("flight recorder: wrote " + path + " (reason: " + reason + ")");
    return path;
}

std::string FlightRecorder::dump(const std::string& reason) {
    return write_dump(reason, nullptr);
}

std::uint64_t FlightRecorder::trigger_dumps() const noexcept {
    return impl_->trigger_dump_count.load(std::memory_order_relaxed);
}

std::string FlightRecorder::last_dump_path() const {
    const std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->last_dump;
}

void FlightRecorder::clear() {
    std::vector<std::shared_ptr<Ring>> rings;
    {
        const std::lock_guard<std::mutex> lock(impl_->mu);
        rings = impl_->rings;
    }
    for (const std::shared_ptr<Ring>& ring : rings) {
        for (Slot& slot : ring->slots) slot.seq.store(0, std::memory_order_relaxed);
        ring->head.store(0, std::memory_order_relaxed);
    }
    impl_->trigger_dump_count.store(0, std::memory_order_relaxed);
}

}  // namespace mvreju::obs
