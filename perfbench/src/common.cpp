#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "mvreju/core/voter.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/obs/trace.hpp"

namespace perfbench {

double now_us() {
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch).count();
}

double peak_rss_mb() {
    // VmHWM, not getrusage: ru_maxrss survives execve, so a process started
    // from a larger parent (python3 run.py) would report the parent's peak.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

std::size_t thread_budget() {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::string fixed(double v, int digits) {
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(digits);
    out << v;
    return out.str();
}

double counter_value(const std::string& name) {
    for (const auto& c : mvreju::obs::metrics().snapshot().counters)
        if (c.name == name) return static_cast<double>(c.value);
    return 0.0;
}

// --- Metric catalogue ------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s", "lower"},
        {"latency_p50_ms", "ms", "lower"},
        {"latency_tail_ms", "ms", "lower"},
        {"ops_per_s", "1/s", "higher"},
        {"peak_rss_mb", "MB", "lower"},
    };
    return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s = {
            {"net.unattributed_us_p50", "us", "lower"},
            {"net.unattributed_us_p99", "us", "lower"},
            {"net.covered_share", "share", "higher"},
            {"net.client_send_us_p50", "us", "lower"},
            {"net.client_recv_us_p50", "us", "lower"},
            {"gen.lag_us_p99", "us", "lower"},
        };
        for (const char* stage : {"parse", "queue", "dispatch", "infer", "vote", "tx", "total"})
            for (const char* q : {"p50", "p99"})
                s.push_back({std::string("serve.") + stage + "_us_" + q, "us", "lower"});
        s.push_back({"serve.batch_mean", "count", "higher"});
        s.push_back({"serve.full_flush_share", "share", "higher"});
        s.push_back({"serve.skipped_share", "share", "lower"});
        s.push_back({"serve.degraded_share", "share", "lower"});
        for (const char* model : {"tinylenet", "minialexnet", "microresnet"})
            for (const char* b : {"b1", "b64"})
                s.push_back({std::string("ml.logits_batch_us.") + model + "." + b, "us",
                             "lower"});
        for (const char* model : {"detectors", "detectorm", "detectorl"})
            s.push_back({std::string("ml.logits_batch_us.") + model + ".b1", "us", "lower"});
        for (const char* kind : {"conv2d", "dense", "maxpool", "relu", "flatten", "residual"})
            s.push_back({std::string("ml.layer_us.") + kind, "us", "lower"});
        s.push_back({"ml.workspace_allocations", "count", "lower"});
        s.push_back({"ml.train_s", "s", "lower"});
        s.push_back({"num.sgemm_gflops.scalar", "GFLOP/s", "higher"});
        s.push_back({"num.sgemm_gflops.avx2", "GFLOP/s", "higher"});
        s.push_back({"num.gemm_mflop_per_sample", "MFLOP", "lower"});
        s.push_back({"num.gemm_mbyte_per_sample", "MB", "lower"});
        s.push_back({"num.gs_sweeps", "count", "lower"});
        s.push_back({"num.dense_solves", "count", "lower"});
        s.push_back({"core.vote_ns", "ns", "lower"});
        s.push_back({"core.begin_frame_ns", "ns", "lower"});
        s.push_back({"av.perceive_vote_us", "us", "lower"});
        s.push_back({"av.perceive_share", "share", "lower"});
        s.push_back({"av.inferences_per_frame", "count", "lower"});
        s.push_back({"av.stop_frame_share", "share", "lower"});
        for (const char* model : {"detectors", "detectorm", "detectorl"})
            s.push_back({std::string("av.detect_us.") + model, "us", "lower"});
        s.push_back({"av.render_grid_us", "us", "lower"});
        s.push_back({"av.trust_update_us", "us", "lower"});
        s.push_back({"av.frame_self_us", "us", "lower"});
        s.push_back({"dspn.reachability_ms", "ms", "lower"});
        s.push_back({"dspn.rebind_us", "us", "lower"});
        s.push_back({"dspn.solve_us", "us", "lower"});
        s.push_back({"dspn.unique_solves", "count", "lower"});
        s.push_back({"dspn.rebuilds", "count", "lower"});
        s.push_back({"dspn.rebinds", "count", "higher"});
        s.push_back({"dspn.family_members", "count", "higher"});
        s.push_back({"dspn.states", "count", "lower"});
        s.push_back({"dspn.cache_hit_share", "share", "higher"});
        s.push_back({"dspn.steady_state_self_us", "us", "lower"});
        s.push_back({"dspn.solve_family_self_us", "us", "lower"});
        s.push_back({"obs.trace_overhead_pct", "%", "lower"});
        return s;
    }();
    return specs;
}

bool valid_metric_name(std::string_view name) {
    if (name.empty()) return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
               c == '_' || c == '.' || c == '-';
    });
}

// --- Percentiles -----------------------------------------------------------

bool Percentile::supported() const noexcept { return samples > 0 && beyond >= kMinBeyond; }

Percentile percentile(std::vector<double> samples, double q) {
    Percentile p;
    p.samples = samples.size();
    if (samples.empty()) return p;
    // Nearest rank: the smallest value with at least q of the sample at or
    // below it. `beyond` counts the samples strictly after that rank.
    const auto n = static_cast<double>(samples.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                     samples.end());
    p.value = samples[rank - 1];
    p.beyond = samples.size() - rank;
    return p;
}

double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

WindowedPercentile windowed_percentile(const std::vector<double>& samples, double q) {
    WindowedPercentile out;
    out.samples = samples.size();
    out.q = q;
    // Smallest window whose own q-percentile has kMinBeyond samples beyond.
    const auto min_window =
        static_cast<std::size_t>(std::ceil(static_cast<double>(kMinBeyond) / (1.0 - q) - 1e-9));
    if (samples.size() < min_window) {
        if (samples.size() <= kMinBeyond) return out;
        const auto n = static_cast<double>(samples.size());
        out.q = (n - static_cast<double>(kMinBeyond)) / n;
        const Percentile p = percentile(samples, out.q);
        out.value = p.value;
        out.windows = 1;
        out.min_beyond = p.beyond;
        return out;
    }
    const std::size_t windows = std::min<std::size_t>(kMaxWindows, samples.size() / min_window);
    std::vector<double> per_window;
    out.min_beyond = samples.size();
    const std::size_t size = samples.size() / windows;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto first = samples.begin() + static_cast<long>(w * size);
        const auto last = w + 1 == windows ? samples.end() : first + static_cast<long>(size);
        const Percentile p = percentile(std::vector<double>(first, last), q);
        out.min_beyond = std::min(out.min_beyond, p.beyond);
        per_window.push_back(p.value);
    }
    out.windows = windows;
    out.value = median(per_window);
    return out;
}

std::string describe_tail(const WindowedPercentile& p) {
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(p.q < 0.99 ? 2 : 0);
    out << 'p' << p.q * 100.0 << " over " << p.samples << " samples in " << p.windows
        << " window" << (p.windows == 1 ? "" : "s") << " (>= " << p.min_beyond
        << " beyond per window)";
    return out.str();
}

// --- Report ----------------------------------------------------------------

namespace {

const MetricSpec* find_spec(const std::vector<MetricSpec>& specs, const std::string& name) {
    for (const MetricSpec& s : specs)
        if (s.name == name) return &s;
    return nullptr;
}

std::string json_number(double v) {
    if (!std::isfinite(v)) return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

void Report::set(const std::string& name, double value) {
    const auto& specs = traced_ ? per_layer_metrics() : end_to_end_metrics();
    if (find_spec(specs, name) == nullptr)
        throw std::logic_error("metric not in the " +
                               std::string(traced_ ? "per-layer" : "end-to-end") +
                               " catalogue: " + name);
    values_[name] = value;
}

void Report::note(const std::string& line) const { std::cout << line << '\n' << std::flush; }

void Report::check_failed(const std::string& why) {
    ++check_failures_;
    std::cout << "CHECK FAILED: " << why << '\n' << std::flush;
}

std::string Report::json_line() const {
    const auto& specs = traced_ ? per_layer_metrics() : end_to_end_metrics();
    std::ostringstream out;
    out << "{\"correct\": " << (correct() ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec& s : specs) {
        const auto it = values_.find(s.name);
        if (it == values_.end() && !traced_)
            throw std::logic_error("end-to-end metric never measured: " + s.name);
        const double v = it == values_.end() ? 0.0 : it->second;
        out << (first ? "" : ", ") << '"' << s.name << "\": {\"value\": " << json_number(v)
            << ", \"unit\": \"" << s.unit << "\"}";
        first = false;
    }
    out << "}}";
    return out.str();
}

// --- Span log --------------------------------------------------------------

int SpanLog::begin(std::string name, int parent) {
    spans_.push_back(Span{std::move(name), now_us(), -1.0, parent, 0});
    child_us_.push_back(0.0);
    return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int id) {
    Span& s = spans_.at(static_cast<std::size_t>(id));
    s.end_us = now_us();
    if (s.parent >= 0) child_us_.at(static_cast<std::size_t>(s.parent)) += s.end_us - s.start_us;
}

namespace {

/// Value of `"key": <number>` inside one rendered trace event, or nullopt.
std::optional<double> event_number(std::string_view event, std::string_view key) {
    std::string pattern(1, '"');
    pattern.append(key).append("\": ");
    const std::size_t at = event.find(pattern);
    if (at == std::string_view::npos) return std::nullopt;
    const std::string tail(event.substr(at + pattern.size(), 40));
    char* end = nullptr;
    const double v = std::strtod(tail.c_str(), &end);
    if (end == tail.c_str()) return std::nullopt;
    return v;
}

}  // namespace

long SpanLog::add_program_spans(const std::string& chrome_json, std::size_t keep_limit) {
    // obs::Tracer renders one event per line:
    //   {"name": "...", "ph": "X", "pid": 1, "tid": N, "ts": T, "dur": D, ...}
    struct Event {
        std::string name;
        double ts, dur;
        std::uint32_t tid;
    };
    std::vector<Event> events;
    // Both clocks are steady_clock; only their epochs differ.
    const double shift = now_us() - mvreju::obs::Tracer::global().now_us();
    std::size_t pos = chrome_json.find('[');
    if (pos == std::string::npos) return -1;
    while ((pos = chrome_json.find("{\"name\": \"", pos)) != std::string::npos) {
        const std::size_t line_end = chrome_json.find('\n', pos);
        const std::string_view event(chrome_json.data() + pos,
                                     (line_end == std::string::npos ? chrome_json.size()
                                                                    : line_end) -
                                         pos);
        pos += 10;
        const std::size_t name_end = event.find('"', 10);
        if (name_end == std::string_view::npos) return -1;
        if (event.find("\"ph\": \"X\"") == std::string_view::npos) continue;
        const auto ts = event_number(event, "ts");
        const auto dur = event_number(event, "dur");
        const auto tid = event_number(event, "tid");
        if (!ts || !dur || !tid) return -1;
        events.push_back(Event{std::string(event.substr(10, name_end - 10)), *ts + shift, *dur,
                               static_cast<std::uint32_t>(*tid) + 1});
    }
    // Rebuild nesting per thread: sort by (tid, start, longest first) and
    // keep a stack of open spans.
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
        if (a.tid != b.tid) return a.tid < b.tid;
        if (a.ts != b.ts) return a.ts < b.ts;
        return a.dur > b.dur;
    });
    const std::size_t base = spans_.size();
    std::vector<int> stack;
    std::uint32_t tid = 0;
    for (const Event& e : events) {
        if (e.tid != tid) {
            stack.clear();
            tid = e.tid;
        }
        const double end = e.ts + e.dur;
        while (!stack.empty() && spans_[static_cast<std::size_t>(stack.back())].end_us <= e.ts)
            stack.pop_back();
        const int parent = stack.empty() ? -1 : stack.back();
        spans_.push_back(Span{e.name, e.ts, end, parent, e.tid});
        child_us_.push_back(0.0);
        if (parent >= 0) child_us_[static_cast<std::size_t>(parent)] += e.dur;
        stack.push_back(static_cast<int>(spans_.size() - 1));
    }
    // Keep the raw spans only up to the memory limit; the excess is folded
    // into the aggregate right away (nesting is already resolved).
    const std::size_t keep = std::max(base, keep_limit);
    if (spans_.size() > keep) {
        fold_into(dropped_, keep, spans_.size());
        spans_.resize(keep);
        child_us_.resize(keep);
    }
    return static_cast<long>(events.size());
}

void SpanLog::fold_into(std::map<std::string, Stat>& stats, std::size_t from,
                        std::size_t to) const {
    for (std::size_t i = from; i < to; ++i) {
        const Span& s = spans_[i];
        if (s.end_us < s.start_us) continue;  // still open
        Stat& st = stats[s.name];
        const double dur = s.end_us - s.start_us;
        ++st.count;
        st.total_us += dur;
        st.self_us += std::max(0.0, dur - child_us_[i]);
    }
}

std::map<std::string, SpanLog::Stat> SpanLog::stats() const {
    std::map<std::string, Stat> out = dropped_;
    fold_into(out, 0, spans_.size());
    return out;
}

void SpanLog::write_chrome(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        char buf[128];
        std::snprintf(buf, sizeof buf, "\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                                       "\"ts\": %.3f, \"dur\": %.3f}",
                      s.tid, s.start_us, std::max(0.0, s.end_us - s.start_us));
        out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name << buf;
    }
    out << "\n]}\n";
    if (!out.good()) throw std::runtime_error("cannot write span log to " + path);
}

// --- Voter enumeration -----------------------------------------------------

std::set<Outcome> producible_outcomes(const std::vector<int>& healthy,
                                      const std::vector<int>& compromised) {
    const std::size_t versions = healthy.size();
    const mvreju::core::Voter<int> voter(mvreju::core::VotingScheme::majority);
    std::set<Outcome> out;
    std::size_t assignments = 1;
    for (std::size_t m = 0; m < versions; ++m) assignments *= 3;
    for (std::size_t a = 0; a < assignments; ++a) {
        std::vector<std::optional<int>> proposals(versions);
        int functional = 0;
        std::size_t code = a;
        for (std::size_t m = 0; m < versions; ++m, code /= 3) {
            // 0 healthy, 1 compromised, 2 non-functional (failed or
            // rejuvenating: no proposal).
            if (code % 3 == 0) proposals[m] = healthy[m];
            if (code % 3 == 1) proposals[m] = compromised[m];
            functional += code % 3 != 2 ? 1 : 0;
        }
        const auto vote = voter.vote(proposals);
        out.insert(Outcome{static_cast<int>(vote.kind), vote.value.value_or(-1),
                           vote.agreeing, functional});
    }
    return out;
}

// --- Open-loop schedule ----------------------------------------------------

std::vector<std::uint64_t> OpenLoopSchedule::take_due(double now) {
    std::vector<std::uint64_t> due;
    while (due_us(next_) <= now) due.push_back(next_++);
    return due;
}

}  // namespace perfbench
