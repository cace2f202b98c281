#pragma once

// Shared plumbing of the wall-clock benchmark: the metric catalogue, the
// result report (human lines + the final JSON line), percentile rules,
// the in-memory span log with self-time accounting, and the voter
// enumeration checker used by the serving workloads.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds on the steady clock since the first call in this process.
[[nodiscard]] double now_us();

/// Seconds between two steady-clock points.
[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Worker budget: the machine's hardware threads, capped at 4 (the
/// benchmark is sized for a 4-core machine; a bigger host must not turn
/// the same command into a different workload).
[[nodiscard]] std::size_t thread_budget();

/// splitmix64 finaliser, used to derive per-item values from the seed.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// `v` in fixed notation with `digits` decimals, for the human-readable lines.
[[nodiscard]] std::string fixed(double v, int digits);

/// Current value of one of the program's obs counters (0 when never bumped).
[[nodiscard]] double counter_value(const std::string& name);

// --- Metric catalogue ------------------------------------------------------

struct MetricSpec {
    std::string name;
    std::string unit;
    std::string better;  ///< "lower" or "higher"
};

/// Metrics every untraced run prints (BENCHMARK.json "end_to_end").
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Metrics every traced run prints (BENCHMARK.json "per_layer"). A layer a
/// workload never runs reads 0 there.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();
/// Metric names are [A-Za-z0-9_.-]+ (safe as JSON keys and in BENCHMARK.json).
[[nodiscard]] bool valid_metric_name(std::string_view name);

// --- Percentiles -----------------------------------------------------------

/// Nearest-rank percentile with its support: `beyond` is the number of
/// samples above the reported rank. A tail percentile is reportable only
/// with at least kMinBeyond samples beyond it.
struct Percentile {
    double value = 0.0;
    std::size_t samples = 0;
    std::size_t beyond = 0;
    [[nodiscard]] bool supported() const noexcept;
};
inline constexpr std::size_t kMinBeyond = 10;

[[nodiscard]] Percentile percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// Percentile of `samples` (in completion order) reported as the median of
/// the per-window percentiles over up to kMaxWindows equal consecutive windows, each
/// large enough for the percentile to be supported on its own. Medians over
/// windows keep one scheduler hiccup from moving a run's tail. A sample too
/// small for q falls back to one window at the highest supported percentile
/// (`q` says which); `windows` is 0 when not even that exists.
inline constexpr std::size_t kMaxWindows = 50;
struct WindowedPercentile {
    double value = 0.0;
    double q = 0.0;  ///< percentile actually reported
    std::size_t samples = 0;
    std::size_t windows = 0;
    std::size_t min_beyond = 0;  ///< smallest per-window support
};
[[nodiscard]] WindowedPercentile windowed_percentile(const std::vector<double>& samples,
                                                     double q);
/// "p99 over N samples in W windows (>= B beyond per window)".
[[nodiscard]] std::string describe_tail(const WindowedPercentile& p);

// --- Report ----------------------------------------------------------------

/// Collects one run's results. Human-readable lines go to stdout as they
/// are noted; json_line() renders the run's final line with exactly the
/// catalogue's metrics for the run mode.
class Report {
public:
    explicit Report(bool traced) : traced_(traced) {}

    /// Record a metric; throws when the name is not in the catalogue of
    /// this run mode.
    void set(const std::string& name, double value);
    /// Print a human-readable line.
    void note(const std::string& line) const;
    /// An output check failed: the run is not correct.
    void check_failed(const std::string& why);

    [[nodiscard]] bool correct() const noexcept { return check_failures_ == 0; }
    [[nodiscard]] bool traced() const noexcept { return traced_; }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /// The final JSON line. End-to-end metrics must all have been set;
    /// per-layer metrics a workload does not exercise read 0.
    [[nodiscard]] std::string json_line() const;

private:
    bool traced_;
    std::map<std::string, double> values_;
    std::size_t check_failures_ = 0;
};

// --- Span log --------------------------------------------------------------

/// In-memory span log: the benchmark's own spans around calls into each
/// module, plus the program's own spans folded in from obs::Tracer. Self
/// time of a span is its duration minus the time its direct children cover.
class SpanLog {
public:
    struct Span {
        std::string name;
        double start_us = 0.0;
        double end_us = 0.0;
        int parent = -1;
        std::uint32_t tid = 0;  ///< 0 = benchmark thread; program tids + 1
    };
    struct Stat {
        std::size_t count = 0;
        double total_us = 0.0;
        double self_us = 0.0;
        [[nodiscard]] double mean_us() const { return count ? total_us / count : 0.0; }
        [[nodiscard]] double mean_self_us() const { return count ? self_us / count : 0.0; }
    };

    /// Open a span on the benchmark thread; returns its id.
    int begin(std::string name, int parent = -1);
    void end(int id);

    /// Fold the program's Chrome trace-event JSON (obs::Tracer output):
    /// parents are reconstructed by containment per thread, and times are
    /// moved onto now_us()'s clock. Returns the number of complete events
    /// read, or -1 on a malformed document.
    long add_program_spans(const std::string& chrome_json, std::size_t keep_limit);

    /// Per-name count, total and self time over everything logged (open
    /// spans are not counted).
    [[nodiscard]] std::map<std::string, Stat> stats() const;

    /// Write the spans kept in memory as Chrome trace-event JSON.
    void write_chrome(const std::string& path) const;

private:
    void fold_into(std::map<std::string, Stat>& stats, std::size_t from,
                   std::size_t to) const;
    std::vector<Span> spans_;
    std::vector<double> child_us_;  ///< per span: time covered by direct children
    std::map<std::string, Stat> dropped_;  ///< aggregate of spans not kept
};

/// RAII span on a SpanLog.
class Scoped {
public:
    Scoped(SpanLog& log, std::string name, int parent = -1)
        : log_(log), id_(log.begin(std::move(name), parent)) {}
    ~Scoped() { log_.end(id_); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

private:
    SpanLog& log_;
    int id_;
};

// --- Voter enumeration -----------------------------------------------------

/// One served outcome as the wire reports it.
struct Outcome {
    int status = 0;  ///< serve::ResponseStatus value
    int label = -1;
    int agreeing = 0;
    int functional = 0;
    friend auto operator<=>(const Outcome&, const Outcome&) = default;
};

/// Every outcome core::Voter (majority) can produce for three versions
/// whose healthy and compromised labels are given, over all 27
/// healthy/compromised/non-functional assignments.
[[nodiscard]] std::set<Outcome> producible_outcomes(const std::vector<int>& healthy,
                                                    const std::vector<int>& compromised);

// --- Open-loop schedule ----------------------------------------------------

/// Open-loop arrival schedule for one connection: one burst due every
/// `period_us`, the first `phase_us` after `start_us`. Due times never
/// depend on when the generator actually ran, so a stall is charged to
/// every frame scheduled behind it (latency is measured from the due time).
class OpenLoopSchedule {
public:
    OpenLoopSchedule(double start_us, double phase_us, double period_us)
        : start_us_(start_us), phase_us_(phase_us), period_us_(period_us) {}

    /// Due time of burst k.
    [[nodiscard]] double due_us(std::uint64_t k) const noexcept {
        return start_us_ + phase_us_ + period_us_ * static_cast<double>(k);
    }
    /// Next burst not yet sent.
    [[nodiscard]] std::uint64_t next() const noexcept { return next_; }
    /// Bursts due at `now_us` and not yet sent (all of them are sent now,
    /// each keeping its own due time).
    [[nodiscard]] std::vector<std::uint64_t> take_due(double now_us);

private:
    double start_us_;
    double phase_us_;
    double period_us_;
    std::uint64_t next_ = 0;
};

/// Self-tests of the benchmark's own logic (percentile rule, voter
/// enumeration, stall accounting, metric names). Returns the number of
/// failures; each is printed.
int run_self_tests();

}  // namespace perfbench
