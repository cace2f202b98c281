#pragma once

// Lock-cheap metrics registry: counters, gauges and fixed-bucket histograms
// with quantile estimates. Built for the repo's execution model — metric
// updates happen inside util::parallel_for workers, Monte-Carlo loops and
// the server and exporter threads — so the hot path must not serialise
// writers:
//
//  - Counters and histograms are sharded per thread. Each thread owns a
//    shard; updates are relaxed atomic ops on cells no other thread writes,
//    so there is no contention and no lock on the update path (a shard
//    mutex is taken only when a thread touches a metric for the first time,
//    and by snapshot() while it reads).
//  - Shards are reference-counted. When a worker thread exits (parallel_for
//    spawns fresh threads per call) its shard stays registered with its
//    final values; snapshot() folds shards of dead threads into a retired
//    accumulator so the shard list stays bounded.
//  - Gauges are last-write-wins process-wide values (a single atomic in the
//    registry) — sharding a "current value" has no meaningful merge.
//  - Handles (Counter&, Gauge&, Histogram&) are stable for the registry's
//    lifetime; look them up once (function-local static) and reuse.
//
// All of it is inert when obs::enabled() is false (MVREJU_OBS=off): updates
// return after one relaxed atomic load.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mvreju/obs/obs.hpp"

namespace mvreju::obs {

class Registry;

/// Upper bucket bounds for a histogram; strictly increasing. Samples above
/// the last bound land in an implicit overflow bucket.
struct HistogramBounds {
    std::vector<double> upper;

    /// count buckets: (start, start+step], (start+step, start+2*step], ...
    [[nodiscard]] static HistogramBounds linear(double start, double step,
                                                std::size_t count);
    /// count buckets with geometrically growing bounds: start, start*factor, ...
    [[nodiscard]] static HistogramBounds exponential(double start, double factor,
                                                     std::size_t count);
};

/// Monotonic counter handle. add() is one relaxed atomic add on a cell owned
/// by the calling thread.
class Counter {
public:
    void add(std::uint64_t delta = 1) noexcept;

private:
    friend class Registry;
    Counter(Registry* registry, std::size_t id) : registry_(registry), id_(id) {}
    Registry* registry_;
    std::size_t id_;
};

/// Last-write-wins instantaneous value.
class Gauge {
public:
    void set(double value) noexcept;

private:
    friend class Registry;
    Gauge(Registry* registry, std::size_t id) : registry_(registry), id_(id) {}
    Registry* registry_;
    std::size_t id_;
};

/// Fixed-bucket histogram handle; record() updates the calling thread's
/// bucket cell plus count/sum/min/max, all relaxed atomics.
class Histogram {
public:
    void record(double value) noexcept;

private:
    friend class Registry;
    Histogram(Registry* registry, std::size_t id) : registry_(registry), id_(id) {}
    Registry* registry_;
    std::size_t id_;
};

struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
};

struct GaugeValue {
    std::string name;
    double value = 0.0;
};

struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  ///< smallest recorded sample (0 when count == 0)
    double max = 0.0;
    std::vector<double> upper;          ///< bucket upper bounds
    std::vector<std::uint64_t> buckets; ///< upper.size() + 1 (overflow last)

    [[nodiscard]] double mean() const;
    /// Quantile estimate by linear interpolation inside the bucket that
    /// contains the q-th sample; exact to within one bucket's width.
    [[nodiscard]] double quantile(double q) const;
};

/// Point-in-time merged view over all shards, sorted by metric name.
struct MetricsSnapshot {
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;

    /// Human-readable dump (one metric per line).
    [[nodiscard]] std::string to_text() const;
    /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}.
    [[nodiscard]] std::string to_json() const;
    /// Flat name/kind/value table via util::CsvWriter.
    void write_csv(const std::string& path) const;
};

/// Metric registry. The process-global instance is obs::metrics(); separate
/// instances can be created for tests. Handle getters are idempotent by
/// name and throw std::logic_error when a name is reused with a different
/// metric kind (or different histogram bounds).
class Registry {
public:
    Registry();
    ~Registry();
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    [[nodiscard]] Counter& counter(const std::string& name);
    [[nodiscard]] Gauge& gauge(const std::string& name);
    [[nodiscard]] Histogram& histogram(const std::string& name,
                                       const HistogramBounds& bounds);

    /// Merge all shards (live and retired) into a consistent snapshot.
    [[nodiscard]] MetricsSnapshot snapshot();

    /// Drop every recorded value (definitions and handles stay valid).
    void reset();

private:
    friend class Counter;
    friend class Gauge;
    friend class Histogram;
    struct Impl;
    Impl* impl_;
};

/// The process-global registry used by the library instrumentation points.
[[nodiscard]] Registry& metrics();

}  // namespace mvreju::obs
