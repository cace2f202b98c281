#include "mvreju/serve/synthetic.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>
#include <utility>

#include "mvreju/obs/profiler.hpp"
#include "mvreju/serve/pipeline.hpp"
#include "mvreju/util/rng.hpp"

namespace mvreju::serve {

namespace {

/// FNV-1a, the repo's standard checksum for determinism gates.
struct Fnv1a {
    std::uint64_t hash = 1469598103934665603ull;
    void add_bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash ^= p[i];
            hash *= 1099511628211ull;
        }
    }
    template <typename T>
    void add(T value) {
        add_bytes(&value, sizeof value);
    }
};

struct Arrival {
    std::uint64_t t_us = 0;
    int stream = 0;
    int frame = 0;
    /// Min-heap order; ties break on (stream, frame) for determinism.
    bool operator>(const Arrival& other) const {
        if (t_us != other.t_us) return t_us > other.t_us;
        if (stream != other.stream) return stream > other.stream;
        return frame > other.frame;
    }
};

struct Outcome {
    std::uint8_t status = 0;  ///< ResponseStatus numeric values
    std::uint8_t degraded = 0;
    std::int32_t label = -1;
    std::uint16_t agreeing = 0;
    std::uint32_t functional = 0;
};

/// The virtual-time driver: seeded arrivals in, outcomes out. Its clock is
/// the arrival time while a frame is admitted and the virtual end of the
/// flush being delivered while its frames are voted, so a frame finishes
/// exactly when its last batch leaves the virtual engine.
class FleetRun final : public Pipeline::Driver {
public:
    FleetRun(const ModelSet& set, const FleetOptions& options, FleetStats* stats)
        : set_(set),
          options_(options),
          pipeline_(set, Pipeline::Options::from(options), *this, stats),
          outcomes_(static_cast<std::size_t>(options.streams) *
                    static_cast<std::size_t>(options.frames_per_stream)) {
        Session::Options session_options;
        session_options.health = options.health;
        session_options.scheme = options.scheme;
        sessions_.reserve(static_cast<std::size_t>(options.streams));
        const util::Rng base(options.seed);
        period_us_ = 1e6 / options.frame_rate_hz;
        for (int s = 0; s < options.streams; ++s) {
            sessions_.emplace_back(static_cast<std::uint64_t>(s), set,
                                   session_options);
            util::Rng rng = base.split(static_cast<std::uint64_t>(s));
            // Per-stream phase offset desynchronises the fleet; per-frame
            // samples follow from the same substream, so any run with these
            // options sees byte-identical inputs in byte-identical order.
            const double phase = rng.uniform(0.0, period_us_);
            streams_.push_back(StreamState{std::move(rng), phase});
            arrivals_.push(Arrival{stamp_us(phase), s, 0});
        }
    }

    FleetResult run() {
        const auto wall_start = std::chrono::steady_clock::now();
        DynamicBatcher& batcher = pipeline_.batcher();
        while (!arrivals_.empty()) {
            const Arrival next = arrivals_.top();
            // Flush every batch whose max-delay deadline falls before the
            // next arrival: virtual time advances to the deadline.
            const auto deadline = batcher.next_deadline_us();
            if (deadline && *deadline <= next.t_us) {
                batcher.flush_due(*deadline);
                continue;
            }
            arrivals_.pop();
            handle_arrival(next);
        }
        if (batcher.pending() > 0) batcher.flush_all(last_arrival_us_);
        const auto wall_end = std::chrono::steady_clock::now();

        FleetResult result = tally();
        result.wall_ms =
            std::chrono::duration<double, std::milli>(wall_end - wall_start).count();
        return result;
    }

    std::uint64_t now_us() override { return now_us_; }

    Session* session(std::uint64_t stream) override {
        return &sessions_[static_cast<std::size_t>(stream)];
    }

    void reply(const Pipeline::Reply& reply) override {
        const ResponseFrame& r = reply.response;
        Outcome& outcome =
            outcomes_[static_cast<std::size_t>(reply.stream) *
                          static_cast<std::size_t>(options_.frames_per_stream) +
                      static_cast<std::size_t>(r.frame_id)];
        outcome.status = static_cast<std::uint8_t>(r.status);
        outcome.degraded = r.degraded ? 1 : 0;
        outcome.label = r.label;
        outcome.agreeing = r.agreeing;
        outcome.functional = r.functional_modules;
        if (reply.inferred) latencies_ms_.push_back(reply.latency_ms);
        if (reply.breach) ++slo_breaches_;
    }

    void on_flush(BatchStamp& stamp) override {
        // The virtual service model: a batch queues behind the previous one
        // and occupies the engine for base + B * per_frame.
        const double busy = options_.service_base_us +
                            options_.service_per_frame_us * stamp.size;
        stamp.infer_start_us = std::max(stamp.formed_us, engine_busy_us_);
        engine_busy_us_ = stamp.infer_start_us + stamp_us(busy);
        stamp.infer_end_us = engine_busy_us_;
        // Voting and the reply are instantaneous in virtual time.
        now_us_ = engine_busy_us_;
        ++flushes_;
        flushed_frames_ += stamp.size;
    }

private:
    struct StreamState {
        util::Rng rng;
        double phase_us = 0.0;
    };

    static std::uint64_t stamp_us(double t) {
        return static_cast<std::uint64_t>(std::llround(t));
    }

    void handle_arrival(const Arrival& arrival) {
        // Profiler stage tag: sample synthesis and planning are "parse"
        // work, like the socket server's frame parsing; the batcher's
        // "infer" and the pipeline's "vote" scopes take over inside a flush.
        MVREJU_PROFILE_STAGE(profile_scope, "parse");
        last_arrival_us_ = arrival.t_us;
        now_us_ = arrival.t_us;
        StreamState& stream = streams_[static_cast<std::size_t>(arrival.stream)];
        if (arrival.frame + 1 < options_.frames_per_stream) {
            const double t =
                stream.phase_us + (arrival.frame + 1) * period_us_;
            arrivals_.push(Arrival{stamp_us(t), arrival.stream, arrival.frame + 1});
        }

        // The sample is drawn *before* any shed decision so that the
        // per-stream random sequence — and therefore every later frame — is
        // independent of load, batching and shedding.
        sample_.resize(set_.sample_size());
        for (float& v : sample_) v = static_cast<float>(stream.rng.uniform());
        pipeline_.admit(sessions_[static_cast<std::size_t>(arrival.stream)],
                        static_cast<std::uint64_t>(arrival.frame), sample_.data());
    }

    [[nodiscard]] FleetResult tally() const {
        FleetResult result;
        result.frames = outcomes_.size();
        Fnv1a fnv;
        for (const Outcome& o : outcomes_) {
            switch (o.status) {
                case 0: ++result.decided; break;
                case 1: ++result.skipped; break;
                case 2: ++result.no_output; break;
                case 3: ++result.dropped; break;
                default: break;
            }
            result.degraded += o.degraded;
            fnv.add(o.status);
            fnv.add(o.degraded);
            fnv.add(o.label);
            fnv.add(o.agreeing);
            fnv.add(o.functional);
        }
        result.output_hash = fnv.hash;
        result.slo_breaches = slo_breaches_;
        result.batch_flushes = flushes_;
        result.mean_batch =
            flushes_ == 0 ? 0.0
                          : static_cast<double>(flushed_frames_) /
                                static_cast<double>(flushes_);
        result.shed_rate = result.frames == 0
                               ? 0.0
                               : static_cast<double>(result.degraded + result.dropped) /
                                     static_cast<double>(result.frames);
        std::vector<double> sorted = latencies_ms_;
        std::sort(sorted.begin(), sorted.end());
        auto percentile = [&sorted](double p) {
            if (sorted.empty()) return 0.0;
            const auto index = static_cast<std::size_t>(
                p * static_cast<double>(sorted.size() - 1) + 0.5);
            return sorted[std::min(index, sorted.size() - 1)];
        };
        result.p50_virtual_ms = percentile(0.50);
        result.p99_virtual_ms = percentile(0.99);
        return result;
    }

    const ModelSet& set_;
    const FleetOptions& options_;
    Pipeline pipeline_;
    std::vector<Session> sessions_;
    std::vector<StreamState> streams_;
    std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> arrivals_;
    std::vector<Outcome> outcomes_;
    std::vector<double> latencies_ms_;
    std::vector<float> sample_;
    double period_us_ = 0.0;
    std::uint64_t now_us_ = 0;
    std::uint64_t last_arrival_us_ = 0;
    std::uint64_t engine_busy_us_ = 0;
    std::uint64_t slo_breaches_ = 0;
    std::uint64_t flushes_ = 0;
    std::uint64_t flushed_frames_ = 0;
};

}  // namespace

FleetResult run_fleet(const ModelSet& set, const FleetOptions& options,
                      FleetStats* stats) {
    FleetRun run(set, options, stats);
    return run.run();
}

}  // namespace mvreju::serve
