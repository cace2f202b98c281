// av_campaign: the sensor-failure scenario campaign through av::run_scenario
// — the 7 built-in scenario classes x {baseline, trust_policy} x 6 seeds on
// evaluation route 0, fanned out with util::parallel_for. This is the
// per-sample, scalar, batch-1 use of ml/num inside the AV frame loop.

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "mvreju/av/simulation.hpp"
#include "mvreju/core/system.hpp"
#include "mvreju/obs/trace.hpp"
#include "mvreju/util/parallel.hpp"
#include "mvreju/util/rng.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace av = mvreju::av;
namespace core = mvreju::core;
namespace ml = mvreju::ml;

namespace {

constexpr int kSeedsPerCell = 6;
constexpr std::size_t kProgramSpanLimit = 200'000;

/// Outcome hash of a fixed reference set — the 7 classes x {baseline,
/// policy} at seed 4200 + 100 * class, independent of --seed — as this
/// benchmark recorded it. A change to what run_scenario computes moves it.
constexpr std::uint64_t kReferenceHash = 0x14d21dcf4bb40c9bULL;

struct Cell {
    std::size_t scenario = 0;
    bool policy = false;
    std::uint64_t seed = 0;
};

struct RunResult {
    av::RunMetrics metrics;
    double wall_ms = 0.0;
    bool threw = false;
};

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xffu;
        hash *= 1099511628211ULL;
    }
    return hash;
}

/// FNV-1a over whether each run threw and its outcome counters (the record
/// bench/extension_sensor_scenarios hashes).
std::uint64_t outcome_hash(const std::vector<RunResult>& runs) {
    std::uint64_t hash = 1469598103934665603ULL;
    for (const RunResult& r : runs) {
        const av::RunMetrics& m = r.metrics;
        for (const long v :
             {static_cast<long>(r.threw), static_cast<long>(m.total_frames),
              static_cast<long>(m.unsafe_decided_frames), static_cast<long>(m.decided_frames),
              static_cast<long>(m.skipped_frames), static_cast<long>(m.no_output_frames),
              static_cast<long>(m.collision_frames), static_cast<long>(m.first_collision_frame),
              static_cast<long>(m.sensor_fault_frames), static_cast<long>(m.stop_frames),
              static_cast<long>(m.reduced_frames), static_cast<long>(m.dropped_proposals),
              static_cast<long>(m.degraded_transitions),
              static_cast<long>(m.min_trust * 1e6)})
            hash = fnv1a(hash, static_cast<std::uint64_t>(v));
    }
    return hash;
}

std::string hex(std::uint64_t v) {
    std::ostringstream out;
    out << "0x" << std::hex << v;
    return out.str();
}

struct Campaign {
    const av::Route& route;
    const av::DetectorSet& detectors;
    const av::SensorConfig& sensor;
    const std::vector<av::Scenario>& scenarios;

    std::vector<RunResult> run(const std::vector<Cell>& cells, std::size_t threads) const {
        std::vector<RunResult> out(cells.size());
        mvreju::util::parallel_for(
            cells.size(),
            [&](std::size_t i) {
                av::ScenarioConfig cfg;
                cfg.sensor = sensor;
                cfg.scenario = &scenarios[cells[i].scenario];
                cfg.trust_policy = cells[i].policy;
                cfg.seed = cells[i].seed;
                const auto t0 = Clock::now();
                try {
                    out[i].metrics = av::run_scenario(route, detectors, cfg);
                } catch (const std::exception&) {
                    out[i].threw = true;
                }
                out[i].wall_ms = seconds_between(t0, Clock::now()) * 1e3;
            },
            threads);
        return out;
    }
};

/// Sensor grids along the route with one lead vehicle, for the probes.
std::vector<ml::Tensor> probe_grids(const av::Route& route, const av::SensorConfig& sensor,
                                    std::uint64_t seed) {
    mvreju::util::Rng rng(seed);
    std::vector<ml::Tensor> grids;
    for (int i = 0; i < 64; ++i) {
        const double s = std::fmod(3.0 * i, std::max(1.0, route.length() - 40.0));
        av::Obb ego;
        ego.center = route.point_at(s);
        ego.heading = route.heading_at(s);
        av::Obb lead;
        lead.center = route.point_at(s + 8.0 + 0.5 * (i % 40));
        lead.heading = route.heading_at(s + 8.0 + 0.5 * (i % 40));
        const std::vector<av::Obb> vehicles{lead};
        grids.push_back(av::render_grid(ego, vehicles, sensor, rng));
    }
    return grids;
}

}  // namespace

void run_av(const RunArgs& args, Report& report, SpanLog& spans) {
    const std::size_t threads = thread_budget();

    // --- Set-up: detector training (no cache), route, scenarios ------------
    const auto setup_start = Clock::now();
    const av::SensorConfig sensor;
    const av::DetectorSet detectors = av::prepare_detectors(sensor, av::DetectorTrainOptions{});
    const auto towns = av::make_towns();
    const auto refs = av::evaluation_routes(towns);
    const av::Route& route = towns[refs[0].town].routes[refs[0].route];
    std::vector<av::Scenario> scenarios;
    for (const std::string& name : av::builtin_scenario_names())
        scenarios.push_back(av::parse_scenario(av::builtin_scenario_text(name)));
    const double setup_s = seconds_between(setup_start, Clock::now());

    std::vector<Cell> cells;
    for (std::size_t c = 0; c < scenarios.size(); ++c)
        for (const bool policy : {false, true})
            for (int r = 0; r < kSeedsPerCell; ++r)
                cells.push_back(Cell{c, policy, mix64(args.seed * 1000 + c * 10 + r) >> 16});
    std::vector<Cell> reference;
    for (std::size_t c = 0; c < scenarios.size(); ++c)
        for (const bool policy : {false, true})
            reference.push_back(Cell{c, policy, 4200 + 100 * c});
    const Campaign campaign{route, detectors, sensor, scenarios};

    report.note("workload av_campaign: " + std::to_string(scenarios.size()) +
                " scenario classes x {baseline, trust_policy} x " +
                std::to_string(kSeedsPerCell) + " seeds on route " + towns[refs[0].town].name +
                "/0 per pass; parallel_for on " + std::to_string(threads) +
                " threads (nproc budget " + std::to_string(thread_budget()) + "); seed " +
                std::to_string(args.seed));

    // --- Warm-up pass (not timed), then timed passes ----------------------
    const auto warm_start = Clock::now();
    const std::vector<RunResult> warm = campaign.run(cells, threads);
    report.note("  setup " + fixed(setup_s, 2) + " s; warm-up pass " +
                fixed(seconds_between(warm_start, Clock::now()), 2) + " s");
    const std::uint64_t expected = outcome_hash(warm);
    std::size_t attempted = cells.size();
    std::size_t failed = 0;
    std::size_t bad_passes = 0;
    auto count = [&](const std::vector<RunResult>& runs) {
        for (const RunResult& r : runs) failed += r.threw ? 1 : 0;
        attempted += runs.size();
    };
    for (const RunResult& r : warm) failed += r.threw ? 1 : 0;

    struct Phase {
        double seconds = 0.0;
        double frames = 0.0;
        std::vector<double> pass_fps;
        std::vector<std::vector<double>> run_ms;  ///< per cell: its wall time in each pass
        std::vector<RunResult> runs;  ///< every run of the phase, for layer rows
    };
    auto timed_phase = [&](double budget_s, bool traced) {
        Phase p;
        p.run_ms.resize(cells.size());
        if (traced) mvreju::obs::Tracer::global().enable();
        while (p.seconds < budget_s) {
            const auto t0 = Clock::now();
            std::vector<RunResult> runs = campaign.run(cells, threads);
            const double pass_s = seconds_between(t0, Clock::now());
            p.seconds += pass_s;
            double pass_frames = 0.0;
            for (const RunResult& r : runs) pass_frames += r.metrics.total_frames;
            p.pass_fps.push_back(pass_frames / pass_s);
            if (traced) {
                auto& tracer = mvreju::obs::Tracer::global();
                if (spans.add_program_spans(tracer.chrome_json(), kProgramSpanLimit) < 0)
                    throw std::runtime_error("unreadable program trace");
                tracer.clear();
            }
            count(runs);
            if (outcome_hash(runs) != expected) ++bad_passes;
            for (std::size_t i = 0; i < runs.size(); ++i) {
                p.frames += runs[i].metrics.total_frames;
                p.run_ms[i].push_back(runs[i].wall_ms);
                p.runs.push_back(std::move(runs[i]));
            }
        }
        if (traced) mvreju::obs::Tracer::global().disable();
        return p;
    };
    const Phase timed = timed_phase(args.trace ? args.seconds / 2 : args.seconds, false);
    const Phase traced = args.trace ? timed_phase(args.seconds / 2, true) : Phase{};

    // --- Output checks ------------------------------------------------------
    const auto serial_start = Clock::now();
    const std::vector<RunResult> serial = campaign.run(cells, 1);
    report.note("  serial replay " + fixed(seconds_between(serial_start, Clock::now()), 2) + " s");
    const std::vector<RunResult> ref = campaign.run(reference, threads);
    count(serial);
    count(ref);
    const std::uint64_t serial_hash = outcome_hash(serial);
    const std::uint64_t ref_hash = outcome_hash(ref);
    report.attempted = attempted;
    report.failed = failed + cells.size() * bad_passes;
    report.note("  checks: pass hash " + hex(expected) + " on " + std::to_string(threads) +
                " threads, serial replay " + hex(serial_hash) + ", " +
                std::to_string(bad_passes) + " passes differing; reference set " +
                hex(ref_hash) + " (recorded " + hex(kReferenceHash) + "); " +
                std::to_string(failed) + " runs threw");
    report.note("  failed_share = " +
                fixed(attempted ? static_cast<double>(report.failed) / attempted : 0.0, 6) +
                " (runs that threw or failed the output check, of " + std::to_string(attempted) +
                ")");
    if (serial_hash != expected || bad_passes > 0)
        report.check_failed("av: campaign outcomes differ between passes or from the serial replay");
    if (ref_hash != kReferenceHash)
        report.check_failed("av: reference outcome hash " + hex(ref_hash) +
                            " differs from the recorded " + hex(kReferenceHash));
    if (failed > 0) report.check_failed("av: " + std::to_string(failed) + " runs threw");

    const double fps = median(timed.pass_fps);
    // Every pass runs the same cells, so each scenario run's latency is its
    // median wall time over the passes and the percentiles run over the 84
    // runs. A host stall then moves a run's latency only if it hits that run
    // in most passes.
    std::vector<double> run_latency_ms;
    for (const std::vector<double>& walls : timed.run_ms) run_latency_ms.push_back(median(walls));
    const Percentile p50 = percentile(run_latency_ms, 0.50);
    const WindowedPercentile tail = windowed_percentile(run_latency_ms, 0.99);
    std::string passes;
    for (const double r : timed.pass_fps) passes.append(1, ' ').append(fixed(r, 0));
    report.note("  frames_per_s (simulated) = " + fixed(fps, 1) + ", median over " +
                std::to_string(timed.pass_fps.size()) + " passes (" + fixed(timed.frames, 0) +
                " frames in " + fixed(timed.seconds, 2) + " s); per pass:" + passes);
    report.note("  scenario-run latency: p50 " + fixed(p50.value, 3) + " ms, tail " +
                fixed(tail.value, 3) + " ms = " + describe_tail(tail) + "; each run the median of " +
                std::to_string(timed.pass_fps.size()) + " passes");
    if (!report.traced()) {
        if (tail.windows == 0) throw std::runtime_error("too few scenario runs for a tail percentile");
        report.set("setup_s", setup_s);
        report.set("latency_p50_ms", p50.value);
        report.set("latency_tail_ms", tail.value);
        report.set("ops_per_s", fps);
        report.set("peak_rss_mb", peak_rss_mb());
        report.note("  setup_s = " + fixed(setup_s, 3) +
                    " (detector training + compromised-variant scan, no cache; routes; scenarios)");
        return;
    }

    // --- Per-layer rows from the traced passes -----------------------------
    double perceive_s = 0, wall_s = 0, inferred = 0, inferences = 0, frames = 0, stops = 0;
    for (const RunResult& r : traced.runs) {
        perceive_s += r.metrics.perception_wall_seconds;
        wall_s += r.wall_ms * 1e-3;
        inferred += r.metrics.total_frames - r.metrics.stop_frames;
        inferences += static_cast<double>(r.metrics.inferences);
        frames += r.metrics.total_frames;
        stops += r.metrics.stop_frames;
    }
    report.set("ml.train_s", setup_s);
    report.set("av.perceive_vote_us", inferred > 0 ? perceive_s / inferred * 1e6 : 0.0);
    report.set("av.perceive_share", wall_s > 0 ? perceive_s / wall_s : 0.0);
    report.set("av.inferences_per_frame", frames > 0 ? inferences / frames : 0.0);
    report.set("av.stop_frame_share", frames > 0 ? stops / frames : 0.0);
    const auto program = spans.stats();
    const auto frame_it = program.find("av.frame");
    report.set("av.frame_self_us",
               frame_it == program.end() ? 0.0 : frame_it->second.mean_self_us());
    const double traced_fps = median(traced.pass_fps);
    report.set("obs.trace_overhead_pct", 100.0 * (fps / traced_fps - 1.0));
    report.note("  av.perceive_vote_us = " + fixed(perceive_s / inferred * 1e6, 2) +
                " per inferred frame; perceive share of run wall time " +
                fixed(100.0 * perceive_s / wall_s, 1) + "%; inferences per frame " +
                fixed(inferences / frames, 3) + "; stop-frame share " + fixed(stops / frames, 4));
    if (frame_it != program.end())
        report.note("  span av.frame: " + std::to_string(frame_it->second.count) +
                    " frames, self " + fixed(frame_it->second.mean_self_us(), 2) +
                    " us per frame (sense, trust, plan; perceive_vote excluded)");
    report.note("  obs.trace_overhead_pct = " + fixed(100.0 * (fps / traced_fps - 1.0), 2) +
                " (traced passes vs untraced passes, frames/s)");

    // --- Probes on the detectors, scalar, batch 1 ---------------------------
    const std::vector<ml::Tensor> grids = probe_grids(route, sensor, args.seed);
    const std::vector<std::string> names = {"detectors", "detectorm", "detectorl"};
    MlContext ctx;
    for (std::size_t m = 0; m < names.size(); ++m)
        ctx.models.emplace_back(names[m], &detectors.healthy[m]);
    ctx.backend = &detectors.healthy[0].backend();
    ctx.sample_shape = grids.front().shape();
    for (const ml::Tensor& g : grids) ctx.samples.emplace_back(g.data().begin(), g.data().end());
    ctx.logits_batches = {1};
    ctx.layer_batch = 1;
    probe_ml(ctx, spans, report);

    std::size_t next = 0;
    long sink = 0;
    for (std::size_t m = 0; m < names.size(); ++m) {
        const double ns = median_call_ns(spans, "av.detect", 200, 15, [&] {
            sink += av::detect(detectors.healthy[m], grids[next++ % grids.size()]).bucket;
        });
        report.set("av.detect_us." + names[m], ns * 1e-3);
        report.note("  av.detect_us." + names[m] + " = " + fixed(ns * 1e-3, 2));
    }
    mvreju::util::Rng rng(args.seed);
    av::Obb ego;
    ego.center = route.point_at(10.0);
    ego.heading = route.heading_at(10.0);
    av::Obb lead;
    lead.center = route.point_at(30.0);
    lead.heading = route.heading_at(30.0);
    const std::vector<av::Obb> vehicles{lead};
    const double render_ns = median_call_ns(spans, "av.render_grid", 500, 15, [&] {
        sink += static_cast<long>(av::render_grid(ego, vehicles, sensor, rng).size());
    });
    av::TrustMonitor trust;
    const double trust_ns = median_call_ns(spans, "av.trust_update", 500, 15, [&] {
        sink += static_cast<long>(trust.update(grids[next++ % grids.size()], 0.05));
    });
    report.set("av.render_grid_us", render_ns * 1e-3);
    report.set("av.trust_update_us", trust_ns * 1e-3);

    // The per-frame voter and the health-advance + plan step, with the
    // campaign's detector agreement rule and fault-process parameters.
    const core::Voter<av::Detection, av::DetectionNear> voter(core::VotingScheme::majority);
    std::vector<std::vector<std::optional<av::Detection>>> proposals;
    for (const ml::Tensor& g : grids) {
        std::vector<std::optional<av::Detection>> p;
        for (const ml::Sequential& model : detectors.healthy) p.emplace_back(av::detect(model, g));
        proposals.push_back(std::move(p));
    }
    const double vote_ns = median_call_ns(spans, "core.vote", 20000, 15, [&] {
        sink += voter.vote(proposals[next++ % proposals.size()]).agreeing;
    });
    const av::ScenarioConfig defaults;
    core::HealthEngineConfig health;
    health.modules = defaults.versions;
    health.proactive = defaults.rejuvenation;
    health.policy = defaults.victim_policy;
    health.timing.mttc = defaults.mttc;
    health.timing.mttf = defaults.mttf;
    health.timing.reactive_duration = defaults.reactive_duration;
    health.timing.proactive_duration = defaults.proactive_duration;
    health.timing.rejuvenation_interval = defaults.rejuvenation_interval;
    health.seed = args.seed;
    std::vector<core::VersionSpec<ml::Tensor, av::Detection>> specs;
    for (std::size_t m = 0; m < detectors.healthy.size(); ++m) {
        const ml::Sequential* healthy = &detectors.healthy[m];
        const ml::Sequential* compromised = &detectors.compromised[m].front().model;
        specs.push_back({[healthy](const ml::Tensor& x) { return av::detect(*healthy, x); },
                         [compromised](const ml::Tensor& x) { return av::detect(*compromised, x); }});
    }
    core::MultiVersionSystem<ml::Tensor, av::Detection, av::DetectionNear> system(
        std::move(specs), voter, core::HealthEngine(health));
    double t = 0.0;
    const double begin_ns = median_call_ns(spans, "core.begin_frame", 20000, 15, [&] {
        t += defaults.dt;
        sink += system.begin_frame(t).functional_modules;
    });
    keep(sink);
    report.set("core.vote_ns", vote_ns);
    report.set("core.begin_frame_ns", begin_ns);
    report.note("  av.render_grid_us = " + fixed(render_ns * 1e-3, 2) + ", av.trust_update_us = " +
                fixed(trust_ns * 1e-3, 2) + ", core.vote_ns = " + fixed(vote_ns, 1) +
                ", core.begin_frame_ns = " + fixed(begin_ns, 1));
}

}  // namespace perfbench
