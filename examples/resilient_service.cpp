// Resilient inference service: three classifier versions behind the
// trusted voter, with the paper's health process (compromise, crash,
// reactive and time-triggered proactive rejuvenation) running underneath in
// simulated time. We attack the replicas one by one -- compromise one, crash
// another -- and the engine's own rejuvenation brings them back to health
// while the service keeps answering.
//
// This is also the flagship *live* observability target: with --serve the
// embedded exporter makes the service scrapeable while it runs, and with
// --flight every vote disagreement or silent frame leaves a postmortem dump
// behind.
//
//   ./build/examples/resilient_service
//       [--serve <port>]       live /metrics, /healthz, /record endpoint
//       [--flight <dir>]       arm the flight recorder, dumps into <dir>
//       [--metrics <file>]     metrics blob on exit
//       [--trace <file>]       Perfetto trace on exit
//       [--hold-seconds <s>]   keep serving (and scrapeable) for <s> seconds
//                              after the scripted phases, for live scraping
//       [--train-count <n>] [--test-count <n>] [--epochs <n>] [--count <n>]
//                              dataset / training / per-phase request knobs
//                              (defaults reproduce the original demo; the CI
//                              smoke run shrinks them)
//
// Fleet mode — a thin wrapper over serve::Server, replacing the scripted
// single-loop demo with a multi-stream socket front end (see DESIGN.md §10):
//
//   ./build/examples/resilient_service --serve-streams
//       [--host <ip>]            bind address     (default 127.0.0.1)
//       [--port <p>]             TCP port, 0 = ephemeral, printed on stdout
//       [--max-streams <n>]      admission cap    (default 1024)
//       [--batch-max <n>]        cross-stream batch size cap (default 64)
//       [--batch-delay-us <us>]  batching window  (default 2000)
//       [--hold-seconds <s>]     serve for <s> seconds, 0 = until killed
//
// Combine with --serve <port> to watch the fleet live: the server pushes
// its per-stream health aggregate into /healthz and the FleetStats
// telemetry document into /fleet (stage percentiles, worst streams, breach
// attribution — tools/fleet_top renders it as a dashboard).
//
// Drive it with examples/stream_client (add --trace to see each frame's
// server-side stage breakdown).
//
// Scenario replay mode — feed a sensor-failure scenario (built-in name or
// DSL file, see src/av/scenario.hpp) through the closed-loop AV simulation
// with the trust monitor + degraded-mode policy ladder engaged:
//
//   ./build/examples/resilient_service --scenario <name|file>
//       [--seed <n>]             replay seed         (default 1)
//       [--no-policy]            disable the policy ladder (baseline run)
//       [--train-count <n>] [--epochs <n>] [--cache <dir>]
//                                detector training knobs (CI shrinks them)
//       [--hold-seconds <s>]     keep replaying (fresh seeds) so /metrics
//                                stays live for scraping
//
// Combine with --serve to watch av.trust.* / av.degraded.* live and with
// --flight to capture sensor_fault / degraded_mode events in a postmortem.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "mvreju/av/simulation.hpp"
#include "mvreju/core/system.hpp"
#include "mvreju/data/signs.hpp"
#include "mvreju/fi/inject.hpp"
#include "mvreju/ml/model.hpp"
#include "mvreju/obs/exporter.hpp"
#include "mvreju/obs/session.hpp"
#include "mvreju/serve/server.hpp"
#include "mvreju/serve/session.hpp"
#include "mvreju/util/args.hpp"

using namespace mvreju;
using namespace std::chrono_literals;

namespace {

using Clock = std::chrono::steady_clock;

using Service = core::MultiVersionSystem<ml::Tensor, int>;

/// Simulated seconds between two classifications.
constexpr double kFrameDt = 0.1;

/// Push the engine's module states to the live /healthz endpoint (no-op
/// unless --serve started the exporter).
void publish_health(const core::HealthEngine& health) {
    obs::Exporter& exporter = obs::Exporter::global();
    if (exporter.running()) exporter.set_health(core::health_report(health));
}

/// Outcome mix of a run of served classifications.
struct Tally {
    int decided = 0;
    int correct = 0;
    int skipped = 0;
    int silent = 0;

    void print(const char* label) const {
        std::printf("%-34s %3d decided (%.2f correct), %d skipped, %d silent\n", label,
                    decided, decided ? static_cast<double>(correct) / decided : 0.0,
                    skipped, silent);
    }
};

/// Classify test image `i` at simulated time `clock`, then advance the clock
/// by one frame.
void serve_frame(Service& service, double& clock, const ml::Dataset& test,
                 std::size_t i, Tally& tally) {
    const std::size_t k = i % test.size();
    const auto frame = service.process(clock, test.images[k]);
    clock += kFrameDt;
    switch (frame.vote.kind) {
        case core::VoteKind::decided:
            ++tally.decided;
            tally.correct += (*frame.vote.value == test.labels[k]);
            break;
        case core::VoteKind::skipped: ++tally.skipped; break;
        case core::VoteKind::no_output: ++tally.silent; break;
    }
    publish_health(service.health());  // /healthz freshness: one frame old
}

/// Serve `count` classifications and report the outcome mix.
void serve_phase(Service& service, double& clock, const ml::Dataset& test, int count,
                 const char* label) {
    Tally tally;
    for (int i = 0; i < count; ++i)
        serve_frame(service, clock, test, static_cast<std::size_t>(i), tally);
    tally.print(label);
}

/// --serve-streams: host a fleet of concurrent perception streams over the
/// length-prefixed frame protocol, batching inference across streams. The
/// whole single-loop demo above collapses into configuring serve::Server.
int serve_streams(const util::Args& args) {
    serve::Server::Options options;
    options.host = args.host();
    options.port = args.port(0);
    options.max_streams = args.max_streams(1024);
    options.batch_max = args.batch_max(64);
    options.batch_delay_us =
        static_cast<std::uint64_t>(args.batch_delay_us(2000));
    const double hold_seconds = args.get("hold-seconds", 0.0);

    serve::ModelSetConfig set_config;
    set_config.backend = args.backend();
    const serve::ModelSet set = serve::make_model_set(set_config);
    serve::Server server(set, options);
    std::string error;
    if (!server.start(&error)) {
        std::fprintf(stderr, "error: cannot start server: %s\n", error.c_str());
        return 1;
    }
    std::printf("serving perception streams on %s:%d "
                "(max-streams %d, batch-max %d, batch-delay %llu us, "
                "backend %s)\n",
                options.host.c_str(), server.port(), options.max_streams,
                options.batch_max,
                static_cast<unsigned long long>(options.batch_delay_us),
                set.backend_name.c_str());
    if (obs::Exporter::global().running())
        std::printf("fleet telemetry on 127.0.0.1:%d/fleet "
                    "(tools/fleet_top --port %d)\n",
                    obs::Exporter::global().port(),
                    obs::Exporter::global().port());
    std::fflush(stdout);

    const auto report = [&server] {
        const serve::Server::Stats stats = server.stats();
        std::printf("streams=%llu frames=%llu decided=%llu skipped=%llu "
                    "no_output=%llu degraded=%llu dropped=%llu "
                    "slo_breaches=%llu protocol_errors=%llu refusals=%llu\n",
                    static_cast<unsigned long long>(stats.active_streams),
                    static_cast<unsigned long long>(stats.frames),
                    static_cast<unsigned long long>(stats.decided),
                    static_cast<unsigned long long>(stats.skipped),
                    static_cast<unsigned long long>(stats.no_output),
                    static_cast<unsigned long long>(stats.degraded),
                    static_cast<unsigned long long>(stats.dropped),
                    static_cast<unsigned long long>(stats.slo_breaches),
                    static_cast<unsigned long long>(stats.protocol_errors),
                    static_cast<unsigned long long>(stats.admission_refusals));
        std::fflush(stdout);
    };

    const auto started = Clock::now();
    while (hold_seconds <= 0.0 ||
           std::chrono::duration<double>(Clock::now() - started).count() <
               hold_seconds) {
        std::this_thread::sleep_for(1s);
        report();
    }
    server.stop();
    report();
    return 0;
}

/// --scenario: replay a sensor-failure scenario through the closed-loop AV
/// simulation with the trust monitor + degraded-mode policy engaged. The
/// av.trust.* / av.degraded.* gauges update every frame, and sensor_fault /
/// degraded_mode events land in the flight recorder — so with --serve and
/// --flight this is the live smoke target for the degraded-mode machinery.
int replay_scenario(const util::Args& args) {
    const std::string spec = args.get("scenario", std::string());
    av::Scenario scenario;
    try {
        scenario = av::builtin_scenario(spec);
    } catch (const std::invalid_argument&) {
        scenario = av::parse_scenario_file(spec);
    }
    std::printf("scenario '%s': %zu sensor faults, %zu weight faults\n",
                scenario.name.c_str(), scenario.sensor_faults.size(),
                scenario.weight_faults.size());

    av::SensorConfig sensor;
    av::DetectorTrainOptions opts;
    opts.train_samples = static_cast<std::size_t>(args.get("train-count", 4000));
    opts.eval_samples = opts.train_samples / 5;
    opts.epochs = args.get("epochs", 8);
    opts.cache_dir = args.get("cache", std::string(".mvreju_cache"));
    std::printf("preparing detectors (%zu samples, %d epochs)...\n",
                opts.train_samples, opts.epochs);
    const av::DetectorSet detectors = av::prepare_detectors(sensor, opts);

    const auto towns = av::make_towns();
    const auto refs = av::evaluation_routes(towns);
    const av::Route& route = towns[refs[0].town].routes[refs[0].route];

    av::ScenarioConfig cfg;
    cfg.sensor = sensor;
    cfg.scenario = &scenario;
    cfg.trust_policy = !args.has("no-policy");
    cfg.seed = static_cast<std::uint64_t>(args.get("seed", 1));

    const auto replay_once = [&](std::uint64_t seed) {
        cfg.seed = seed;
        const av::RunMetrics m = av::run_scenario(route, detectors, cfg);
        std::printf("seed %llu: %d frames, %d decided, %d unsafe, %d flagged, "
                    "%d stop, %d reduced, %d mode changes, min trust %.3f%s\n",
                    static_cast<unsigned long long>(seed), m.total_frames,
                    m.decided_frames, m.unsafe_decided_frames,
                    m.sensor_fault_frames, m.stop_frames, m.reduced_frames,
                    m.degraded_transitions, m.min_trust,
                    m.collided() ? " [collision]" : "");
        std::fflush(stdout);
    };
    replay_once(cfg.seed);

    // --hold-seconds: keep replaying under fresh seeds so the exporter has
    // live av.trust.* / av.degraded.* values for as long as a scraper needs.
    const double hold_seconds = args.get("hold-seconds", 0.0);
    if (hold_seconds > 0.0) {
        if (obs::Exporter::global().running())
            std::printf("replaying for %.1f s; /metrics on 127.0.0.1:%d\n",
                        hold_seconds, obs::Exporter::global().port());
        std::fflush(stdout);
        const auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(hold_seconds));
        std::uint64_t seed = cfg.seed;
        while (Clock::now() < deadline) replay_once(++seed);
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) try {
    const util::Args args(argc, argv);
    obs::Session session(args);
    if (args.has("serve-streams")) return serve_streams(args);
    if (args.has("scenario")) return replay_scenario(args);

    data::SignDatasetConfig data_cfg;
    data_cfg.train_count = args.get("train-count", 1600);
    data_cfg.test_count = args.get("test-count", 200);
    const auto dataset = data::make_traffic_signs(data_cfg);
    const int epochs = args.get("epochs", 8);
    const int count = args.get("count", 200);
    const double hold_seconds = args.get("hold-seconds", 0.0);

    std::printf("training three diverse classifiers...\n");
    std::vector<ml::Sequential> models;
    models.push_back(ml::make_tiny_lenet(3, 16, data::kSignClasses, 38));
    models.push_back(ml::make_mini_alexnet(3, 16, data::kSignClasses, 39));
    models.push_back(ml::make_micro_resnet(3, 16, data::kSignClasses, 40));
    for (auto& model : models) {
        ml::TrainConfig tc;
        tc.epochs = epochs;
        tc.learning_rate = 0.025f;
        tc.lr_decay = 0.9f;
        model.train(dataset.train, tc);
    }

    // Each version's compromised behaviour is its weight-injected twin. The
    // behaviours capture const pointers: inference is stateless on a shared
    // const model, and rejuvenation simply returns a version to `models`.
    std::vector<ml::Sequential> twins;
    for (std::size_t m = 0; m < models.size(); ++m) {
        twins.push_back(models[m]);
        (void)fi::random_weight_inj(twins.back(), 0, -10.0f, 30.0f, 7 + m);
    }
    std::vector<core::VersionSpec<ml::Tensor, int>> specs;
    for (std::size_t m = 0; m < models.size(); ++m)
        specs.push_back({[model = &models[m]](const ml::Tensor& x) { return model->predict(x); },
                         [model = &twins[m]](const ml::Tensor& x) { return model->predict(x); }});
    // Table IV timing: stochastic compromises are rare on the demo's time
    // scale, and the proactive clock fires every 300 s of simulated time.
    core::HealthEngineConfig health_cfg;
    health_cfg.policy = core::VictimPolicy::two_thirds_compromised;
    health_cfg.seed = 2024;
    Service service(std::move(specs), core::VotingScheme::majority, health_cfg);
    double clock = 0.0;

    if (session.serving())
        std::printf("serving /metrics /healthz /record on 127.0.0.1:%d\n",
                    obs::Exporter::global().port());

    serve_phase(service, clock, dataset.test, count, "all replicas healthy:");

    // Attack 1: compromise replica 0 (it keeps answering, wrongly).
    service.health().force_compromise(0);
    serve_phase(service, clock, dataset.test, count, "replica 0 compromised:");

    // Attack 2: crash replica 1. No operator acts from here on: the engine
    // repairs the crash reactively and its proactive clock eventually
    // rejuvenates the compromised replica.
    service.health().force_failure(1);
    const double attacked_at = clock;
    Tally recovery;
    for (std::size_t i = 0; service.health().counts().healthy < 3; ++i)
        serve_frame(service, clock, dataset.test, i, recovery);
    recovery.print("replica 1 crashed, recovering:");
    const core::HealthStats& stats = service.health().stats();
    std::printf("  all replicas healthy again after %.1f s (simulated): %zu reactive, "
                "%zu proactive rejuvenations\n",
                service.health().now() - attacked_at, stats.reactive_rejuvenations,
                stats.proactive_rejuvenations);

    serve_phase(service, clock, dataset.test, count, "after rejuvenation:");

    // --hold-seconds: keep the service alive and answering so an external
    // scraper (the CI smoke test, or a human with curl) can watch it live.
    if (hold_seconds > 0.0) {
        std::printf("holding for %.1f s...\n", hold_seconds);
        std::fflush(stdout);
        const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                 std::chrono::duration<double>(hold_seconds));
        Tally held;
        for (std::size_t i = 0; Clock::now() < deadline; ++i) {
            serve_frame(service, clock, dataset.test, i, held);
            std::this_thread::sleep_for(50ms);
        }
        held.print("while holding:");
    }
    return 0;
} catch (const mvreju::util::ArgError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
}
