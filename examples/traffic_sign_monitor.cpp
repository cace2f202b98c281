// Traffic-sign monitor: a continuous classification stream processed by the
// three-version system while the Section VII fault process (compromises,
// crashes, reactive + time-triggered proactive rejuvenation) runs
// underneath. Prints a per-5-second health/accuracy timeline, then compares
// end-to-end output reliability with and without proactive rejuvenation.
//
//   ./build/examples/traffic_sign_monitor [--seconds 120]
//       [--serve <port>]    live /metrics and /healthz while streaming
//       [--flight <dir>]    flight-recorder postmortem dumps into <dir>
//       [--metrics <file>] [--trace <file>]

#include <cstdio>

#include "mvreju/core/system.hpp"
#include "mvreju/data/signs.hpp"
#include "mvreju/fi/inject.hpp"
#include "mvreju/ml/model.hpp"
#include "mvreju/obs/exporter.hpp"
#include "mvreju/obs/session.hpp"
#include "mvreju/util/args.hpp"

using namespace mvreju;

namespace {

struct StreamResult {
    double accuracy = 0.0;
    double skip_rate = 0.0;
};

/// Push the health engine's view of the module pool to the live /healthz
/// endpoint (no-op unless --serve started the exporter).
void publish_health(const core::HealthEngine& health) {
    obs::Exporter& exporter = obs::Exporter::global();
    if (exporter.running()) exporter.set_health(core::health_report(health));
}

StreamResult run_stream(const std::vector<ml::Sequential>& healthy,
                        const std::vector<ml::Sequential>& compromised,
                        const ml::Dataset& test, double seconds, bool rejuvenation,
                        bool verbose) {
    std::vector<core::VersionSpec<ml::Tensor, int>> specs;
    for (std::size_t m = 0; m < healthy.size(); ++m) {
        core::VersionSpec<ml::Tensor, int> spec;
        spec.healthy = [model = &healthy[m]](const ml::Tensor& x) {
            return model->predict(x);
        };
        spec.compromised = [model = &compromised[m]](const ml::Tensor& x) {
            return model->predict(x);
        };
        specs.push_back(std::move(spec));
    }
    core::HealthEngineConfig health_cfg;  // compressed Section VII-A time scale
    health_cfg.timing.mttc = 8.0;
    health_cfg.timing.mttf = 16.0;
    health_cfg.timing.rejuvenation_interval = 3.0;
    health_cfg.proactive = rejuvenation;
    health_cfg.policy = core::VictimPolicy::two_thirds_compromised;
    health_cfg.seed = 2024;
    core::MultiVersionSystem<ml::Tensor, int> system(std::move(specs),
                                                     core::Voter<int>{},
                                                     core::HealthEngine{health_cfg});

    const double frame_dt = 0.1;  // 10 classifications per second
    std::size_t decided = 0;
    std::size_t correct = 0;
    std::size_t skipped = 0;
    std::size_t frames = 0;
    std::size_t window_correct = 0;
    std::size_t window_total = 0;

    for (double t = 0.0; t < seconds; t += frame_dt) {
        const std::size_t i = frames % test.size();
        const auto frame = system.process(t, test.images[i]);
        publish_health(system.health());
        ++frames;
        ++window_total;
        if (frame.vote.decided()) {
            ++decided;
            const bool ok = *frame.vote.value == test.labels[i];
            correct += ok;
            window_correct += ok;
        } else {
            ++skipped;
        }
        if (verbose && frames % 50 == 0) {  // every 5 simulated seconds
            const auto counts = system.health().counts();
            std::printf("t=%5.1fs  H=%d C=%d N=%d  window accuracy %.2f\n", t,
                        counts.healthy, counts.compromised, counts.nonfunctional,
                        window_total ? static_cast<double>(window_correct) / window_total
                                     : 0.0);
            window_correct = window_total = 0;
        }
    }

    StreamResult result;
    result.accuracy = decided ? static_cast<double>(correct) / decided : 0.0;
    result.skip_rate = static_cast<double>(skipped) / frames;
    if (verbose) {
        const auto& stats = system.health().stats();
        std::printf("events: %zu compromises, %zu crashes, %zu reactive and %zu "
                    "proactive rejuvenations\n",
                    stats.compromises, stats.failures, stats.reactive_rejuvenations,
                    stats.proactive_rejuvenations);
    }
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    obs::Session session(args);
    const double seconds = args.get("seconds", 120.0);
    if (session.serving())
        std::printf("serving /metrics /healthz /record on 127.0.0.1:%d\n",
                    obs::Exporter::global().port());

    data::SignDatasetConfig data_cfg;
    data_cfg.train_count = 1600;
    data_cfg.test_count = 320;
    const auto dataset = data::make_traffic_signs(data_cfg);

    std::printf("training three diverse classifiers (~30 s)...\n");
    std::vector<ml::Sequential> healthy;
    healthy.push_back(ml::make_tiny_lenet(3, 16, data::kSignClasses, 38));
    healthy.push_back(ml::make_mini_alexnet(3, 16, data::kSignClasses, 39));
    healthy.push_back(ml::make_micro_resnet(3, 16, data::kSignClasses, 40));
    for (auto& model : healthy) {
        ml::TrainConfig tc;
        tc.epochs = 6;
        tc.learning_rate = 0.025f;
        tc.lr_decay = 0.9f;
        model.train(dataset.train, tc);
    }
    std::vector<ml::Sequential> compromised;
    for (std::size_t m = 0; m < healthy.size(); ++m) {
        ml::Sequential copy = healthy[m];
        (void)fi::random_weight_inj(copy, 0, -10.0f, 30.0f, 200 + m);
        compromised.push_back(std::move(copy));
    }

    std::printf("\n--- %.0f s stream WITH time-triggered rejuvenation ---\n", seconds);
    const auto with = run_stream(healthy, compromised, dataset.test, seconds, true, true);
    std::printf("\n--- %.0f s stream WITHOUT proactive rejuvenation ---\n", seconds);
    const auto without =
        run_stream(healthy, compromised, dataset.test, seconds, false, true);

    std::printf("\nsummary: accuracy of decided outputs %.3f (w/) vs %.3f (w/o); "
                "skip rate %.1f%% vs %.1f%%\n",
                with.accuracy, without.accuracy, 100.0 * with.skip_rate,
                100.0 * without.skip_rate);
    return 0;
}
