#include "mvreju/serve/session.hpp"

#include <stdexcept>

#include "mvreju/fi/inject.hpp"

namespace mvreju::serve {

namespace {

core::MultiVersionSystem<ml::Tensor, int> make_system(
    std::uint64_t stream_id, const ModelSet& set, const Session::Options& options) {
    core::HealthEngineConfig health = options.health;
    health.modules = static_cast<int>(set.pointers.size());
    // Independent per-stream health processes from one base seed: streams
    // age on their own trajectories, deterministically.
    health.seed = health.seed + stream_id;
    return {set.behaviours, core::Voter<int>{options.scheme},
            core::HealthEngine{health}};
}

}  // namespace

ModelSet make_model_set(const ModelSetConfig& config) {
    ModelSet set;
    const num::KernelBackend& fleet_backend = num::select_backend(config.backend);
    auto add_version = [&set, &fleet_backend](ml::Sequential model,
                                              std::uint64_t inject_seed) {
        auto pristine = std::make_unique<ml::Sequential>(std::move(model));
        // Load-time binding: every inference through this version — inline
        // predict(), behaviours, batched flushes — dispatches through the
        // fleet backend without per-call branching.
        pristine->bind_backend(&fleet_backend);
        auto twin = std::make_unique<ml::Sequential>(*pristine);
        // Same fault model as the paper's classifiers: one random weight of
        // the first layer overwritten with uniform([-10, 30)).
        (void)fi::random_weight_inj(*twin, 0, -10.0f, 30.0f, inject_seed);
        set.pointers.healthy.push_back(pristine.get());
        set.pointers.compromised.push_back(twin.get());
        set.storage.push_back(std::move(pristine));
        set.storage.push_back(std::move(twin));
    };
    add_version(ml::make_tiny_lenet(config.channels, config.side, config.classes,
                                    config.seed),
                config.seed + 10);
    add_version(ml::make_mini_alexnet(config.channels, config.side, config.classes,
                                      config.seed + 1),
                config.seed + 11);
    add_version(ml::make_micro_resnet(config.channels, config.side, config.classes,
                                      config.seed + 2),
                config.seed + 12);

    std::vector<core::VersionSpec<ml::Tensor, int>> specs;
    for (std::size_t m = 0; m < set.pointers.size(); ++m) {
        const ml::Sequential* healthy = set.pointers.healthy[m];
        const ml::Sequential* compromised = set.pointers.compromised[m];
        specs.push_back(core::VersionSpec<ml::Tensor, int>{
            [healthy](const ml::Tensor& x) { return healthy->predict(x); },
            [compromised](const ml::Tensor& x) { return compromised->predict(x); }});
    }
    set.behaviours = std::make_shared<const ModelSet::Pool>(std::move(specs));
    set.input_shape = {config.channels, config.side, config.side};
    set.backend_name = std::string(fleet_backend.name());
    return set;
}

Session::Session(std::uint64_t stream_id, const ModelSet& set,
                 const Options& options)
    : id_(stream_id),
      models_(&set.pointers),
      system_(make_system(stream_id, set, options)) {
    if (set.pointers.size() == 0)
        throw std::invalid_argument("Session: empty model set");
}

SessionResult Session::complete_frame(
    const core::FramePlan& plan, const std::vector<std::optional<int>>& proposals) {
    const core::FrameResult<int> frame = system_.complete_frame(plan, proposals);
    SessionResult result;
    result.kind = frame.vote.kind;
    result.label = frame.vote.value.value_or(-1);
    result.agreeing = frame.vote.agreeing;
    result.functional_modules = frame.functional_modules;
    return result;
}

int Session::primary_version(const core::FramePlan& plan) {
    for (std::size_t m = 0; m < plan.states.size(); ++m)
        if (core::is_functional(plan.states[m])) return static_cast<int>(m);
    return -1;
}

}  // namespace mvreju::serve
