#pragma once

// Per-stream serving state over a shared model pool.
//
// The fleet-scale split: everything heavy (trained versions, their
// fault-injected compromised twins, the VersionPool behaviours that wrap
// them) is built once in a ModelSet and shared const across every stream;
// a Session is only the cheap per-stream state — a MultiVersionSystem with
// its own seeded health process, vote bookkeeping and frame counter. A
// thousand sessions are a thousand health processes over one set of weights.
//
// A Session exposes the split-phase frame API: begin_frame() yields the
// plan (which versions run, in which behaviour), serve::Pipeline routes one
// inference per running version through the cross-stream DynamicBatcher,
// and complete_frame() votes over the labels that come back.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mvreju/core/health.hpp"
#include "mvreju/core/system.hpp"
#include "mvreju/core/voter.hpp"
#include "mvreju/ml/model.hpp"
#include "mvreju/ml/tensor.hpp"

namespace mvreju::serve {

/// Pointer table into the shared models, indexed by version: the batcher
/// needs the raw Sequential for a (version, health state) pair. Each
/// version runs on its own model's bound kernel backend.
struct StreamModelPool {
    std::vector<const ml::Sequential*> healthy;
    std::vector<const ml::Sequential*> compromised;

    [[nodiscard]] std::size_t size() const noexcept { return healthy.size(); }

    /// The model a version runs in a *functional* state.
    [[nodiscard]] const ml::Sequential* model_for(std::size_t m,
                                                  core::ModuleState s) const {
        return s == core::ModuleState::healthy ? healthy.at(m) : compromised.at(m);
    }

    /// The kernel backend version `m` dispatches through (both health
    /// states share it).
    [[nodiscard]] const num::KernelBackend& backend_for(std::size_t m) const {
        return healthy.at(m)->backend();
    }
};

/// The shared, immutable side of the serving layer: owns the version models
/// and their compromised twins, and derives both views every stream needs —
/// the behaviour pool for voting/reference inference and the pointer table
/// for batched inference. Build once, share by const reference.
struct ModelSet {
    using Pool = core::VersionPool<ml::Tensor, int>;

    std::vector<std::unique_ptr<ml::Sequential>> storage;
    StreamModelPool pointers;
    std::shared_ptr<const Pool> behaviours;
    /// Per-sample input shape, e.g. {3, 16, 16}.
    std::vector<std::size_t> input_shape;
    /// Name of the kernel backend the float32 versions are bound to.
    std::string backend_name = "scalar";

    /// Flat element count of one input sample (C*H*W).
    [[nodiscard]] std::size_t sample_size() const {
        return ml::Tensor::count(input_shape);
    }
};

struct ModelSetConfig {
    std::size_t channels = 3;
    std::size_t side = 16;
    int classes = 8;
    std::uint64_t seed = 38;  ///< init seeds: seed, seed+1, seed+2
    /// Kernel backend the float32 versions bind at load time; resolved via
    /// num::select_backend ("" → MVREJU_BACKEND env → scalar, with CPUID
    /// fallback). Unknown names throw.
    std::string backend;
};

/// The paper's diverse trio (LeNet/AlexNet/ResNet stand-ins) with one
/// random-weight-injected compromised twin each. Deterministic under the
/// config seed; untrained — serving correctness is about consistency of the
/// pipeline, not accuracy.
[[nodiscard]] ModelSet make_model_set(const ModelSetConfig& config = {});

/// Outcome of one served frame, the session-level mirror of a ResponseFrame.
struct SessionResult {
    core::VoteKind kind = core::VoteKind::no_output;
    int label = -1;  ///< valid iff kind == decided
    int agreeing = 0;
    int functional_modules = 0;
};

class Session {
public:
    struct Options {
        core::HealthEngineConfig health;  ///< seed is the *base*; +stream_id
        core::VotingScheme scheme = core::VotingScheme::majority;
    };

    /// `set` must outlive the session (the Server/fleet owns it).
    Session(std::uint64_t stream_id, const ModelSet& set, const Options& options);

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

    /// Phase 1 (delegates to the core system): health snapshot + plan.
    [[nodiscard]] core::FramePlan begin_frame(double time) {
        return system_.begin_frame(time);
    }

    /// Phase 2: vote over one optional label per version.
    [[nodiscard]] SessionResult complete_frame(
        const core::FramePlan& plan, std::vector<std::optional<int>> proposals);

    /// The model version `m` runs this frame given its planned state; null
    /// when the version is not functional.
    [[nodiscard]] const ml::Sequential* model_for(std::size_t m,
                                                  core::ModuleState s) const {
        return core::is_functional(s) ? models_->model_for(m, s) : nullptr;
    }

    /// Index of the primary version for the degraded (load-shedding) path:
    /// the lowest-indexed functional version, or -1 when none.
    [[nodiscard]] static int primary_version(const core::FramePlan& plan);

    [[nodiscard]] const core::HealthEngine& health() const noexcept {
        return system_.health();
    }

private:
    std::uint64_t id_;
    const StreamModelPool* models_;
    core::MultiVersionSystem<ml::Tensor, int> system_;
};

}  // namespace mvreju::serve
