#pragma once

// Sequential model container, softmax-cross-entropy training loop, accuracy
// and error-set evaluation, and parameter (de)serialization.

#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mvreju/ml/layers.hpp"
#include "mvreju/ml/tensor.hpp"
#include "mvreju/num/backend.hpp"

namespace mvreju::ml {

/// A labelled dataset of (C,H,W) images.
struct Dataset {
    std::vector<Tensor> images;
    std::vector<int> labels;
    int num_classes = 0;

    [[nodiscard]] std::size_t size() const noexcept { return images.size(); }
};

/// Result of evaluating a classifier on a dataset.
struct Evaluation {
    double accuracy = 0.0;
    /// Indices of misclassified samples, sorted ascending — the error set
    /// E_i of Section VI-A, feeding the alpha fit (Eq. 8).
    std::vector<std::size_t> error_set;
};

/// Stochastic-gradient training configuration.
struct TrainConfig {
    int epochs = 10;
    std::size_t batch_size = 16;
    float learning_rate = 0.01f;
    float lr_decay = 1.0f;  ///< multiplicative decay applied after each epoch
    float momentum = 0.9f;
    std::uint64_t shuffle_seed = 38;  // the paper pins its seeds; so do we
};

/// Feed-forward stack of layers with shared ownership semantics disabled:
/// a model owns its layers exclusively and supports deep copies via clone().
///
/// Thread-safety contract: every const member — logits(), predict(),
/// probabilities(), logits_batch(), predict_batch(), evaluate() — is
/// genuinely read-only and safe to call concurrently from any number of
/// threads on one shared model. Inference state lives in an explicit
/// Workspace (logits_batch takes it as a parameter; the per-sample entry
/// points use a thread_local one), never in the model or its layers.
/// Mutators — add(), train(), load_parameters(), writes through layer() or
/// parameter_spans() (e.g. fi:: fault injection) — must not overlap with any
/// other access; injecting into a model while another thread runs inference
/// on it is a data race.
class Sequential {
public:
    Sequential() = default;
    explicit Sequential(std::string name) : name_(std::move(name)) {}

    Sequential(const Sequential& other);
    Sequential& operator=(const Sequential& other);
    Sequential(Sequential&&) noexcept = default;
    Sequential& operator=(Sequential&&) noexcept = default;

    /// Append a layer (builder style).
    Sequential& add(std::unique_ptr<Layer> layer);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
    [[nodiscard]] Layer& layer(std::size_t index) { return *layers_.at(index); }

    /// Bind the kernel backend every inference entry point dispatches
    /// through (load-time binding: the hot loop never branches on backend
    /// choice). nullptr restores the scalar oracle. Copies inherit the
    /// binding. Like the other mutators, must not overlap with inference.
    void bind_backend(const num::KernelBackend* backend) noexcept {
        backend_ = backend;
    }

    /// The bound backend (scalar when none was bound).
    [[nodiscard]] const num::KernelBackend& backend() const noexcept {
        return backend_ == nullptr ? num::scalar_backend() : *backend_;
    }

    /// Inference pass (no gradient caching).
    [[nodiscard]] Tensor logits(const Tensor& input) const;

    /// logits() through an explicit backend, overriding the bound one for
    /// this call only — one set of weights measured under several backends
    /// without cloning them.
    [[nodiscard]] Tensor logits(const Tensor& input,
                                const num::KernelBackend& kernels) const;

    /// Class prediction: argmax over logits.
    [[nodiscard]] int predict(const Tensor& input) const;

    /// predict() through an explicit backend (see logits() overload).
    [[nodiscard]] int predict(const Tensor& input,
                              const num::KernelBackend& kernels) const;

    /// Softmax probabilities over the logits.
    [[nodiscard]] std::vector<float> probabilities(const Tensor& input) const;

    /// Batched inference core: run a batch with leading sample dimension
    /// ((N, C, H, W) or (N, F)) through every layer's stateless infer()
    /// path. The result comes from `ws.take()` — recycle it with
    /// `ws.give()` when consumed. Bit-identical for every `num_threads`
    /// (0 = auto, 1 = serial; see util::parallel_for).
    [[nodiscard]] Tensor logits_batch(const Tensor& batch, Workspace& ws,
                                      std::size_t num_threads = 1) const;

    /// logits_batch() through an explicit backend, overriding the bound one
    /// for this call — how bench_ml and the backend equivalence suite run
    /// one model through every registered backend. Serving always runs the
    /// bound backend.
    [[nodiscard]] Tensor logits_batch(const Tensor& batch, Workspace& ws,
                                      std::size_t num_threads,
                                      const num::KernelBackend& kernels) const;

    /// Class predictions for a set of equally-shaped images, chunked through
    /// logits_batch(). Results are identical to calling predict() per image
    /// regardless of `num_threads` or chunking.
    [[nodiscard]] std::vector<int> predict_batch(std::span<const Tensor> images,
                                                 std::size_t num_threads = 0) const;

    /// Train with softmax cross entropy; returns the mean loss per epoch.
    std::vector<double> train(const Dataset& data, const TrainConfig& config);

    /// Accuracy and error set on a dataset, one batched pass over the
    /// images. The result is independent of `num_threads`.
    [[nodiscard]] Evaluation evaluate(const Dataset& data,
                                      std::size_t num_threads = 0) const;

    /// All parameter spans in layer order (composite layers contribute
    /// several). Mutable access: used by the fault injector.
    [[nodiscard]] std::vector<std::span<float>> parameter_spans();

    /// Total number of trainable parameters.
    [[nodiscard]] std::size_t parameter_count();

    /// Save / load raw parameters (architecture must match at load time).
    void save_parameters(const std::filesystem::path& path);
    void load_parameters(const std::filesystem::path& path);

private:
    std::string name_;
    std::vector<std::unique_ptr<Layer>> layers_;
    const num::KernelBackend* backend_ = nullptr;  ///< nullptr == scalar
};

/// Softmax cross-entropy loss value for logits vs a target class.
[[nodiscard]] double cross_entropy_loss(const Tensor& logits, int target);

/// Gradient of the softmax cross-entropy loss with respect to the logits.
[[nodiscard]] Tensor cross_entropy_grad(const Tensor& logits, int target);

/// --- Reference architectures (Section VI-A / VII-A stand-ins) ---
/// Each takes the input geometry and class count plus a seed controlling
/// initialisation, so that "diverse versions" differ in both architecture
/// and initial weights, as the paper's AlexNet/LeNet/ResNet50 trio does.

/// LeNet-style: two conv+pool stages and two dense layers.
[[nodiscard]] Sequential make_tiny_lenet(std::size_t channels, std::size_t side,
                                         int classes, std::uint64_t seed);

/// AlexNet-style: three conv stages with a wider head.
[[nodiscard]] Sequential make_mini_alexnet(std::size_t channels, std::size_t side,
                                           int classes, std::uint64_t seed);

/// ResNet-style: conv stem plus two identity residual blocks.
[[nodiscard]] Sequential make_micro_resnet(std::size_t channels, std::size_t side,
                                           int classes, std::uint64_t seed);

}  // namespace mvreju::ml
