#include "mvreju/ml/model.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <system_error>

#include <unistd.h>

#include "mvreju/obs/metrics.hpp"
#include "mvreju/util/parallel.hpp"

namespace mvreju::ml {

namespace {

/// Per-thread workspace behind the per-sample const entry points (logits,
/// predict, probabilities, predict_batch). Keeping it thread_local makes
/// those methods genuinely const and thread-safe on a shared model while
/// still amortising allocations across calls.
Workspace& local_workspace() {
    thread_local Workspace ws;
    return ws;
}

/// predict_batch stacks images into batches of at most this many samples —
/// large enough to feed the GEMM kernels, small enough to bound workspace
/// memory (the im2col column matrix scales with the chunk).
constexpr std::size_t kPredictChunk = 256;

}  // namespace

Sequential::Sequential(const Sequential& other)
    : name_(other.name_), backend_(other.backend_) {
    layers_.reserve(other.layers_.size());
    for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Sequential& Sequential::operator=(const Sequential& other) {
    if (this == &other) return *this;
    Sequential copy(other);
    *this = std::move(copy);
    return *this;
}

Sequential& Sequential::add(std::unique_ptr<Layer> layer) {
    if (!layer) throw std::invalid_argument("Sequential::add: null layer");
    layers_.push_back(std::move(layer));
    return *this;
}

Tensor Sequential::logits(const Tensor& input) const {
    return logits(input, backend());
}

Tensor Sequential::logits(const Tensor& input,
                          const num::KernelBackend& kernels) const {
    Workspace& ws = local_workspace();
    std::vector<std::size_t> batch_shape;
    batch_shape.reserve(input.rank() + 1);
    batch_shape.push_back(1);
    for (std::size_t d : input.shape()) batch_shape.push_back(d);
    Tensor batch = ws.take(std::move(batch_shape));
    std::memcpy(batch.data().data(), input.data().data(),
                input.size() * sizeof(float));
    Tensor out = logits_batch(batch, ws, /*num_threads=*/1, kernels);
    ws.give(std::move(batch));
    Tensor result(
        std::vector<std::size_t>(out.shape().begin() + 1, out.shape().end()),
        std::vector<float>(out.data().begin(), out.data().end()));
    ws.give(std::move(out));
    return result;
}

Tensor Sequential::logits_batch(const Tensor& batch, Workspace& ws,
                                std::size_t num_threads) const {
    return logits_batch(batch, ws, num_threads, backend());
}

Tensor Sequential::logits_batch(const Tensor& batch, Workspace& ws,
                                std::size_t num_threads,
                                const num::KernelBackend& kernels) const {
    if (layers_.empty()) throw std::logic_error("Sequential: empty model");
    ws.bind_kernels(&kernels);
    if (batch.rank() < 2 || batch.shape()[0] == 0)
        throw std::invalid_argument(
            "Sequential::logits_batch: expected non-empty batch with a leading "
            "sample dimension, got " +
            shape_string(batch.shape()));
    const std::size_t nb = batch.shape()[0];

    Tensor x = layers_.front()->infer(batch, ws, num_threads);
    for (std::size_t i = 1; i < layers_.size(); ++i) {
        Tensor y = layers_[i]->infer(x, ws, num_threads);
        ws.give(std::move(x));
        x = std::move(y);
    }

    static obs::Counter& images = obs::metrics().counter("ml.infer.images");
    static obs::Histogram& batch_sizes = obs::metrics().histogram(
        "ml.infer.batch_size", obs::HistogramBounds::exponential(1.0, 2.0, 10));
    static obs::Gauge& workspace_bytes =
        obs::metrics().gauge("ml.infer.workspace_bytes");
    static obs::Gauge& backend_gauge = obs::metrics().gauge("ml.backend.name");
    images.add(nb);
    batch_sizes.record(static_cast<double>(nb));
    workspace_bytes.set(static_cast<double>(ws.bytes()));
    // Which backend served: the gauge holds the registry index of the most
    // recent dispatch, the per-backend counters tally dispatches by name.
    backend_gauge.set(static_cast<double>(num::backend_index(kernels)));
    obs::metrics()
        .counter("ml.backend.dispatches." + std::string(kernels.name()))
        .add(1);
    return x;
}

std::vector<int> Sequential::predict_batch(std::span<const Tensor> images,
                                           std::size_t num_threads) const {
    std::vector<int> predictions(images.size());
    if (images.empty()) return predictions;

    const std::vector<std::size_t>& image_shape = images[0].shape();
    const std::size_t sample_size = images[0].size();

    // Parallelism lives at chunk granularity: each chunk runs the whole
    // layer stack serially in its own thread's workspace, so one
    // parallel_for covers the call (per-layer fan-out would respawn threads
    // per layer per chunk). Chunking and threading never change the result:
    // every sample's logits are bit-identical however they are batched.
    const std::size_t workers = num_threads == 0 ? util::hardware_threads() : num_threads;
    std::size_t chunk = kPredictChunk;
    if (workers > 1 && images.size() > chunk)
        chunk = std::clamp(images.size() / (workers * 4), std::size_t{16},
                           kPredictChunk);
    const std::size_t num_chunks = (images.size() + chunk - 1) / chunk;

    auto process_chunk = [&](std::size_t c) {
        Workspace& ws = local_workspace();
        const std::size_t pos = c * chunk;
        const std::size_t nb = std::min(chunk, images.size() - pos);
        std::vector<std::size_t> batch_shape;
        batch_shape.reserve(image_shape.size() + 1);
        batch_shape.push_back(nb);
        for (std::size_t d : image_shape) batch_shape.push_back(d);
        Tensor batch = ws.take(std::move(batch_shape));
        float* stacked = batch.data().data();
        for (std::size_t i = 0; i < nb; ++i) {
            const Tensor& image = images[pos + i];
            if (image.shape() != image_shape)
                throw std::invalid_argument(
                    "predict_batch: image " + std::to_string(pos + i) +
                    " has shape " + shape_string(image.shape()) + ", expected " +
                    shape_string(image_shape));
            std::memcpy(stacked + i * sample_size, image.data().data(),
                        sample_size * sizeof(float));
        }
        Tensor out = logits_batch(batch, ws, /*num_threads=*/1);
        const std::size_t classes = out.size() / nb;
        const float* rows = out.data().data();
        for (std::size_t i = 0; i < nb; ++i) {
            const float* row = rows + i * classes;
            std::size_t best = 0;
            for (std::size_t j = 1; j < classes; ++j)
                if (row[j] > row[best]) best = j;
            predictions[pos + i] = static_cast<int>(best);
        }
        ws.give(std::move(batch));
        ws.give(std::move(out));
    };

    if (workers <= 1 || num_chunks == 1) {
        for (std::size_t c = 0; c < num_chunks; ++c) process_chunk(c);
    } else {
        util::parallel_for(num_chunks, process_chunk, workers);
    }
    return predictions;
}

int Sequential::predict(const Tensor& input) const {
    return static_cast<int>(argmax(logits(input)));
}

int Sequential::predict(const Tensor& input,
                        const num::KernelBackend& kernels) const {
    return static_cast<int>(argmax(logits(input, kernels)));
}

std::vector<float> Sequential::probabilities(const Tensor& input) const {
    const Tensor raw = logits(input);
    std::vector<float> probs(raw.size());
    float max_logit = raw[0];
    for (std::size_t i = 1; i < raw.size(); ++i) max_logit = std::max(max_logit, raw[i]);
    float total = 0.0f;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        probs[i] = std::exp(raw[i] - max_logit);
        total += probs[i];
    }
    for (float& p : probs) p /= total;
    return probs;
}

double cross_entropy_loss(const Tensor& logits, int target) {
    if (target < 0 || static_cast<std::size_t>(target) >= logits.size())
        throw std::invalid_argument("cross_entropy_loss: target out of range");
    float max_logit = logits[0];
    for (std::size_t i = 1; i < logits.size(); ++i)
        max_logit = std::max(max_logit, logits[i]);
    double log_sum = 0.0;
    for (std::size_t i = 0; i < logits.size(); ++i)
        log_sum += std::exp(static_cast<double>(logits[i] - max_logit));
    return std::log(log_sum) - (logits[static_cast<std::size_t>(target)] - max_logit);
}

Tensor cross_entropy_grad(const Tensor& logits, int target) {
    if (target < 0 || static_cast<std::size_t>(target) >= logits.size())
        throw std::invalid_argument("cross_entropy_grad: target out of range");
    float max_logit = logits[0];
    for (std::size_t i = 1; i < logits.size(); ++i)
        max_logit = std::max(max_logit, logits[i]);
    Tensor grad({logits.size()});
    float total = 0.0f;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        grad[i] = std::exp(logits[i] - max_logit);
        total += grad[i];
    }
    for (std::size_t i = 0; i < grad.size(); ++i) grad[i] /= total;
    grad[static_cast<std::size_t>(target)] -= 1.0f;
    return grad;
}

std::vector<double> Sequential::train(const Dataset& data, const TrainConfig& config) {
    if (data.size() == 0) throw std::invalid_argument("train: empty dataset");
    if (data.images.size() != data.labels.size())
        throw std::invalid_argument("train: image/label count mismatch");
    if (config.batch_size == 0) throw std::invalid_argument("train: zero batch size");

    util::Rng rng(config.shuffle_seed);
    std::vector<std::size_t> order(data.size());
    std::iota(order.begin(), order.end(), 0);

    std::vector<double> epoch_losses;
    epoch_losses.reserve(static_cast<std::size_t>(config.epochs));

    float epoch_lr = config.learning_rate;
    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        // Fisher-Yates with our deterministic RNG.
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.uniform_int(i)]);

        double loss_acc = 0.0;
        std::size_t in_batch = 0;
        for (auto& layer : layers_) layer->zero_gradients();

        for (std::size_t idx : order) {
            Tensor x = data.images[idx];
            for (auto& layer : layers_) x = layer->forward(x, /*training=*/true);
            loss_acc += cross_entropy_loss(x, data.labels[idx]);
            Tensor grad = cross_entropy_grad(x, data.labels[idx]);
            for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
                grad = (*it)->backward(grad);

            if (++in_batch == config.batch_size) {
                const float lr = epoch_lr / static_cast<float>(in_batch);
                for (auto& layer : layers_) {
                    layer->apply_gradients(lr, config.momentum);
                    layer->zero_gradients();
                }
                in_batch = 0;
            }
        }
        if (in_batch > 0) {
            const float lr = epoch_lr / static_cast<float>(in_batch);
            for (auto& layer : layers_) {
                layer->apply_gradients(lr, config.momentum);
                layer->zero_gradients();
            }
        }
        epoch_losses.push_back(loss_acc / static_cast<double>(data.size()));
        epoch_lr *= config.lr_decay;
    }
    return epoch_losses;
}

Evaluation Sequential::evaluate(const Dataset& data, std::size_t num_threads) const {
    if (data.size() == 0) throw std::invalid_argument("evaluate: empty dataset");
    if (data.images.size() != data.labels.size())
        throw std::invalid_argument("evaluate: image/label count mismatch");
    Evaluation eval;
    const std::vector<int> predicted = predict_batch(data.images, num_threads);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
        if (predicted[i] == data.labels[i]) {
            ++correct;
        } else {
            eval.error_set.push_back(i);
        }
    }
    eval.accuracy = static_cast<double>(correct) / static_cast<double>(data.size());
    return eval;
}

std::vector<std::span<float>> Sequential::parameter_spans() {
    std::vector<std::span<float>> spans;
    for (auto& layer : layers_) layer->collect_parameters(spans);
    return spans;
}

std::size_t Sequential::parameter_count() {
    std::size_t total = 0;
    for (const auto& span : parameter_spans()) total += span.size();
    return total;
}

void Sequential::save_parameters(const std::filesystem::path& path) {
    // Write a temp file named per writer (pid + per-process sequence) next
    // to the target, then rename it over the target: processes sharing a
    // parameter cache only ever open a complete file.
    static std::atomic<std::uint64_t> writes{0};
    std::filesystem::path tmp = path;
    tmp += ".tmp." + std::to_string(::getpid()) + "." + std::to_string(writes++);
    std::ofstream out(tmp, std::ios::binary);
    if (!out) throw std::runtime_error("save_parameters: cannot open " + tmp.string());
    const auto spans = parameter_spans();
    const std::uint64_t span_count = spans.size();
    out.write(reinterpret_cast<const char*>(&span_count), sizeof span_count);
    for (const auto& span : spans) {
        const std::uint64_t n = span.size();
        out.write(reinterpret_cast<const char*>(&n), sizeof n);
        out.write(reinterpret_cast<const char*>(span.data()),
                  static_cast<std::streamsize>(n * sizeof(float)));
    }
    out.close();
    std::error_code error;
    if (out) std::filesystem::rename(tmp, path, error);
    if (!out || error) {
        std::filesystem::remove(tmp, error);
        throw std::runtime_error("save_parameters: cannot write " + path.string());
    }
}

void Sequential::load_parameters(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("load_parameters: cannot open " + path.string());
    auto spans = parameter_spans();
    std::uint64_t span_count = 0;
    in.read(reinterpret_cast<char*>(&span_count), sizeof span_count);
    if (span_count != spans.size())
        throw std::runtime_error("load_parameters: architecture mismatch (span count)");
    for (auto& span : spans) {
        std::uint64_t n = 0;
        in.read(reinterpret_cast<char*>(&n), sizeof n);
        if (n != span.size())
            throw std::runtime_error("load_parameters: architecture mismatch (span size)");
        in.read(reinterpret_cast<char*>(span.data()),
                static_cast<std::streamsize>(n * sizeof(float)));
    }
    if (!in) throw std::runtime_error("load_parameters: truncated file");
}

namespace {

/// Spatial side length after `pools` halvings.
std::size_t after_pools(std::size_t side, int pools) {
    for (int i = 0; i < pools; ++i) {
        if (side % 2 != 0) throw std::invalid_argument("architecture: side not divisible");
        side /= 2;
    }
    return side;
}

}  // namespace

Sequential make_tiny_lenet(std::size_t channels, std::size_t side, int classes,
                           std::uint64_t seed) {
    util::Rng rng(seed);
    const std::size_t s2 = after_pools(side, 2);
    Sequential model("TinyLeNet");
    model.add(std::make_unique<Conv2D>(channels, 6, 3, 1, rng))
        .add(std::make_unique<ReLU>())
        .add(std::make_unique<MaxPool2D>())
        .add(std::make_unique<Conv2D>(6, 12, 3, 1, rng))
        .add(std::make_unique<ReLU>())
        .add(std::make_unique<MaxPool2D>())
        .add(std::make_unique<Flatten>())
        .add(std::make_unique<Dense>(12 * s2 * s2, 48, rng))
        .add(std::make_unique<ReLU>())
        .add(std::make_unique<Dense>(48, static_cast<std::size_t>(classes), rng));
    return model;
}

Sequential make_mini_alexnet(std::size_t channels, std::size_t side, int classes,
                             std::uint64_t seed) {
    util::Rng rng(seed);
    const std::size_t s2 = after_pools(side, 2);
    Sequential model("MiniAlexNet");
    model.add(std::make_unique<Conv2D>(channels, 10, 3, 1, rng))
        .add(std::make_unique<ReLU>())
        .add(std::make_unique<MaxPool2D>())
        .add(std::make_unique<Conv2D>(10, 16, 3, 1, rng))
        .add(std::make_unique<ReLU>())
        .add(std::make_unique<Conv2D>(16, 16, 3, 1, rng))
        .add(std::make_unique<ReLU>())
        .add(std::make_unique<MaxPool2D>())
        .add(std::make_unique<Flatten>())
        .add(std::make_unique<Dense>(16 * s2 * s2, 64, rng))
        .add(std::make_unique<ReLU>())
        .add(std::make_unique<Dense>(64, static_cast<std::size_t>(classes), rng));
    return model;
}

Sequential make_micro_resnet(std::size_t channels, std::size_t side, int classes,
                             std::uint64_t seed) {
    util::Rng rng(seed);
    const std::size_t s2 = after_pools(side, 2);
    Sequential model("MicroResNet");
    model.add(std::make_unique<Conv2D>(channels, 12, 3, 1, rng))
        .add(std::make_unique<ReLU>())
        .add(std::make_unique<MaxPool2D>())
        .add(std::make_unique<ResidualBlock>(12, 3, rng))
        .add(std::make_unique<MaxPool2D>())
        .add(std::make_unique<ResidualBlock>(12, 3, rng))
        .add(std::make_unique<Flatten>())
        .add(std::make_unique<Dense>(12 * s2 * s2, 48, rng))
        .add(std::make_unique<ReLU>())
        .add(std::make_unique<Dense>(48, static_cast<std::size_t>(classes), rng));
    return model;
}

}  // namespace mvreju::ml
