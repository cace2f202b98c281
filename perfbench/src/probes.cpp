#include "probes.hpp"

#include <algorithm>
#include <cstring>

#include "mvreju/ml/workspace.hpp"
#include "mvreju/util/rng.hpp"

namespace perfbench {

namespace ml = mvreju::ml;
namespace num = mvreju::num;

double median_call_ns(SpanLog& log, const std::string& span, std::size_t calls_per_block,
                      std::size_t blocks, const std::function<void()>& call) {
    std::vector<double> per_call;
    for (std::size_t b = 0; b < blocks; ++b) {
        const Scoped s(log, span);
        const double t0 = now_us();
        for (std::size_t i = 0; i < calls_per_block; ++i) call();
        per_call.push_back((now_us() - t0) * 1e3 / static_cast<double>(calls_per_block));
    }
    return median(per_call);
}

namespace {

struct GemmShape {
    std::size_t m, n, k;
    bool nt;  ///< sgemm_nt (B given transposed)
};

/// Pass-through backend that records the GEMM shapes a forward pass issues.
class RecordingBackend final : public num::KernelBackend {
public:
    explicit RecordingBackend(const num::KernelBackend& inner) : inner_(inner) {}
    [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }
    [[nodiscard]] bool bit_exact() const noexcept override { return inner_.bit_exact(); }
    [[nodiscard]] bool supported() const noexcept override { return inner_.supported(); }
    void sgemm(std::size_t m, std::size_t n, std::size_t k, const float* a, const float* b,
               float* c, std::size_t threads) const override {
        shapes.push_back({m, n, k, false});
        inner_.sgemm(m, n, k, a, b, c, threads);
    }
    void sgemm_nt(std::size_t m, std::size_t n, std::size_t k, const float* a,
                  const float* b, float* c, std::size_t threads) const override {
        shapes.push_back({m, n, k, true});
        inner_.sgemm_nt(m, n, k, a, b, c, threads);
    }
    void im2col(const float* image, std::size_t channels, std::size_t height,
                std::size_t width, std::size_t kernel, std::size_t pad,
                float* col) const override {
        inner_.im2col(image, channels, height, width, kernel, pad, col);
    }
    mutable std::vector<GemmShape> shapes;

private:
    const num::KernelBackend& inner_;
};

/// A (batch, sample_shape...) tensor filled from the context's inputs.
ml::Tensor make_batch(const MlContext& ctx, std::size_t batch) {
    std::vector<std::size_t> shape{batch};
    shape.insert(shape.end(), ctx.sample_shape.begin(), ctx.sample_shape.end());
    ml::Tensor t(shape);
    const std::size_t sample = ml::Tensor::count(ctx.sample_shape);
    for (std::size_t i = 0; i < batch; ++i) {
        const std::vector<float>& src = ctx.samples[i % ctx.samples.size()];
        std::memcpy(t.data().data() + i * sample, src.data(), sample * sizeof(float));
    }
    return t;
}

}  // namespace

void probe_ml(const MlContext& ctx, SpanLog& log, Report& report) {
    const num::KernelBackend& backend = *ctx.backend;

    // Whole-model batched inference at each batch size.
    for (const auto& [suffix, model] : ctx.models) {
        for (const std::size_t b : ctx.logits_batches) {
            const ml::Tensor batch = make_batch(ctx, b);
            ml::Workspace ws;
            ws.give(model->logits_batch(batch, ws, 1, backend));  // warm the pool
            const std::size_t calls = std::max<std::size_t>(1, 256 / b);
            const double ns = median_call_ns(log, "ml.logits_batch", calls, 15, [&] {
                ws.give(model->logits_batch(batch, ws, 1, backend));
            });
            const std::string name = "ml.logits_batch_us." + suffix + ".b" + std::to_string(b);
            report.set(name, ns * 1e-3);
            report.note("  " + name + " = " + fixed(ns * 1e-3, 2) + " us on " +
                        std::string(backend.name()));
        }
    }

    // Per-layer self time through Layer::infer, with a workspace bound to
    // the backend, at the batch size the workload actually formed. Each
    // forward pass is a span whose children are the layer spans.
    const std::size_t b = std::max<std::size_t>(1, ctx.layer_batch);
    const ml::Tensor batch = make_batch(ctx, b);
    std::size_t allocations = 0;
    constexpr std::size_t kForwards = 40;
    for (const auto& [suffix, model] : ctx.models) {
        ml::Sequential copy(*model);  // Sequential::layer() is a non-const accessor
        ml::Workspace ws;
        ws.bind_kernels(&backend);
        auto forward = [&](bool traced) {
            const int parent = traced ? log.begin("ml.forward." + suffix) : -1;
            const ml::Tensor* in = &batch;
            ml::Tensor x;
            for (std::size_t i = 0; i < copy.layer_count(); ++i) {
                const ml::Layer& layer = copy.layer(i);
                const int id = traced ? log.begin("ml.layer." + layer.kind(), parent) : -1;
                ml::Tensor y = layer.infer(*in, ws, 1);
                if (traced) log.end(id);
                if (i > 0) ws.give(std::move(x));
                x = std::move(y);
                in = &x;
            }
            ws.give(std::move(x));
            if (traced) log.end(parent);
        };
        forward(false);  // first pass grows the pool; not steady state
        forward(false);
        const std::size_t before = ws.allocation_count();
        for (std::size_t r = 0; r < kForwards; ++r) forward(true);
        allocations += ws.allocation_count() - before;
    }
    const auto stats = log.stats();
    const double per = 1.0 / static_cast<double>(kForwards * b);
    std::string line = "  ml.layer_us (self, per sample, summed over versions, batch " +
                       std::to_string(b) + "):";
    for (const char* kind : {"conv2d", "dense", "maxpool", "relu", "flatten", "residual"}) {
        const auto it = stats.find(std::string("ml.layer.") + kind);
        const double us = it == stats.end() ? 0.0 : it->second.self_us * per;
        report.set(std::string("ml.layer_us.") + kind, us);
        line += std::string(" ") + kind + "=" + fixed(us, 3);
    }
    report.note(line);
    report.set("ml.workspace_allocations", static_cast<double>(allocations));
    report.note("  ml.workspace_allocations (steady-state growth) = " +
                std::to_string(allocations));

    // GEMM shapes the models issue at that batch, and both backends' rate
    // on exactly those shapes. FLOPs and bytes are computed from the
    // shapes (2mnk; A and B read, C read and written), not measured.
    std::vector<GemmShape> shapes;
    for (const auto& [suffix, model] : ctx.models) {
        const RecordingBackend recorder(backend);
        ml::Workspace ws;
        ws.give(model->logits_batch(batch, ws, 1, recorder));
        shapes.insert(shapes.end(), recorder.shapes.begin(), recorder.shapes.end());
    }
    double flops = 0.0;
    double bytes = 0.0;
    for (const GemmShape& s : shapes) {
        flops += 2.0 * static_cast<double>(s.m * s.n * s.k);
        bytes += 4.0 * static_cast<double>(s.m * s.k + s.k * s.n + 2 * s.m * s.n);
    }
    report.set("num.gemm_mflop_per_sample", flops / static_cast<double>(b) * 1e-6);
    report.set("num.gemm_mbyte_per_sample", bytes / static_cast<double>(b) * 1e-6);
    report.note("  num.gemm (computed from " + std::to_string(shapes.size()) +
                " shapes): " + fixed(flops / static_cast<double>(b) * 1e-6, 4) +
                " MFLOP and " + fixed(bytes / static_cast<double>(b) * 1e-6, 4) +
                " MB per sample");
    mvreju::util::Rng rng(7);
    std::vector<std::vector<float>> a(shapes.size()), bm(shapes.size()), c(shapes.size());
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const GemmShape& s = shapes[i];
        a[i].resize(s.m * s.k);
        bm[i].resize(s.k * s.n);
        c[i].assign(s.m * s.n, 0.0f);
        for (float& v : a[i]) v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (float& v : bm[i]) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    for (const char* name : {"scalar", "avx2"}) {
        const num::KernelBackend* kb = num::find_backend(name);
        if (kb == nullptr || !kb->supported() || shapes.empty()) {
            report.note(std::string("  num.sgemm_gflops.") + name + " not measured: backend " +
                        "unavailable on this host");
            continue;
        }
        const double ns = median_call_ns(log, std::string("num.sgemm.") + name, 4, 15, [&] {
            for (std::size_t i = 0; i < shapes.size(); ++i) {
                const GemmShape& s = shapes[i];
                if (s.nt)
                    kb->sgemm_nt(s.m, s.n, s.k, a[i].data(), bm[i].data(), c[i].data(), 1);
                else
                    kb->sgemm(s.m, s.n, s.k, a[i].data(), bm[i].data(), c[i].data(), 1);
            }
        });
        report.set(std::string("num.sgemm_gflops.") + name, flops / ns);
        report.note(std::string("  num.sgemm_gflops.") + name + " = " + fixed(flops / ns, 2) +
                    " GFLOP/s (computed FLOPs / measured time)");
    }
}

}  // namespace perfbench
