#pragma once

// Layer probes: the traced runs time the public entry points of ml, num
// and core from the benchmark's own code, on the workload's own models,
// inputs and observed batch sizes, and record each call as a span.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "mvreju/ml/model.hpp"
#include "mvreju/num/backend.hpp"

namespace perfbench {

/// The models one context runs, and how.
struct MlContext {
    /// (metric suffix, model), e.g. ("tinylenet", &model).
    std::vector<std::pair<std::string, const mvreju::ml::Sequential*>> models;
    const mvreju::num::KernelBackend* backend = nullptr;
    std::vector<std::size_t> sample_shape;        ///< e.g. {3, 16, 16}
    std::vector<std::vector<float>> samples;      ///< the workload's inputs
    std::vector<std::size_t> logits_batches;      ///< batch sizes for logits_batch
    std::size_t layer_batch = 1;                  ///< observed batch for layer/GEMM rows
};

/// Keep a probe's result observable so the timed calls are not optimised out.
inline void keep(long value) {
    static volatile long sink = 0;
    sink = sink + value;
}

/// Median over `blocks` blocks of the mean wall time of one call, in ns;
/// each block is one span named `span` on `log`.
double median_call_ns(SpanLog& log, const std::string& span, std::size_t calls_per_block,
                      std::size_t blocks, const std::function<void()>& call);

/// ml.logits_batch_us.*, ml.layer_us.*, ml.workspace_allocations and the
/// num.sgemm_gflops.* / num.gemm_*_per_sample rows for one context.
void probe_ml(const MlContext& context, SpanLog& log, Report& report);

}  // namespace perfbench
