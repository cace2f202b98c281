#pragma once

// The four workloads. Each runs its set-up, a warm-up outside the timed
// window, the timed window, and its output checks, and fills the report
// with the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run).

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;  ///< where the traced run writes its spans ("" = nowhere)
};

/// serve_camera (open_loop) and serve_saturate (closed loop).
void run_serve(const RunArgs& args, bool open_loop, Report& report, SpanLog& spans);
void run_av(const RunArgs& args, Report& report, SpanLog& spans);
void run_dspn(const RunArgs& args, Report& report, SpanLog& spans);

}  // namespace perfbench
