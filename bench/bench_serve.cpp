// Machine-readable serving-layer benchmarks over the deterministic
// synthetic fleet (src/serve/synthetic.hpp): thousands of concurrent
// perception streams driven on a virtual clock against the real inference
// engine, batched across streams by the DynamicBatcher. Emits
// BENCH_serve.json stamped with run metadata (git SHA, build type,
// compiler) and gated by bench/baselines/BENCH_serve.json in CI.
//
// Four claims are checked, not just timed:
//   * equivalence — cross-stream batching changes no frame's outcome: the
//     output hash over every (stream, frame) result equals the batch_max=1
//     reference, and two batched runs hash identically (determinism);
//   * saturation — 1000 concurrent streams are served to completion, and
//     batched serving is >= 3x the unbatched wall-clock throughput;
//   * overload — saturating virtual service times trip the SLO controller
//     into shedding (degraded single-version frames and/or drops);
//   * recovery — the same fleet at light load sheds nothing.
//
// Usage: bench_serve [--out PATH] [--metrics PATH] [--trace PATH]
//   --out      result table        (default BENCH_serve.json)
//   --metrics  metrics snapshot    (default BENCH_serve.metrics.json)
//   --trace    Chrome/Perfetto trace of the whole run (off unless given)

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "mvreju/obs/buildinfo.hpp"
#include "mvreju/obs/profiler.hpp"
#include "mvreju/obs/session.hpp"
#include "mvreju/serve/fleet_stats.hpp"
#include "mvreju/serve/session.hpp"
#include "mvreju/serve/synthetic.hpp"
#include "mvreju/util/args.hpp"
#include "mvreju/util/parallel.hpp"

namespace {

using namespace mvreju;

/// Shared nominal configuration: moderate load, shedding off so every
/// frame runs the full multi-version vote (the equivalence configuration).
serve::FleetOptions nominal() {
    serve::FleetOptions options;
    options.streams = 256;
    options.frame_rate_hz = 30.0;
    options.frames_per_stream = 8;
    options.seed = 17;
    options.batch_max = 64;
    options.batch_delay_us = 2000;
    options.infer_threads = 4;
    options.shedding = false;
    options.slo_budget_ms = 1e9;
    return options;
}

double best_wall_ms(const serve::ModelSet& set, const serve::FleetOptions& options,
                    int reps, serve::FleetResult* last = nullptr) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
        const serve::FleetResult result = serve::run_fleet(set, options);
        best = std::min(best, result.wall_ms);
        if (last) *last = result;
    }
    return best;
}

void emit_fleet(std::ostream& out, const serve::FleetResult& r) {
    out << "\"frames\": " << r.frames << ", \"decided\": " << r.decided
        << ", \"skipped\": " << r.skipped << ", \"no_output\": " << r.no_output
        << ", \"degraded\": " << r.degraded << ", \"dropped\": " << r.dropped
        << ", \"slo_breaches\": " << r.slo_breaches
        << ", \"batch_flushes\": " << r.batch_flushes
        << ", \"mean_batch\": " << r.mean_batch
        << ", \"p50_virtual_ms\": " << r.p50_virtual_ms
        << ", \"p99_virtual_ms\": " << r.p99_virtual_ms
        << ", \"shed_rate\": " << r.shed_rate;
}

}  // namespace

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    const std::string out_path = args.get("out", std::string("BENCH_serve.json"));
    obs::Session session(args, "BENCH_serve.metrics.json");

    // --backend selects the kernel backend for the whole fleet (scalar by
    // default); the emitted table carries it so baselines from different
    // backends are never compared against each other silently.
    serve::ModelSetConfig set_config;
    set_config.backend = args.backend();
    const serve::ModelSet set = serve::make_model_set(set_config);
    std::cout << "backend: " << set.backend_name << "\n";

    // --- Equivalence + determinism -------------------------------------
    const serve::FleetOptions eq = nominal();
    const serve::FleetResult batched = serve::run_fleet(set, eq);
    const serve::FleetResult batched_again = serve::run_fleet(set, eq);
    serve::FleetOptions eq_ref = eq;
    eq_ref.batch_max = 1;
    const serve::FleetResult unbatched = serve::run_fleet(set, eq_ref);
    const bool hash_match = batched.output_hash == unbatched.output_hash;
    const bool deterministic = batched.output_hash == batched_again.output_hash;
    std::cout << "equivalence: hash_match=" << (hash_match ? "yes" : "no")
              << " deterministic=" << (deterministic ? "yes" : "no")
              << " mean_batch=" << batched.mean_batch << "\n";

    // --- Saturation: 1000 concurrent streams, batched vs unbatched -----
    serve::FleetOptions sat = nominal();
    sat.streams = 1000;
    sat.frames_per_stream = 6;
    sat.seed = 23;
    serve::FleetResult sat_result;
    const double batched_ms = best_wall_ms(set, sat, 2, &sat_result);
    serve::FleetOptions sat_ref = sat;
    sat_ref.batch_max = 1;
    serve::FleetResult sat_unbatched;
    const double unbatched_ms = best_wall_ms(set, sat_ref, 2, &sat_unbatched);
    const bool sat_hash_match =
        sat_result.output_hash == sat_unbatched.output_hash;
    const double speedup = unbatched_ms / batched_ms;
    const double frames_per_s =
        1000.0 * static_cast<double>(sat_result.frames) / batched_ms;
    // The 3x throughput target comes from cross-stream batching unlocking
    // multi-core row parallelism that batch-size-1 flushes cannot use (the
    // conv engine's im2col+GEMM is per-sample, so a single sample cannot be
    // split across threads). On fewer than 4 cores the target is not
    // physically reachable; the bench then records the raw ratio and the
    // correctness gates still bind.
    const bool speedup_target_met =
        speedup >= 3.0 || util::hardware_threads() < 4;
    std::cout << "saturation: streams=" << sat.streams
              << " batched_ms=" << batched_ms << " unbatched_ms=" << unbatched_ms
              << " speedup=" << speedup << " frames_per_s=" << frames_per_s
              << " mean_batch=" << sat_result.mean_batch << "\n";

    // --- Overload: saturating virtual service cost must shed ------------
    serve::FleetOptions heavy;
    heavy.streams = 64;
    heavy.frame_rate_hz = 100.0;
    heavy.frames_per_stream = 30;
    heavy.seed = 9;
    heavy.batch_max = 8;
    heavy.batch_delay_us = 2000;
    heavy.infer_threads = 4;
    heavy.service_base_us = 4000.0;
    heavy.service_per_frame_us = 500.0;
    heavy.slo_budget_ms = 5.0;
    heavy.shedding = true;
    const serve::FleetResult overload = serve::run_fleet(set, heavy);
    std::cout << "overload: shed_rate=" << overload.shed_rate
              << " degraded=" << overload.degraded
              << " dropped=" << overload.dropped
              << " slo_breaches=" << overload.slo_breaches << "\n";

    // --- Recovery: the same fleet at light load sheds nothing -----------
    serve::FleetOptions light = heavy;
    light.frame_rate_hz = 5.0;
    light.service_base_us = 100.0;
    light.service_per_frame_us = 10.0;
    const serve::FleetResult recovery = serve::run_fleet(set, light);
    std::cout << "recovery: shed_rate=" << recovery.shed_rate
              << " slo_breaches=" << recovery.slo_breaches << "\n";

    // --- Telemetry: tracing + FleetStats must not perturb or cost --------
    // Same fleet with and without the telemetry out-param, interleaved
    // best-of-N so machine noise hits both sides equally. Three claims:
    // the output hash is identical (stamping never feeds back into the
    // control path), the rendered /fleet document is byte-identical across
    // reruns (virtual-time determinism), and the wall-clock overhead of
    // stamping + digest folding stays under the 2% CI gate.
    const serve::FleetOptions tel = nominal();
    // Render time: any virtual instant past the last completion keeps every
    // digest slot in-window; 8 frames at 30 Hz end well before 1 s.
    const std::uint64_t tel_render_us = 1'000'000;
    double plain_ms = std::numeric_limits<double>::infinity();
    double traced_ms = std::numeric_limits<double>::infinity();
    std::uint64_t plain_hash = 0;
    std::uint64_t traced_hash = 0;
    std::string fleet_json;
    bool fleet_json_deterministic = true;
    std::uint64_t fleet_frames = 0;
    for (int r = 0; r < 3; ++r) {
        const serve::FleetResult plain = serve::run_fleet(set, tel);
        plain_ms = std::min(plain_ms, plain.wall_ms);
        plain_hash = plain.output_hash;
        serve::FleetStats stats;
        const serve::FleetResult traced = serve::run_fleet(set, tel, &stats);
        traced_ms = std::min(traced_ms, traced.wall_ms);
        traced_hash = traced.output_hash;
        const std::string rendered =
            stats.to_json(tel_render_us, /*include_meta=*/false);
        if (!fleet_json.empty() && rendered != fleet_json)
            fleet_json_deterministic = false;
        fleet_json = rendered;
        fleet_frames = stats.frames();
    }
    const bool telemetry_hash_match = plain_hash == traced_hash;
    const double overhead_percent = 100.0 * (traced_ms - plain_ms) / plain_ms;
    std::cout << "telemetry: plain_ms=" << plain_ms
              << " traced_ms=" << traced_ms
              << " overhead_percent=" << overhead_percent
              << " hash_match=" << (telemetry_hash_match ? "yes" : "no")
              << " fleet_json_deterministic="
              << (fleet_json_deterministic ? "yes" : "no") << "\n";

    // --- Profiler: continuous sampling must not perturb or cost ----------
    // Interleaved plain/sampled pairs at the production ~100 Hz interval:
    // the outcome hash must be bit-identical with SIGPROF landing
    // mid-inference (EINTR hardening + signal-safety), and the wall-clock
    // overhead stays under the same 2% gate as telemetry. Overhead is the
    // best per-pair ratio rather than a ratio of independent minima:
    // adjacent runs share machine state, so pairing cancels bursty
    // background load that min-of-N over unpaired runs does not (a fast
    // plain outlier against a never-lucky sampled set reads as phantom
    // overhead). A second run at a fast interval checks attribution:
    // >= 90% of samples must carry a known stage tag (parse/infer/vote/tx),
    // i.e. the serving path is covered by MVREJU_PROFILE_STAGE scopes.
    // Under -DMVREJU_OBS=OFF (or with another profiler already running)
    // the stub start() refuses; `ran` then gates the overhead check and
    // `sampled_enough` the attribution check.
    const serve::FleetOptions prof_cfg = nominal();
    obs::Profiler profiler;  // default interval: the production rate
    double prof_plain_ms = std::numeric_limits<double>::infinity();
    double prof_on_ms = std::numeric_limits<double>::infinity();
    double prof_best_ratio = std::numeric_limits<double>::infinity();
    std::uint64_t prof_plain_hash = 0;
    std::uint64_t prof_on_hash = 0;
    bool profiler_ran = false;
    for (int r = 0; r < 5; ++r) {
        const serve::FleetResult plain = serve::run_fleet(set, prof_cfg);
        prof_plain_ms = std::min(prof_plain_ms, plain.wall_ms);
        prof_plain_hash = plain.output_hash;
        const bool on = profiler.start();
        profiler_ran = profiler_ran || on;
        const serve::FleetResult sampled = serve::run_fleet(set, prof_cfg);
        if (on) profiler.stop();
        prof_on_ms = std::min(prof_on_ms, sampled.wall_ms);
        prof_on_hash = sampled.output_hash;
        prof_best_ratio =
            std::min(prof_best_ratio, sampled.wall_ms / plain.wall_ms);
    }
    const bool profiler_hash_match = prof_plain_hash == prof_on_hash;
    const double profiler_overhead_percent = 100.0 * (prof_best_ratio - 1.0);

    // Attribution run: fast sampling, single-thread inference (run_chunk
    // inline keeps thread-spawn plumbing out of the untagged bucket), more
    // frames so even a short wall-clock run lands a usable sample count.
    obs::Profiler::Options fast_options;
    fast_options.interval_us = 250;
    obs::Profiler attribution(fast_options);
    serve::FleetOptions attr_cfg = nominal();
    attr_cfg.infer_threads = 1;
    attr_cfg.frames_per_stream = 16;
    const bool attr_on = attribution.start();
    (void)serve::run_fleet(set, attr_cfg);
    if (attr_on) attribution.stop();
    const std::uint64_t attr_samples = attribution.stats().samples;
    double tagged_fraction = 0.0;
    for (const obs::StageCpu& share : attribution.stage_cpu()) {
        if (share.stage == "parse" || share.stage == "infer" ||
            share.stage == "vote" || share.stage == "tx")
            tagged_fraction += share.fraction;
    }
    // Below ~100 samples one stray untagged hit swings the fraction by
    // whole points; the gate only binds when the estimate is stable.
    const bool sampled_enough = attr_on && attr_samples >= 100;
    std::cout << "profiler: ran=" << (profiler_ran ? "yes" : "no")
              << " plain_ms=" << prof_plain_ms << " sampled_ms=" << prof_on_ms
              << " overhead_percent=" << profiler_overhead_percent
              << " hash_match=" << (profiler_hash_match ? "yes" : "no")
              << " attr_samples=" << attr_samples
              << " tagged_fraction=" << tagged_fraction << "\n";

    // --- Sweep: streams x frame rate -> p99 / shed rate ------------------
    struct SweepRow {
        int streams;
        double rate_hz;
        serve::FleetResult result;
    };
    std::vector<SweepRow> sweep;
    for (const int streams : {32, 128, 512}) {
        for (const double rate_hz : {10.0, 30.0, 60.0}) {
            serve::FleetOptions options;
            options.streams = streams;
            options.frame_rate_hz = rate_hz;
            options.frames_per_stream = 6;
            options.seed = 31;
            options.batch_max = 64;
            options.batch_delay_us = 2000;
            options.infer_threads = 4;
            options.service_base_us = 200.0;
            options.service_per_frame_us = 50.0;
            options.slo_budget_ms = 20.0;
            options.shedding = true;
            sweep.push_back({streams, rate_hz, serve::run_fleet(set, options)});
            const serve::FleetResult& r = sweep.back().result;
            std::cout << "sweep streams=" << streams << " rate_hz=" << rate_hz
                      << " p99_ms=" << r.p99_virtual_ms
                      << " shed_rate=" << r.shed_rate
                      << " mean_batch=" << r.mean_batch << "\n";
        }
    }

    std::ofstream out(out_path);
    out << std::setprecision(17);
    out << "{\n";
    out << "  \"bench\": \"serve\",\n";
    out << "  \"meta\": " << obs::run_metadata_json() << ",\n";
    out << "  \"backend\": \"" << set.backend_name << "\",\n";
    out << "  \"hardware_threads\": " << util::hardware_threads() << ",\n";
    out << "  \"equivalence\": {\"streams\": " << eq.streams
        << ", \"hash_match_unbatched\": " << (hash_match ? "true" : "false")
        << ", \"determinism_hash_match\": " << (deterministic ? "true" : "false")
        << ", ";
    emit_fleet(out, batched);
    out << "},\n";
    out << "  \"saturation\": {\"streams\": " << sat.streams
        << ", \"hash_match_unbatched\": " << (sat_hash_match ? "true" : "false")
        << ", \"batched_wall_ms\": " << batched_ms
        << ", \"unbatched_wall_ms\": " << unbatched_ms
        << ", \"speedup_vs_unbatched\": " << speedup
        << ", \"speedup_target_met\": " << (speedup_target_met ? "true" : "false")
        << ", \"frames_per_s\": " << frames_per_s << ", ";
    emit_fleet(out, sat_result);
    out << "},\n";
    out << "  \"overload\": {";
    emit_fleet(out, overload);
    out << "},\n";
    out << "  \"recovery\": {";
    emit_fleet(out, recovery);
    out << "},\n";
    out << "  \"telemetry\": {\"hash_match_traced\": "
        << (telemetry_hash_match ? "true" : "false")
        << ", \"fleet_json_deterministic\": "
        << (fleet_json_deterministic ? "true" : "false")
        << ", \"fleet_frames\": " << fleet_frames
        << ", \"fleet_json_bytes\": " << fleet_json.size()
        << ", \"plain_wall_ms\": " << plain_ms
        << ", \"traced_wall_ms\": " << traced_ms
        << ", \"overhead_percent\": " << overhead_percent << "},\n";
    out << "  \"profiler\": {\"ran\": " << (profiler_ran ? "true" : "false")
        << ", \"hash_match_profiled\": " << (profiler_hash_match ? "true" : "false")
        << ", \"plain_wall_ms\": " << prof_plain_ms
        << ", \"profiled_wall_ms\": " << prof_on_ms
        << ", \"overhead_percent\": " << profiler_overhead_percent
        << ", \"attr_samples\": " << attr_samples
        << ", \"tagged_fraction\": " << tagged_fraction
        << ", \"sampled_enough\": " << (sampled_enough ? "true" : "false")
        << "},\n";
    out << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        out << "    {\"streams\": " << sweep[i].streams
            << ", \"rate_hz\": " << sweep[i].rate_hz << ", ";
        emit_fleet(out, sweep[i].result);
        out << "}" << (i + 1 < sweep.size() ? ",\n" : "\n");
    }
    out << "  ]\n";
    out << "}\n";
    if (!out.good()) {
        std::cerr << "ERROR: cannot write " << out_path << "\n";
        return 1;
    }
    std::cout << "wrote " << out_path << " (speedup " << speedup << "x)\n";

    if (!hash_match || !sat_hash_match) {
        std::cerr << "ERROR: batched outcomes differ from the unbatched reference\n";
        return 1;
    }
    if (!deterministic) {
        std::cerr << "ERROR: two identical runs produced different output hashes\n";
        return 1;
    }
    if (!telemetry_hash_match) {
        std::cerr << "ERROR: attaching FleetStats changed the fleet output hash\n";
        return 1;
    }
    if (!profiler_hash_match) {
        std::cerr << "ERROR: sampling profiler changed the fleet output hash\n";
        return 1;
    }
    if (!fleet_json_deterministic) {
        std::cerr << "ERROR: /fleet document differs across identical runs\n";
        return 1;
    }
    if (overload.shed_rate <= 0.0)
        std::cerr << "WARNING: overload configuration shed nothing\n";
    if (!speedup_target_met)
        std::cerr << "WARNING: batched speedup below the 3x target on "
                  << util::hardware_threads() << " hardware threads\n";
    return 0;
}
