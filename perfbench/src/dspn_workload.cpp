// dspn_sweep: the Fig. 4 grid (360 points over 6 net structures) solved two
// ways per pass — through a fresh dspn::SweepEngine (memory cache only) and
// cold point by point (net -> ReachabilityGraph -> dspn_steady_state). No
// ML and no sockets: this workload predicts "no change" for serving and AV
// optimisations and isolates dspn / num solver changes.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "mvreju/dspn/reachability.hpp"
#include "mvreju/dspn/solver.hpp"
#include "mvreju/dspn/sweep.hpp"
#include "mvreju/obs/trace.hpp"
#include "probes.hpp"
#include "sweep_common.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace dspn = mvreju::dspn;
namespace reliability = mvreju::reliability;

namespace {

constexpr int kSetupRepeats = 21;
constexpr std::size_t kProgramSpanLimit = 200'000;

/// Table V (E[R_sys], exact MRGP): 1/2/3 versions without and with
/// rejuvenation, at the paper's constants.
constexpr double kTableV[6] = {0.848211, 0.920171, 0.943876, 0.969077, 0.903191, 0.954265};

/// The six Table V configurations, in kTableV order.
std::vector<std::vector<double>> table_v_points() {
    std::vector<std::vector<double>> points;
    for (std::size_t c = 0; c < 6; ++c) {
        mvreju::core::DspnConfig cfg;
        cfg.modules = 1 + static_cast<int>(c / 2);
        cfg.proactive = (c % 2) == 1;
        cfg.timing = reliability::TimingParams{};
        points.push_back(mvreju::bench::encode_config(cfg));
    }
    return points;
}

struct ColdPass {
    std::vector<std::vector<double>> pi;
    std::vector<double> latency_ms;
    double seconds = 0.0;
};

}  // namespace

void run_dspn(const RunArgs& args, Report& report, SpanLog& spans) {
    const auto factory = mvreju::bench::multiversion_factory();
    const reliability::Params params = reliability::paper_params();
    const mvreju::dspn::SweepRewardFn reward = [&](const std::vector<double>& pv,
                                                   const dspn::Marking& m) {
        return mvreju::bench::marking_reliability(pv, m, params);
    };
    // One engine thread: on this grid the wavefront fan-out over 4 threads
    // gained nothing (918 vs 900 points/s) and its per-chunk fork-join made
    // points/s swing twice as much between runs on a shared VM.
    dspn::SweepOptions options;
    options.threads = 1;

    // --- Set-up: the grid in a seeded order, and the Table V reference
    // solves through a fresh engine (repeated; median reported) -----------
    std::vector<double> setup_s;
    std::vector<std::vector<double>> grid;
    std::vector<std::size_t> column;  ///< per submitted point: its Fig. 4 column
    std::vector<double> table_v(6, 0.0);
    for (int r = 0; r < kSetupRepeats; ++r) {
        const auto t0 = Clock::now();
        const auto fig4 = mvreju::bench::fig4_grid(reliability::TimingParams{});
        // The seed picks the order the grid is submitted in: the same set of
        // points, a different arrival sequence for the engine's wavefronts.
        std::vector<std::size_t> order(fig4.size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[mix64(args.seed * 7919 + i) % i]);
        grid.clear();
        column.clear();
        for (const std::size_t i : order) {
            grid.push_back(fig4[i]);
            column.push_back(i / 6);  // fig4_grid emits six configurations per x value
        }
        dspn::SweepEngine engine(factory, options);
        const auto points = engine.run(table_v_points());
        for (std::size_t c = 0; c < 6; ++c) table_v[c] = engine.expected_reward(points[c], reward);
        setup_s.push_back(seconds_between(t0, Clock::now()));
    }
    report.note("workload dspn_sweep: Fig. 4 grid, " + std::to_string(grid.size()) +
                " points in seeded order; engine on " + std::to_string(options.threads) +
                " thread, cold path serial; seed " + std::to_string(args.seed));

    auto engine_pass = [&](dspn::SweepStats* stats) {
        dspn::SweepEngine engine(factory, options);
        const auto t0 = Clock::now();
        std::vector<dspn::SweepPoint> points = engine.run(grid);
        const double s = seconds_between(t0, Clock::now());
        if (stats) *stats = engine.stats();
        return std::make_pair(std::move(points), s);
    };
    std::size_t attempted = 0, failed = 0, mismatched = 0;
    auto cold_pass = [&](bool traced) {
        ColdPass out;
        const auto t0 = Clock::now();
        for (const std::vector<double>& p : grid) {
            const auto s0 = Clock::now();
            try {
                const int point = traced ? spans.begin("bench.cold_point") : -1;
                const dspn::PetriNet net = factory(p);
                const int reach = traced ? spans.begin("bench.reachability", point) : -1;
                const dspn::ReachabilityGraph graph(net);
                if (traced) spans.end(reach);
                const int solve = traced ? spans.begin("bench.solve", point) : -1;
                out.pi.push_back(dspn::dspn_steady_state(graph));
                if (traced) spans.end(solve);
                if (traced) spans.end(point);
            } catch (const std::exception&) {
                out.pi.emplace_back();
                ++failed;
            }
            out.latency_ms.push_back(seconds_between(s0, Clock::now()) * 1e3);
        }
        out.seconds = seconds_between(t0, Clock::now());
        return out;
    };
    auto check = [&](const std::vector<dspn::SweepPoint>& engine, const ColdPass& cold) {
        attempted += 2 * grid.size();
        for (std::size_t i = 0; i < grid.size(); ++i)
            if (cold.pi[i].empty() || engine[i].pi != cold.pi[i]) ++mismatched;
    };

    // --- Warm-up pass, then timed passes ------------------------------------
    check(engine_pass(nullptr).first, cold_pass(false));
    struct Phase {
        std::vector<double> engine_rate, cold_rate;
        std::vector<std::vector<double>> latency_ms;  ///< per cold pass, grid order
        double engine_s = 0.0, cold_s = 0.0;
    };
    auto timed_phase = [&](double budget_s, bool traced) {
        Phase p;
        auto& tracer = mvreju::obs::Tracer::global();
        while (p.engine_s + p.cold_s < budget_s) {
            if (traced) tracer.enable();
            auto [points, engine_s] = engine_pass(nullptr);
            const ColdPass cold = cold_pass(false);
            if (traced) {
                tracer.disable();
                if (spans.add_program_spans(tracer.chrome_json(), kProgramSpanLimit) < 0)
                    throw std::runtime_error("unreadable program trace");
                tracer.clear();
            }
            check(points, cold);
            p.engine_s += engine_s;
            p.cold_s += cold.seconds;
            p.engine_rate.push_back(static_cast<double>(grid.size()) / engine_s);
            p.cold_rate.push_back(static_cast<double>(grid.size()) / cold.seconds);
            p.latency_ms.push_back(cold.latency_ms);
        }
        return p;
    };
    const Phase timed = timed_phase(args.trace ? args.seconds / 2 : args.seconds, false);
    const Phase traced = args.trace ? timed_phase(args.seconds / 2, true) : Phase{};

    // --- Output checks ------------------------------------------------------
    std::size_t table_v_off = 0;
    std::string table = "  Table V E[R_sys] (1v/2v/3v) w/o rej:";
    for (const std::size_t c : {0, 2, 4, 1, 3, 5}) {
        if (c == 1) table += "; w/ rej:";
        table.append(1, ' ').append(fixed(table_v[c], 6));
    }
    for (std::size_t c = 0; c < 6; ++c)
        if (!(std::fabs(table_v[c] - kTableV[c]) <= 1e-6)) ++table_v_off;
    report.note(table);
    report.attempted = attempted + 6;
    report.failed = failed + mismatched + table_v_off;
    report.note("  checks: " + std::to_string(attempted) + " point solves, " +
                std::to_string(mismatched) + " engine pi not bitwise equal to cold, " +
                std::to_string(failed) + " threw; Table V entries off by > 1e-6: " +
                std::to_string(table_v_off));
    report.note("  failed_share = " +
                fixed(static_cast<double>(report.failed) / static_cast<double>(report.attempted), 6));
    if (mismatched || failed)
        report.check_failed("dspn: every engine pi must equal its cold pi bitwise");
    if (table_v_off) report.check_failed("dspn: Table V differs from the paper values by > 1e-6");

    const double points_per_s = median(timed.engine_rate);
    const double cold_points_per_s = median(timed.cold_rate);
    // Latency of a cold query for one Fig. 4 column: the six configurations
    // (1/2/3 versions x with/without rejuvenation) at one x value, summed
    // over its points. Every pass solves the same columns, so each column's
    // latency is its median over the passes and the percentiles run over the
    // 60 columns. (Per point, the grid is half CTMC solves of microseconds
    // and half MRGP solves of milliseconds, and a median sits on that edge.)
    const std::size_t columns = *std::max_element(column.begin(), column.end()) + 1;
    std::vector<double> column_ms(columns);
    for (std::size_t c = 0; c < columns; ++c) {
        std::vector<double> samples;
        for (const std::vector<double>& pass : timed.latency_ms) {
            double sum = 0.0;
            for (std::size_t i = 0; i < grid.size(); ++i)
                if (column[i] == c) sum += pass[i];
            samples.push_back(sum);
        }
        column_ms[c] = median(samples);
    }
    const Percentile p50 = percentile(column_ms, 0.50);
    const WindowedPercentile tail = windowed_percentile(column_ms, 0.99);
    report.note("  points_per_s (engine) = " + fixed(points_per_s, 1) + ", cold_points_per_s = " +
                fixed(cold_points_per_s, 1) + " (medians over " +
                std::to_string(timed.engine_rate.size()) + " passes)");
    report.note("  cold column latency: p50 " + fixed(p50.value, 4) + " ms, tail " +
                fixed(tail.value, 4) + " ms = " + describe_tail(tail) + "; each column the median of " +
                std::to_string(timed.latency_ms.size()) + " passes");
    if (!report.traced()) {
        if (tail.windows == 0) throw std::runtime_error("too few cold solves for a tail percentile");
        report.set("setup_s", median(setup_s));
        report.set("latency_p50_ms", p50.value);
        report.set("latency_tail_ms", tail.value);
        report.set("ops_per_s", points_per_s);
        report.set("peak_rss_mb", peak_rss_mb());
        report.note("  setup_s = " + fixed(median(setup_s), 4) + " (median of " +
                    std::to_string(kSetupRepeats) + " grid + Table V reference set-ups)");
        return;
    }

    // --- Per-layer rows -----------------------------------------------------
    report.set("obs.trace_overhead_pct",
               100.0 * (points_per_s / median(traced.engine_rate) - 1.0));
    const double gs_sweeps0 = counter_value("num.gs.sweeps");
    const double gs_solves0 = counter_value("num.gs.solves");
    dspn::SweepStats stats;
    (void)engine_pass(&stats);
    report.set("num.gs_sweeps", counter_value("num.gs.sweeps") - gs_sweeps0);
    report.set("num.dense_solves",
               static_cast<double>(stats.solves) - (counter_value("num.gs.solves") - gs_solves0));
    report.set("dspn.unique_solves", static_cast<double>(stats.solves));
    report.set("dspn.rebuilds", static_cast<double>(stats.rebuilds));
    report.set("dspn.rebinds", static_cast<double>(stats.rebinds));
    report.set("dspn.family_members", static_cast<double>(stats.family_members));
    report.set("dspn.cache_hit_share",
               static_cast<double>(stats.cache_hits) / static_cast<double>(stats.points));
    report.note("  engine pass: " + std::to_string(stats.points) + " points, " +
                std::to_string(stats.solves) + " unique solves, " +
                std::to_string(stats.cache_hits) + " cache hits, " +
                std::to_string(stats.rebuilds) + " rebuilds, " + std::to_string(stats.rebinds) +
                " rebinds, " + std::to_string(stats.family_members) + " family members");

    // Reachability, rebind and solve, timed per call on the cold path; the
    // rebind re-rates one prototype per structure to every point's net.
    (void)cold_pass(true);
    std::map<std::uint64_t, std::unique_ptr<dspn::PetriNet>> proto_nets;
    std::map<std::uint64_t, std::unique_ptr<dspn::ReachabilityGraph>> protos;
    double states = 0.0;
    for (const std::vector<double>& p : grid) {
        auto net = std::make_unique<dspn::PetriNet>(factory(p));
        const std::uint64_t key = dspn::structure_hash(*net);
        if (protos.count(key) == 0) {
            protos[key] = std::make_unique<dspn::ReachabilityGraph>(*net);
            states += static_cast<double>(protos[key]->state_count());
            proto_nets[key] = std::move(net);
        }
    }
    std::vector<std::unique_ptr<dspn::PetriNet>> nets;
    for (const std::vector<double>& p : grid) nets.push_back(std::make_unique<dspn::PetriNet>(factory(p)));
    std::size_t rebind_failures = 0;
    for (const auto& net : nets) {
        dspn::ReachabilityGraph& proto = *protos.at(dspn::structure_hash(*net));
        const Scoped s(spans, "bench.rebind");
        rebind_failures += proto.rebind(*net) ? 0 : 1;
    }
    report.set("dspn.states", states);
    const auto st = spans.stats();
    auto mean_us = [&](const char* name, bool self) {
        const auto it = st.find(name);
        if (it == st.end()) return 0.0;
        return self ? it->second.mean_self_us() : it->second.mean_us();
    };
    report.set("dspn.reachability_ms", mean_us("bench.reachability", false) * 1e-3);
    report.set("dspn.rebind_us", mean_us("bench.rebind", false));
    report.set("dspn.solve_us", mean_us("bench.solve", false));
    report.set("dspn.steady_state_self_us", mean_us("dspn.steady_state", true));
    report.set("dspn.solve_family_self_us", mean_us("dspn.solve_family", true));
    report.note("  per call: reachability " + fixed(mean_us("bench.reachability", false) * 1e-3, 4) +
                " ms, rebind " + fixed(mean_us("bench.rebind", false), 2) + " us (" +
                std::to_string(rebind_failures) + " rejected), steady-state solve " +
                fixed(mean_us("bench.solve", false), 1) + " us; " + fixed(states, 0) +
                " tangible states over " + std::to_string(protos.size()) + " structures");
    report.note("  obs.trace_overhead_pct = " +
                fixed(100.0 * (points_per_s / median(traced.engine_rate) - 1.0), 2) +
                " (traced engine passes vs untraced, points/s)");
}

}  // namespace perfbench
