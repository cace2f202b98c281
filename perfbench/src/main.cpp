// perfbench: wall-clock benchmark of mvreju.
//
//   perfbench --workload <serve_camera|serve_saturate|av_campaign|dspn_sweep>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//   perfbench --self-test
//   perfbench --list-metrics
//
// Human-readable lines first; the last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when an
// output check fails, 2 on bad arguments or a run error.

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

void print_catalogue() {
    auto list = [](const std::vector<MetricSpec>& specs) {
        std::string out = "[";
        for (std::size_t i = 0; i < specs.size(); ++i)
            out += std::string(i ? ", " : "") + "{\"name\": \"" + specs[i].name +
                   "\", \"unit\": \"" + specs[i].unit + "\", \"better\": \"" + specs[i].better +
                   "\"}";
        return out + "]";
    };
    std::cout << "{\"end_to_end\": " << list(end_to_end_metrics())
              << ", \"per_layer\": " << list(per_layer_metrics()) << "}\n";
}

RunArgs parse(int argc, char** argv) {
    RunArgs args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string value = argv[++i];
        if (key == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            args.seed = std::stoull(value);
        } else if (key == "--seconds") {
            args.seconds = std::stod(value);
            if (!(args.seconds >= 1.0 && args.seconds <= 60.0))
                throw std::invalid_argument("--seconds must be in [1, 60]");
        } else if (key == "--trace") {
            if (value != "0" && value != "1") throw std::invalid_argument("--trace is 0 or 1");
            args.trace = value == "1";
        } else if (key == "--trace-out") {
            args.trace_out = value;
        } else {
            throw std::invalid_argument("unknown argument " + key);
        }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
    return args;
}

}  // namespace

int main(int argc, char** argv) {
    (void)now_us();  // start the span clock at process start
    if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
        print_catalogue();
        return 0;
    }
    const int self_test_failures = run_self_tests();
    if (argc == 2 && std::string(argv[1]) == "--self-test") {
        std::cout << (self_test_failures == 0 ? "self-tests passed\n" : "self-tests FAILED\n");
        return self_test_failures == 0 ? 0 : 1;
    }
    if (self_test_failures != 0) {
        std::cerr << "error: benchmark self-tests failed\n";
        return 2;
    }
    try {
        const RunArgs args = parse(argc, argv);
        Report report(args.trace);
        SpanLog spans;
        if (args.workload == "serve_camera")
            run_serve(args, true, report, spans);
        else if (args.workload == "serve_saturate")
            run_serve(args, false, report, spans);
        else if (args.workload == "av_campaign")
            run_av(args, report, spans);
        else if (args.workload == "dspn_sweep")
            run_dspn(args, report, spans);
        else
            throw std::invalid_argument("unknown workload " + args.workload);
        if (args.trace && !args.trace_out.empty()) spans.write_chrome(args.trace_out);
        std::cout << report.json_line() << std::endl;
        return report.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 2;
    }
}
