// Self-tests of the benchmark's own logic. They run before every workload,
// so a broken percentile rule or checker fails the run instead of
// producing plausible numbers.

#include <iostream>
#include <set>
#include <string>

#include "common.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failures;
    std::cout << "SELF-TEST FAILED: " << what << '\n';
}

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    return v;
}

void test_percentile_rule() {
    const Percentile p = percentile(ramp(1000), 0.99);
    expect(p.value == 990.0 && p.beyond == 10 && p.supported(),
           "p99 of 1..1000 is 990 with 10 samples beyond");
    const Percentile short_sample = percentile(ramp(999), 0.99);
    expect(short_sample.beyond == 9 && !short_sample.supported(),
           "p99 of 999 samples has 9 beyond and is not reportable");
    expect(percentile(ramp(20), 0.50).value == 10.0, "p50 of 1..20 is 10 (nearest rank)");
    const WindowedPercentile fallback = windowed_percentile(ramp(999), 0.99);
    expect(fallback.windows == 1 && fallback.min_beyond == kMinBeyond && fallback.q < 0.99 &&
               fallback.value == 989.0,
           "below 1000 samples the tail falls back to the highest supported percentile");
    expect(windowed_percentile(ramp(10), 0.99).windows == 0,
           "ten samples support no tail percentile at all");
    const WindowedPercentile w = windowed_percentile(ramp(5000), 0.99);
    expect(w.windows == 5 && w.min_beyond >= kMinBeyond && w.samples == 5000,
           "5000 samples give five supported p99 windows");
}

void test_voter_enumeration() {
    const std::vector<int> healthy{1, 1, 2};
    const std::vector<int> compromised{5, 6, 7};
    const std::set<Outcome> ok = producible_outcomes(healthy, compromised);
    constexpr int decided = 0, skipped = 1, no_output = 2;
    expect(ok.count({decided, 1, 2, 3}) == 1, "two healthy versions agreeing on 1 decide 1");
    expect(ok.count({decided, 2, 1, 1}) == 1, "a lone functional version decides alone");
    expect(ok.count({skipped, -1, 0, 3}) == 1, "three disagreeing versions skip");
    expect(ok.count({no_output, -1, 0, 0}) == 1, "no functional version gives no output");
    expect(ok.count({decided, 2, 2, 3}) == 0, "wrong label for two agreeing versions rejected");
    expect(ok.count({decided, 1, 3, 3}) == 0, "wrong agreeing count rejected");
    expect(ok.count({decided, 1, 2, 2}) == 1 && ok.count({decided, 1, 2, 1}) == 0,
           "functional count must cover the agreeing versions");
}

void test_stall_accounting() {
    // Bursts due every 1000 us. The generator runs at 0 and 1000, then
    // stalls until 5500: bursts 2..5 go out late, each keeping its due
    // time, so each one's latency includes its share of the stall.
    OpenLoopSchedule schedule(0.0, 0.0, 1000.0);
    expect(schedule.take_due(0.0) == std::vector<std::uint64_t>{0}, "burst 0 due at start");
    expect(schedule.take_due(1000.0) == std::vector<std::uint64_t>{1}, "burst 1 due at 1000");
    const std::vector<std::uint64_t> late = schedule.take_due(5500.0);
    expect(late == std::vector<std::uint64_t>{2, 3, 4, 5}, "bursts 2..5 all sent after stall");
    const double service_us = 100.0;  // reply arrives 100 us after the send
    for (const std::uint64_t k : late) {
        const double latency = 5500.0 + service_us - schedule.due_us(k);
        const double expected = service_us + (5500.0 - 1000.0 * static_cast<double>(k));
        expect(latency == expected && latency >= service_us,
               "burst " + std::to_string(k) + " is charged the stall behind its due time");
    }
    expect(schedule.due_us(schedule.next()) == 6000.0,
           "the schedule does not drift after a stall");
}

void test_metric_names() {
    std::set<std::string> seen;
    for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()})
        for (const MetricSpec& s : *list) {
            expect(valid_metric_name(s.name), "metric name " + s.name + " is well formed");
            expect(seen.insert(s.name).second, "metric name " + s.name + " is unique");
            expect(s.better == "lower" || s.better == "higher", s.name + " has a direction");
        }
    expect(!valid_metric_name("") && !valid_metric_name("a b") && !valid_metric_name("x/y"),
           "malformed names are rejected");
    expect(per_layer_metrics().size() <= 128, "at most 128 per-layer metrics");
    Report r(false);
    bool threw = false;
    try {
        r.set("not.a.metric", 1.0);
    } catch (const std::logic_error&) {
        threw = true;
    }
    expect(threw, "an uncatalogued metric name is refused");
}

}  // namespace

int run_self_tests() {
    failures = 0;
    test_percentile_rule();
    test_voter_enumeration();
    test_stall_accounting();
    test_metric_names();
    return failures;
}

}  // namespace perfbench
