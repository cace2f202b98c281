#include "mvreju/obs/session.hpp"

#include <cstdlib>
#include <fstream>
#include <string>

#include "mvreju/obs/buildinfo.hpp"
#include "mvreju/obs/exporter.hpp"
#include "mvreju/obs/flight_recorder.hpp"
#include "mvreju/obs/log.hpp"
#include "mvreju/obs/metrics.hpp"
#include "mvreju/obs/profiler.hpp"
#include "mvreju/obs/trace.hpp"

namespace mvreju::obs {

std::string metrics_blob_json() {
    std::string out = "{\n\"meta\": " + run_metadata_json() + ",\n\"metrics\": ";
    out += metrics().snapshot().to_json();
    out += "\n}\n";
    return out;
}

Session::Session(const util::Args& args, std::string default_metrics_path)
    : metrics_path_(args.get("metrics", default_metrics_path)),
      trace_path_(args.get("trace", std::string())) {
    if (!trace_path_.empty()) Tracer::global().enable();
    if (args.has("flight")) {
        FlightRecorder& recorder = FlightRecorder::global();
        const std::string arg_dir = args.get("flight", std::string());
        // Bare --flight: dumps into the working directory.
        const std::string dir = arg_dir.empty() ? std::string(".") : arg_dir;
        recorder.set_dump_dir(dir);
        // Default trigger set: the postmortem moments of the paper's fault
        // model. Rejuvenations are recorded but deliberately not triggers —
        // they are routine in a healthy system and would eat the dump limit.
        recorder.set_trigger(EventKind::vote_skipped, true);
        recorder.set_trigger(EventKind::vote_no_output, true);
        recorder.set_trigger(EventKind::collision, true);
        recorder.set_trigger(EventKind::slo_breach, true);
        recorder.set_enabled(true);
        log_info("flight recorder armed, dumps into " + dir);
    }
    if (args.has("serve"))
        serving_ = Exporter::global().start(args.get("serve", 0));

    // --profile [interval_us] or MVREJU_PROFILE=on|<interval_us>: arm the
    // continuous sampling profiler (reports via GET /profile and the
    // obs.profiler.* metrics). A numeric value overrides the default
    // ~100 Hz sampling interval — CI smokes use a fast interval so a
    // 1-second scrape has enough samples to assert on.
    std::string profile_value;
    bool profile_requested = args.has("profile");
    if (profile_requested) {
        profile_value = args.get("profile", std::string());
    } else if (const char* env = std::getenv("MVREJU_PROFILE")) {
        const std::string v(env);
        if (!v.empty() && v != "off" && v != "0" && v != "false" && v != "no") {
            profile_requested = true;
            profile_value = (v == "on" || v == "1" || v == "true") ? "" : v;
        }
    }
    if (profile_requested) {
        if (!profile_value.empty()) {
            const int interval_us = std::atoi(profile_value.c_str());
            if (interval_us > 0) {
                // Profiler options are fixed at construction, so a custom
                // interval gets a session-owned instance; /profile and the
                // serving layer find it through Profiler::active().
                Profiler::Options options;
                options.interval_us = interval_us;
                profiler_ = std::make_unique<Profiler>(options);
            }
        }
        Profiler& profiler = profiler_ ? *profiler_ : Profiler::global();
        profiling_ = profiler.start();
    }
}

void Session::flush() {
    if (flushed_) return;
    flushed_ = true;
    if (profiling_) {
        (profiler_ ? *profiler_ : Profiler::global()).stop();
        profiling_ = false;
    }
    if (serving_) {
        Exporter::global().stop();
        serving_ = false;
    }
    if (!metrics_path_.empty()) {
        std::ofstream out(metrics_path_);
        out << metrics_blob_json();
        if (out.good())
            log_info("wrote metrics blob to " + metrics_path_);
        else
            log_error("cannot write metrics blob to " + metrics_path_);
    }
    if (!trace_path_.empty()) {
        try {
            Tracer::global().write(trace_path_);
            log_info("wrote trace to " + trace_path_ +
                     " (load it in https://ui.perfetto.dev)");
        } catch (const std::exception& e) {
            log_error(e.what());
        }
    }
}

Session::~Session() { flush(); }

}  // namespace mvreju::obs
