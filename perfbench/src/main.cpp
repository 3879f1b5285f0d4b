/// @file main.cpp
/// @brief Command line of the benchmark driver. Runs one workload and prints
/// one JSON object on its last line of output:
///   {"correct": ..., "attempted": ..., "failed": ...,
///    "errors": [...], "details": {...}, "end_to_end": {name: {"value", "unit"}},
///    "per_layer": {...}}
/// perfbench/run.py builds the driver, picks the traced or untraced build
/// and turns this into the benchmark's result line.
///
/// Usage: perfbench --workload NAME --seed N --seconds S [--spans PATH]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

std::string json_string(std::string const& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) continue;
        out += c;
    }
    return out + "\"";
}

std::string json_metrics(std::vector<perfbench::Metric> const& ms) {
    std::string out = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (!std::isfinite(ms[i].value)) {
            throw std::runtime_error("non-finite metric " + ms[i].name);
        }
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", ms[i].value);
        out += (i ? ", " : "") + json_string(ms[i].name) + ": {\"value\": " + num +
               ", \"unit\": " + json_string(ms[i].unit) + "}";
    }
    return out + "}";
}

[[noreturn]] void usage(char const* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
                 "[--spans PATH]\n",
                 why);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options opt;
    opt.process_start = perfbench::Clock::now();
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string const a = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + a).c_str());
        std::string const v = argv[++i];
        try {
            if (a == "--workload") {
                opt.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
            } else if (a == "--spans") {
                opt.spans_path = v;
            } else {
                usage(("unknown option " + a).c_str());
            }
        } catch (std::logic_error const&) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (!have_workload) usage("--workload is required");
    if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

    perfbench::Outcome out;
    try {
        out = perfbench::run_workload(opt);
    } catch (std::invalid_argument const& e) {
        usage(e.what());
    } catch (std::exception const& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::string errors = "[";
    for (std::size_t i = 0; i < out.errors.size(); ++i) {
        errors += (i ? ", " : "") + json_string(out.errors[i]);
    }
    errors += "]";
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"errors\": %s, \"details\": %s, \"end_to_end\": %s, \"per_layer\": %s}\n",
                out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), errors.c_str(),
                json_metrics(out.details).c_str(), json_metrics(out.end_to_end).c_str(),
                json_metrics(out.per_layer).c_str());
    return 0;
}
