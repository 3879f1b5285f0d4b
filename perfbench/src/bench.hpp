/// @file bench.hpp
/// @brief The benchmark driver's interface between its command line
/// (main.cpp) and its workloads (workloads.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /// Where the traced build writes its span log ("" = nowhere).
    std::string spans_path;
    /// Process start, the zero of setup_s.
    Clock::time_point process_start;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome {
    /// False when any output check failed.
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> end_to_end;
    /// Filled by the traced build only.
    std::vector<Metric> per_layer;
    /// Figures for the record that are not metrics: the warm-up effect and
    /// each mix slot's median on both sides of the twin.
    std::vector<Metric> details;
    /// Descriptions of the first failed checks.
    std::vector<std::string> errors;
};

std::vector<std::string> workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
Outcome run_workload(Options const& opt);

}  // namespace perfbench
