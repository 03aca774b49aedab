// The benchmark runs: a timed run that reports the end-to-end metrics
// and a separate traced run that reports the per-layer ones. Both drive
// the program only through its public APIs and check its outputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;  // control ticks attempted
  std::uint64_t failed = 0;     // ticks lost to a fleet error
  // One line per failed output check; empty when every check passed.
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;
  // Exact work counts behind the timings (printed beside the result).
  std::vector<Metric> work;

  bool correct() const { return check_failures.empty(); }
};

// Untraced run: the set-up measured several times, then whole-window
// kill-and-resume episodes until `seconds` have passed (at least one).
// Reports every end-to-end metric.
RunResult run_timed(const Workload& workload, double seconds);

// Traced run: one session-path episode (as the timed run drives it),
// then the same window composed from the layers' public calls with
// in-memory spans, repeated until `seconds` have passed. Reports every
// per-layer metric and writes the spans to `spans_path` when non-empty.
RunResult run_traced(const Workload& workload, double seconds,
                     const std::string& spans_path);

// End state of every fleet after one run of the window, with or
// without the kill-and-resume at the workload's kill step: each
// fleet's end-of-run checkpoint JSON text.
std::vector<std::string> end_checkpoints(const Workload& workload,
                                         bool kill_and_resume);

}  // namespace perfbench
