// gridctl_perfbench: runs one benchmark workload and prints its metrics.
//
//   gridctl_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--spans FILE] [--diurnal-seed N] [--market-seed N]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (and writes the spans to --spans). The last line of standard output
// is one JSON object {correct, attempted, failed, metrics}; the line
// before it lists the exact work counts behind the timings. The exit
// code is 1 when an output check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "util/json.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: gridctl_perfbench --workload "
               "predictive_day|shaving_day|market_plane --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--diurnal-seed N] "
               "[--market-seed N]\n");
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*text == '\0' || *end != '\0' || *text == '-') return false;
  out = value;
  return true;
}

bool parse_double(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return *text != '\0' && *end == '\0';
}

gridctl::JsonValue metrics_json(const std::vector<perfbench::Metric>& metrics) {
  gridctl::JsonValue::Object out;
  for (const auto& metric : metrics) {
    gridctl::JsonValue::Object entry;
    entry.emplace("value", gridctl::JsonValue(metric.value));
    entry.emplace("unit", gridctl::JsonValue(metric.unit));
    out.emplace(metric.name, gridctl::JsonValue(std::move(entry)));
  }
  return gridctl::JsonValue(std::move(out));
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, spans;
  std::uint64_t seed = 0, trace = 0, diurnal = 0, market = 0;
  bool have_seed = false, have_diurnal = false, have_market = false;
  double seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = value != nullptr;
    if (!ok) {
    } else if (arg == "--workload") {
      name = value;
    } else if (arg == "--seed") {
      ok = have_seed = parse_u64(value, seed);
    } else if (arg == "--seconds") {
      ok = parse_double(value, seconds) && seconds > 0.0;
    } else if (arg == "--trace") {
      ok = parse_u64(value, trace) && trace <= 1;
    } else if (arg == "--spans") {
      spans = value;
    } else if (arg == "--diurnal-seed") {
      ok = have_diurnal = parse_u64(value, diurnal);
    } else if (arg == "--market-seed") {
      ok = have_market = parse_u64(value, market);
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr, "bad argument '%s'\n", arg.c_str());
      usage();
      return 2;
    }
    ++i;
  }
  if (name.empty() || !have_seed || seconds <= 0.0) {
    usage();
    return 2;
  }

  try {
    perfbench::Seeds seeds = perfbench::seeds_from(seed);
    if (have_diurnal) seeds.diurnal = diurnal;
    if (have_market) seeds.market = market;
    const perfbench::Workload workload =
        perfbench::make_workload(name, seeds);
    const perfbench::RunResult run =
        trace ? perfbench::run_traced(workload, seconds, spans)
              : perfbench::run_timed(workload, seconds);

    bool finite = true;
    for (const auto& metric : run.metrics) {
      finite = finite && std::isfinite(metric.value);
    }
    for (const auto& failure : run.check_failures) {
      std::fprintf(stderr, "check failed: %s\n", failure.c_str());
    }
    if (!finite) std::fprintf(stderr, "check failed: non-finite metric\n");
    const bool correct = run.correct() && finite;

    gridctl::JsonValue::Object work;
    work.emplace("work", metrics_json(run.work));
    std::printf("%s\n", gridctl::dump_json(gridctl::JsonValue(std::move(work))).c_str());
    // attempted/failed print as plain integers; metric values print
    // with every digit (the shortest text that reparses to the value).
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed),
                gridctl::dump_json(metrics_json(run.metrics)).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
