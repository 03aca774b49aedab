// The benchmark's own tests: the operator's kill-and-resume path ends
// bit-identical to an uninterrupted run, and every workload prints
// every metric BENCHMARK.json declares, by name and unit, with its
// output checks passing. Runs at a tiny window length.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using gridctl::JsonValue;

// Checkpoint JSON without its wall-clock fields: telemetry and runtime
// stats keep only their deterministic counters.
std::string deterministic_state(const std::string& checkpoint_text) {
  const JsonValue root = gridctl::parse_json(checkpoint_text);
  JsonValue::Object out;
  for (const auto& [key, value] : root.as_object()) {
    if (key != "telemetry" && key != "stats") out.emplace(key, value);
  }
  const std::vector<std::string> telemetry_keys = {
      "steps", "solver_calls", "solver_iterations", "status_optimal",
      "status_max_iterations", "status_infeasible", "warm_start_hits",
      "fallback_backend_retries", "fallback_holds", "invariant_checks",
      "invariants_by_kind"};
  for (const auto& key : telemetry_keys) {
    out.emplace("telemetry." + key, root.at("telemetry").at(key));
  }
  const std::vector<std::string> stats_keys = {
      "price_ticks", "workload_ticks", "dropped_ticks", "late_ticks",
      "stale_price_steps", "stale_workload_steps", "degraded_steps"};
  for (const auto& key : stats_keys) {
    out.emplace("stats." + key, root.at("stats").at(key));
  }
  return gridctl::dump_json(JsonValue(std::move(out)));
}

void expect_resume_bit_identical(const perfbench::Workload& workload) {
  const auto resumed = perfbench::end_checkpoints(workload, true);
  const auto straight = perfbench::end_checkpoints(workload, false);
  ASSERT_EQ(resumed.size(), workload.fleets);
  ASSERT_EQ(straight.size(), workload.fleets);
  for (std::size_t f = 0; f < workload.fleets; ++f) {
    EXPECT_EQ(deterministic_state(resumed[f]), deterministic_state(straight[f]))
        << workload.name << " fleet " << f;
  }
}

TEST(KillAndResume, ShavingDayEndsBitIdentical) {
  expect_resume_bit_identical(
      perfbench::make_workload("shaving_day", perfbench::seeds_from(1), 0.5));
}

TEST(KillAndResume, MarketPlaneEndsBitIdentical) {
  expect_resume_bit_identical(
      perfbench::make_workload("market_plane", perfbench::seeds_from(1), 1.0));
}

// name -> unit of one metric list in BENCHMARK.json.
std::map<std::string, std::string> declared(const std::string& list) {
  const JsonValue spec =
      gridctl::parse_json_file(std::string(PERFBENCH_SOURCE_DIR) +
                               "/../BENCHMARK.json");
  std::map<std::string, std::string> out;
  for (const JsonValue& metric : spec.at(list).as_array()) {
    out[metric.at("name").as_string()] = metric.at("unit").as_string();
  }
  return out;
}

void expect_metrics(const perfbench::RunResult& run,
                    const std::map<std::string, std::string>& expected,
                    const std::string& what) {
  for (const auto& failure : run.check_failures) {
    ADD_FAILURE() << what << ": check failed: " << failure;
  }
  EXPECT_GE(run.attempted, 1u) << what;
  EXPECT_EQ(run.failed, 0u) << what;
  std::map<std::string, std::string> printed;
  for (const auto& metric : run.metrics) {
    EXPECT_TRUE(std::isfinite(metric.value)) << what << " " << metric.name;
    printed[metric.name] = metric.unit;
  }
  EXPECT_EQ(printed, expected) << what;
}

class Smoke : public ::testing::TestWithParam<std::string> {};

TEST_P(Smoke, EveryMetricPrintsByNameAndUnit) {
  const double hours = GetParam() == "market_plane" ? 1.0 : 0.25;
  const auto workload =
      perfbench::make_workload(GetParam(), perfbench::seeds_from(7), hours);
  expect_metrics(perfbench::run_timed(workload, 0.01), declared("end_to_end"),
                 GetParam() + " timed");
  expect_metrics(perfbench::run_traced(workload, 0.01, ""),
                 declared("per_layer"), GetParam() + " traced");
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(perfbench::workload_names()));

TEST(Workloads, SameSeedSameInputsAndSeedsReachTheRandomSources) {
  const auto a = perfbench::make_workload("market_plane", {3, 4});
  EXPECT_EQ(a.scenario_json,
            perfbench::make_workload("market_plane", {3, 4}).scenario_json);
  EXPECT_NE(a.scenario_json,
            perfbench::make_workload("market_plane", {3, 5}).scenario_json);
  EXPECT_NE(a.scenario_json,
            perfbench::make_workload("market_plane", {5, 4}).scenario_json);
  EXPECT_NE(perfbench::make_workload("predictive_day", {3, 4}).scenario_json,
            perfbench::make_workload("predictive_day", {5, 4}).scenario_json);
  EXPECT_THROW(perfbench::make_workload("nope", {1, 2}), std::invalid_argument);
}

}  // namespace
