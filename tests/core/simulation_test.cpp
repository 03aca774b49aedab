#include "core/simulation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/paper.hpp"
#include "engine/telemetry.hpp"

namespace gridctl::core {
namespace {

Scenario quick_scenario() {
  Scenario scenario = paper::smoothing_scenario(/*ts_s=*/units::Seconds{20.0});
  scenario.duration_s = units::Seconds{200.0};
  return scenario;
}

// A shared trace snapshot costs no copy and never changes: the kernel
// copies its trace on the first record after sharing it.
TEST(PeriodKernel, SharedTraceSnapshotIsCopyOnWrite) {
  const Scenario scenario = quick_scenario();
  PeriodKernel kernel(scenario, "optimal");
  const PeriodKernel& view = kernel;
  const PolicyDecision initial = kernel.warm_start(nullptr);
  const units::Seconds t0 = scenario.start_time_s;
  kernel.record_initial_row(kernel.prices_at(t0), kernel.demands_at(t0));

  const auto snapshot = kernel.share_trace();
  EXPECT_EQ(snapshot.get(), &view.trace());
  kernel.begin_period();
  kernel.advance(0, initial, kernel.prices_at(t0), kernel.demands_at(t0),
                 nullptr);
  EXPECT_NE(snapshot.get(), &view.trace());
  EXPECT_EQ(snapshot->time_s.size(), 1u);
  EXPECT_EQ(view.trace().time_s.size(), 2u);
  EXPECT_EQ(view.trace().time_s.front(), snapshot->time_s.front());
}

TEST(Simulation, TraceShapeAndTimestamps) {
  Scenario scenario = quick_scenario();
  OptimalPolicy policy(scenario.idcs, 5, scenario.controller.cost_basis);
  const auto result = run_simulation(scenario, policy);
  const auto& trace = result.trace;
  // 10 steps + warm-start row.
  EXPECT_EQ(trace.time_s.size(), 11u);
  EXPECT_DOUBLE_EQ(trace.time_s.front(), 0.0);
  EXPECT_DOUBLE_EQ(trace.time_s.back(), 200.0);
  ASSERT_EQ(trace.power_w.size(), 3u);
  EXPECT_EQ(trace.power_w[0].size(), 11u);
  EXPECT_EQ(trace.portal_rps.size(), 5u);
  EXPECT_EQ(trace.total_power_w.size(), 11u);
}

TEST(Simulation, WarmStartRowIsPreviousHourOptimum) {
  Scenario scenario = quick_scenario();
  OptimalPolicy policy(scenario.idcs, 5, scenario.controller.cost_basis);
  const auto result = run_simulation(scenario, policy);
  // Row 0 = 6H optimum: Wisconsin full (20000 servers -> 5.62 MW at the
  // margin-adjusted load).
  EXPECT_NEAR(result.trace.power_w[2][0] / 1e6, 5.62, 0.1);
  // Optimal jumps by the first recorded step.
  EXPECT_NEAR(result.trace.power_w[2][1] / 1e6, 2.04, 0.1);
}

TEST(Simulation, CumulativeCostIsMonotoneUnderPositivePrices) {
  Scenario scenario = quick_scenario();
  OptimalPolicy policy(scenario.idcs, 5, scenario.controller.cost_basis);
  const auto result = run_simulation(scenario, policy);
  for (std::size_t k = 1; k < result.trace.cumulative_cost.size(); ++k) {
    EXPECT_GE(result.trace.cumulative_cost[k],
              result.trace.cumulative_cost[k - 1]);
  }
  EXPECT_NEAR(result.summary.total_cost.value(),
              result.trace.cumulative_cost.back(), 1e-9);
}

TEST(Simulation, SummaryEnergyMatchesPowerIntegral) {
  Scenario scenario = quick_scenario();
  OptimalPolicy policy(scenario.idcs, 5, scenario.controller.cost_basis);
  const auto result = run_simulation(scenario, policy);
  // Power is constant after the jump; energy = sum(P * ts). Skip the
  // warm-start row (not integrated).
  double joules = 0.0;
  for (std::size_t k = 1; k < result.trace.total_power_w.size(); ++k) {
    joules += result.trace.total_power_w[k] * scenario.ts_s.value();
  }
  EXPECT_NEAR(units::as_mwh(result.summary.total_energy), joules / 3.6e9, 1e-6);
}

TEST(Simulation, ControlSmootherThanOptimalInMaxStep) {
  Scenario scenario = paper::smoothing_scenario(/*ts_s=*/units::Seconds{15.0});
  scenario.duration_s = units::Seconds{300.0};
  MpcPolicy control(CostController::Config{scenario.idcs, 5, {},
                                           scenario.controller});
  OptimalPolicy optimal(scenario.idcs, 5, scenario.controller.cost_basis);
  const auto controlled = run_simulation(scenario, control);
  const auto baseline = run_simulation(scenario, optimal);
  // The defining claim: per-IDC max power step shrinks by a large factor.
  for (std::size_t j = 0; j < 3; ++j) {
    if (baseline.summary.idcs[j].volatility.max_abs_step.value() < 1e5) continue;
    EXPECT_LT(controlled.summary.idcs[j].volatility.max_abs_step.value(),
              0.35 * baseline.summary.idcs[j].volatility.max_abs_step.value())
        << "IDC " << j;
  }
}

TEST(Simulation, LatencyStaysWithinBoundForBothPolicies) {
  Scenario scenario = quick_scenario();
  MpcPolicy control(CostController::Config{scenario.idcs, 5, {},
                                           scenario.controller});
  const auto result = run_simulation(scenario, control);
  for (std::size_t j = 0; j < 3; ++j) {
    for (double latency : result.trace.latency_s[j]) {
      EXPECT_GE(latency, 0.0);  // never the -1 overload marker
      EXPECT_LE(latency, scenario.idcs[j].latency_bound_s.value() * 1.0001);
    }
  }
  EXPECT_DOUBLE_EQ(result.summary.overload_time.value(), 0.0);
}

TEST(Simulation, CsvExportRoundTrips) {
  Scenario scenario = quick_scenario();
  OptimalPolicy policy(scenario.idcs, 5, scenario.controller.cost_basis);
  const auto result = run_simulation(scenario, policy);
  const CsvTable table = result.trace.to_csv();
  EXPECT_EQ(table.rows.size(), result.trace.time_s.size());
  // Spot-check a column mapping: total power in MW.
  const auto total = table.column_values("total_power_mw");
  EXPECT_NEAR(total[3], result.trace.total_power_w[3] / 1e6, 1e-9);
  // The fluid-queue audit columns are exported too.
  const auto backlog = table.column_values("backlog_req_1");
  EXPECT_NEAR(backlog[2], result.trace.backlog_req[1][2], 1e-9);
  const auto delay = table.column_values("transient_delay_ms_0");
  EXPECT_NEAR(delay[2], result.trace.transient_delay_s[0][2] * 1000.0, 1e-9);
}

TEST(Simulation, CsvExportRoundTripsThroughParser) {
  Scenario scenario = quick_scenario();
  OptimalPolicy policy(scenario.idcs, 5, scenario.controller.cost_basis);
  const auto result = run_simulation(scenario, policy);
  const CsvTable table = result.trace.to_csv();
  // Serialize to text and parse back: same shape, same values.
  std::ostringstream out;
  write_csv(out, table);
  const CsvTable parsed = read_csv_string(out.str());
  ASSERT_EQ(parsed.header, table.header);
  ASSERT_EQ(parsed.rows.size(), table.rows.size());
  for (std::size_t k = 0; k < table.rows.size(); ++k) {
    ASSERT_EQ(parsed.rows[k].size(), table.rows[k].size());
    for (std::size_t c = 0; c < table.rows[k].size(); ++c) {
      EXPECT_NEAR(parsed.rows[k][c], table.rows[k][c],
                  1e-9 * std::max(1.0, std::abs(table.rows[k][c])));
    }
  }
}

TEST(Simulation, ColdStartBeginsFromZero) {
  Scenario scenario = quick_scenario();
  OptimalPolicy policy(scenario.idcs, 5, scenario.controller.cost_basis);
  SimulationOptions options;
  options.warm_start = false;
  const auto result = run_simulation(scenario, policy, options);
  EXPECT_DOUBLE_EQ(result.trace.total_power_w[0], 0.0);
  EXPECT_GT(result.trace.total_power_w[1], 1e6);
}

TEST(Simulation, RecordTraceOffKeepsSummaryDropsSeries) {
  Scenario scenario = quick_scenario();
  OptimalPolicy policy(scenario.idcs, 5, scenario.controller.cost_basis);
  const auto full = run_simulation(scenario, policy);
  SimulationOptions options;
  options.record_trace = false;
  OptimalPolicy policy_again(scenario.idcs, 5, scenario.controller.cost_basis);
  const auto lean = run_simulation(scenario, policy_again, options);
  // Aggregates are identical; the per-step series are gone.
  EXPECT_DOUBLE_EQ(lean.summary.total_cost.value(),
                   full.summary.total_cost.value());
  EXPECT_DOUBLE_EQ(units::as_mwh(lean.summary.total_energy),
                   units::as_mwh(full.summary.total_energy));
  EXPECT_TRUE(lean.trace.time_s.empty());
  EXPECT_TRUE(lean.trace.power_w.empty());
  EXPECT_EQ(lean.trace.policy, full.trace.policy);
}

TEST(Simulation, TelemetrySinkCountsStepsAndSolves) {
  Scenario scenario = quick_scenario();
  MpcPolicy control(CostController::Config{scenario.idcs, 5, {},
                                           scenario.controller});
  engine::RunTelemetry telemetry;
  SimulationOptions options;
  options.telemetry = &telemetry;
  run_simulation(scenario, control, options);
  const std::size_t steps = scenario.num_steps();
  EXPECT_EQ(telemetry.steps, steps);
  EXPECT_EQ(telemetry.step_hist.samples, steps);
  EXPECT_EQ(telemetry.solver_calls, steps);
  EXPECT_EQ(telemetry.status_optimal + telemetry.status_max_iterations +
                telemetry.status_infeasible,
            telemetry.solver_calls);
  EXPECT_GT(telemetry.solver_iterations, 0u);
  // Every step after the first reuses the previous stacked move.
  EXPECT_EQ(telemetry.warm_start_hits, steps - 1);
  EXPECT_NEAR(telemetry.warm_start_hit_rate(),
              static_cast<double>(steps - 1) / static_cast<double>(steps),
              1e-12);
  EXPECT_GT(telemetry.policy_s, 0.0);
  EXPECT_GT(telemetry.total_s, 0.0);
  EXPECT_GE(telemetry.total_s, telemetry.policy_s);
}

}  // namespace
}  // namespace gridctl::core
