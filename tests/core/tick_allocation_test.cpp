// Pins the zero-allocation property of a full control period: with one
// Decision reused across periods, CostController::step_into on the
// condensed backend performs no heap allocation after warm-up — with
// workload prediction, trajectory references, demand-charge billing, a
// battery and the invariant checker all on. The predictor's observe +
// predict_into and solve_reference_into on a warmed solution are pinned
// on their own. Global operator new/delete are replaced with counting
// versions, so this test lives in its own binary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <new>
#include <vector>

#include "control/reference_optimizer.hpp"
#include "core/cost_controller.hpp"
#include "core/paper.hpp"
#include "workload/predictor.hpp"

namespace {

std::size_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocations;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gridctl::core {
namespace {

// The paper fleet under a demand charge, with a battery at every IDC and
// every per-period feature of the controller switched on.
Scenario full_featured_scenario() {
  Scenario scenario = paper::smoothing_scenario();
  scenario.billing.demand_rate_per_kw = 15.0;
  scenario.billing.cycle_hours = 24.0;
  for (auto& idc : scenario.idcs) {
    idc.battery.capacity = units::from_mwh(2.0);
    idc.battery.max_charge_w = units::Watts{1.0e6};
    idc.battery.max_discharge_w = units::Watts{1.5e6};
  }
  ControllerParams& params = scenario.controller;
  params.demand_charge_aware = true;
  params.predict_workload = true;
  params.reference_trajectory = true;
  params.solver.backend = solvers::LsqBackend::kCondensed;
  params.solver.invariants.enabled = true;
  return scenario;
}

// Period k's inputs, written in place: a slow drift of every portal's
// demand and one moving price.
void fill_inputs(std::size_t k, std::vector<units::PricePerMwh>& prices,
                 std::vector<units::Rps>& demands) {
  const double base_prices[] = {49.90, 29.47, 77.97};
  for (std::size_t j = 0; j < prices.size(); ++j) {
    prices[j] = units::PricePerMwh{base_prices[j]};
  }
  prices[1] = units::PricePerMwh{29.47 + 8.0 * std::sin(0.05 * k)};
  for (std::size_t i = 0; i < demands.size(); ++i) {
    demands[i] = units::Rps{paper::kPortalDemands[i] *
                            (1.0 + 0.1 * std::sin(0.07 * k + 0.3 * i))};
  }
}

TEST(TickAllocation, CondensedStepIntoIsAllocationFreeAfterWarmup) {
  const Scenario scenario = full_featured_scenario();
  CostController controller(controller_config_from(scenario));
  std::vector<units::PricePerMwh> prices(scenario.num_idcs());
  std::vector<units::Rps> demands(scenario.num_portals());
  CostController::Decision decision;

  constexpr std::size_t kWarmup = 20;
  for (std::size_t k = 0; k < kWarmup; ++k) {
    fill_inputs(k, prices, demands);
    controller.step_into(prices, demands, decision);
  }
  ASSERT_FALSE(decision.battery_soc_j.empty());
  ASSERT_NE(controller.billing_meter(), nullptr);
  ASSERT_EQ(decision.invariants.checks, 1u);

  for (std::size_t k = kWarmup; k < kWarmup + 40; ++k) {
    fill_inputs(k, prices, demands);
    const std::size_t before = g_allocations;
    controller.step_into(prices, demands, decision);
    const std::size_t during = g_allocations - before;
    ASSERT_EQ(decision.fallback_tier, check::FallbackTier::kNone)
        << "tick " << k;
    EXPECT_GT(decision.mpc_iterations, 0u) << "tick " << k;
    EXPECT_EQ(during, 0u) << "step_into allocated " << during
                          << " times at tick " << k;
  }
  EXPECT_TRUE(decision.violations.empty());

  // The by-value step builds a fresh Decision, so the counter sees it.
  const std::size_t before = g_allocations;
  const CostController::Decision fresh = controller.step(prices, demands);
  EXPECT_GT(g_allocations - before, 0u);
  EXPECT_EQ(fresh.allocation.portals(), scenario.num_portals());
}

TEST(TickAllocation, PredictorObserveAndPredictIntoAreAllocationFree) {
  workload::ArPredictor predictor(3);
  std::vector<double> trajectory(8);
  const std::size_t before = g_allocations;
  for (int k = 0; k < 200; ++k) {
    predictor.observe(1000.0 + 200.0 * std::sin(0.1 * k));
    predictor.predict_into(trajectory);
  }
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_TRUE(predictor.warmed_up());
}

TEST(TickAllocation, ReferenceIntoAWarmedSolutionIsAllocationFree) {
  control::ReferenceProblem problem;
  problem.idcs = paper::paper_idcs();
  problem.prices = {49.90, 29.47, 77.97};
  problem.portal_demands = paper::kPortalDemands;
  problem.power_budgets_w.assign(std::begin(paper::kPowerBudgetsW),
                                 std::end(paper::kPowerBudgetsW));
  problem.peak_shadow_per_mwh = 12.0;
  problem.cycle_peak_w = {4.0e6, 6.0e6, 3.0e6};
  control::ReferenceSolution solution;
  control::solve_reference_into(problem, solution);
  ASSERT_TRUE(solution.feasible);

  const std::size_t before = g_allocations;
  for (int k = 0; k < 20; ++k) {
    problem.portal_demands[0] = paper::kPortalDemands[0] * (0.5 + 0.05 * k);
    control::solve_reference_into(problem, solution);
    ASSERT_TRUE(solution.feasible);
  }
  EXPECT_EQ(g_allocations - before, 0u);
}

TEST(TickAllocation, CountersSeeAllocations) {
  // Sanity-check the instrumentation itself.
  const std::size_t before = g_allocations;
  auto* v = new std::vector<double>(128);
  EXPECT_GT(g_allocations, before);
  delete v;
}

}  // namespace
}  // namespace gridctl::core
