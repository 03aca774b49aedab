#include "core/cost_controller.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/paper.hpp"
#include "core/policies.hpp"
#include "datacenter/latency.hpp"
#include "util/error.hpp"

namespace gridctl::core {
namespace {

CostController::Config paper_config(std::vector<double> budgets = {}) {
  const Scenario scenario = paper::smoothing_scenario();
  return CostController::Config{scenario.idcs, 5,
                                units::typed_vector<units::Watts>(budgets),
                                scenario.controller};
}

std::vector<units::PricePerMwh> typed_prices(const std::vector<double>& v) {
  return units::typed_vector<units::PricePerMwh>(v);
}

std::vector<units::Rps> typed_demands(const std::vector<double>& v) {
  return units::typed_vector<units::Rps>(v);
}

TEST(CostController, EveryStepConservesWorkloadAndNonNegativity) {
  CostController controller(paper_config());
  const std::vector<double> prices{49.90, 29.47, 77.97};
  for (int k = 0; k < 20; ++k) {
    const auto decision = controller.step(typed_prices(prices), typed_demands(paper::kPortalDemands));
    EXPECT_EQ(decision.mpc_status, solvers::QpStatus::kOptimal);
    EXPECT_TRUE(decision.allocation.conserves(typed_demands(paper::kPortalDemands), 1e-3))
        << "step " << k;
    EXPECT_TRUE(decision.allocation.non_negative(1e-6));
  }
}

TEST(CostController, ServersFollowEq35) {
  CostController controller(paper_config());
  const auto decision =
      controller.step(typed_prices({49.90, 29.47, 77.97}), typed_demands(paper::kPortalDemands));
  for (std::size_t j = 0; j < 3; ++j) {
    const auto& idc = controller.config().idcs[j];
    const double load = decision.allocation.idc_load(j).value();
    const std::size_t expected = std::min(
        datacenter::servers_for_latency(units::Rps{load}, idc.power.service_rate,
                                        idc.latency_bound_s),
        idc.max_servers);
    EXPECT_EQ(decision.servers[j], expected);
  }
}

TEST(CostController, LatencyBoundHeldAtEveryStep) {
  CostController controller(paper_config());
  const std::vector<double> prices{49.90, 29.47, 77.97};
  for (int k = 0; k < 15; ++k) {
    const auto decision = controller.step(typed_prices(prices), typed_demands(paper::kPortalDemands));
    for (std::size_t j = 0; j < 3; ++j) {
      const auto& idc = controller.config().idcs[j];
      const double load = decision.allocation.idc_load(j).value();
      const double capacity =
          static_cast<double>(decision.servers[j]) * idc.power.service_rate.value();
      ASSERT_GT(capacity, load);
      EXPECT_LE(1.0 / (capacity - load), idc.latency_bound_s.value() * 1.0001);
    }
  }
}

TEST(CostController, ResetToSeedsTheRamp) {
  CostController controller(paper_config());
  datacenter::Allocation seed(5, 3);
  // All workload at Wisconsin-ish split matching the 6H optimum.
  for (std::size_t i = 0; i < 5; ++i) {
    seed.at(i, 2) = paper::kPortalDemands[i] * 0.34;
    seed.at(i, 1) = paper::kPortalDemands[i] * 0.49;
    seed.at(i, 0) = paper::kPortalDemands[i] * 0.17;
  }
  controller.reset_to(seed, {9000, 40000, 20000});
  const auto decision =
      controller.step(typed_prices({49.90, 29.47, 77.97}), typed_demands(paper::kPortalDemands));
  // One step later the allocation has moved only a fraction of the
  // ~22000 req/s gap to the new optimum (smoothing), not jumped.
  EXPECT_NEAR(decision.allocation.idc_load(2).value(), 34000.0, 7000.0);
}

TEST(CostController, BudgetsCapThePowerTrajectory) {
  const std::vector<double> budgets{5.13e6, 10.26e6, 4.275e6};
  CostController controller(paper_config(budgets));
  const std::vector<double> prices{49.90, 29.47, 77.97};
  std::vector<double> final_power;
  for (int k = 0; k < 120; ++k) {
    const auto decision = controller.step(typed_prices(prices), typed_demands(paper::kPortalDemands));
    if (k == 119) final_power = decision.predicted_power_w;
  }
  ASSERT_EQ(final_power.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_LE(final_power[j], budgets[j] * 1.001) << "IDC " << j;
  }
}

TEST(CostController, PredictionModeTracksConstantWorkload) {
  auto config = paper_config();
  config.params.predict_workload = true;
  config.params.ar_order = 2;
  CostController controller(std::move(config));
  const std::vector<double> prices{49.90, 29.47, 77.97};
  CostController::Decision decision;
  for (int k = 0; k < 10; ++k) {
    decision = controller.step(typed_prices(prices), typed_demands(paper::kPortalDemands));
  }
  // Constant workload: predictions converge to the true rates.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(decision.predicted_demands[i], paper::kPortalDemands[i],
                0.01 * paper::kPortalDemands[i]);
  }
}

TEST(CostController, SlowLoopPeriodizationHoldsCountsBetweenUpdates) {
  auto config = paper_config();
  config.params.sleep_every_k_steps = 5;
  CostController controller(std::move(config));
  const std::vector<double> prices{49.90, 29.47, 77.97};
  std::vector<std::vector<std::size_t>> history;
  for (int k = 0; k < 10; ++k) {
    history.push_back(controller.step(typed_prices(prices), typed_demands(paper::kPortalDemands)).servers);
  }
  // Steps 1-4 may only raise counts relative to step 0 (safety bumps),
  // never lower them; a genuine slow update happens at step 5.
  for (int k = 1; k < 5; ++k) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_GE(history[k][j], history[0][j])
          << "step " << k << " idc " << j;
    }
  }
  // Wisconsin's load is draining, so the held count exceeds the eq.-35
  // target off-cycle and drops at the slow update.
  EXPECT_LT(history[5][2], history[4][2]);
}

TEST(CostController, SlowLoopSafetyBumpKeepsLatencyFeasible) {
  auto config = paper_config();
  config.params.sleep_every_k_steps = 50;  // effectively frozen slow loop
  CostController controller(std::move(config));
  const std::vector<double> prices{49.90, 29.47, 77.97};
  for (int k = 0; k < 20; ++k) {
    const auto decision = controller.step(typed_prices(prices), typed_demands(paper::kPortalDemands));
    for (std::size_t j = 0; j < 3; ++j) {
      const auto& idc = controller.config().idcs[j];
      const double capacity =
          static_cast<double>(decision.servers[j]) * idc.power.service_rate.value();
      const double load = decision.allocation.idc_load(j).value();
      ASSERT_GT(capacity, load);
      EXPECT_LE(1.0 / (capacity - load), idc.latency_bound_s.value() * 1.0001);
    }
  }
}

TEST(CostController, PricePreviewShiftsReferencesAhead) {
  // Current prices favor Wisconsin; the preview says Wisconsin spikes
  // next step. With the preview the first move already drains WI.
  CostController blind(paper_config());
  CostController sighted(paper_config());
  const std::vector<double> now{43.26, 30.26, 19.06};   // 6H: WI cheap
  const std::vector<std::vector<units::PricePerMwh>> preview(
      8, typed_prices({49.90, 29.47, 77.97}));           // 7H ahead

  // Warm both to the 6H optimum.
  OptimalPolicy seed(paper::paper_idcs(), 5, control::CostBasis::kPriceOnly);
  PolicyContext seed_context;
  seed_context.prices = typed_prices(now);
  seed_context.portal_demands = typed_demands(paper::kPortalDemands);
  const auto initial = seed.decide(seed_context);
  blind.reset_to(initial.allocation, initial.servers);
  sighted.reset_to(initial.allocation, initial.servers);

  const auto blind_decision = blind.step(typed_prices(now), typed_demands(paper::kPortalDemands));
  const auto sighted_decision =
      sighted.step(typed_prices(now), typed_demands(paper::kPortalDemands), preview);
  EXPECT_GT(blind_decision.allocation.idc_load(2).value() -
                sighted_decision.allocation.idc_load(2).value(),
            500.0);
}

TEST(CostController, PricePreviewValidatesRowSize) {
  CostController controller(paper_config());
  const std::vector<std::vector<units::PricePerMwh>> bad{
      typed_prices({1.0, 2.0})};  // 2 != 3 IDCs
  EXPECT_THROW(
      controller.step(typed_prices({49.9, 29.5, 78.0}), typed_demands(paper::kPortalDemands), bad),
      InvalidArgument);
}

TEST(CostController, PredictionOvershootNearCapacityIsClamped) {
  // A steep ramp toward the 122k req/s capacity makes the AR model
  // extrapolate beyond it; the reference must stay solvable (regression
  // test for the forecast-overshoot failure).
  auto config = paper_config();
  config.params.predict_workload = true;
  config.params.ar_order = 2;
  CostController controller(std::move(config));
  const std::vector<double> prices{49.90, 29.47, 77.97};
  for (int k = 0; k < 15; ++k) {
    std::vector<double> demands(5);
    const double total = 60000.0 + 4000.0 * k;  // hits ~116k, still served
    for (std::size_t i = 0; i < 5; ++i) {
      demands[i] = total * paper::kPortalDemands[i] / 100000.0;
    }
    const auto decision = controller.step(typed_prices(prices), typed_demands(demands));
    EXPECT_TRUE(decision.reference.feasible) << "step " << k;
    EXPECT_TRUE(decision.allocation.conserves(typed_demands(demands), 1e-3));
  }
}

TEST(CostController, ThrowsWhenFleetCannotServe) {
  CostController controller(paper_config());
  std::vector<double> monster(5, 1e8);
  EXPECT_THROW(controller.step(typed_prices({1.0, 1.0, 1.0}), typed_demands(monster)), InvalidArgument);
}

TEST(CostController, LoadSheddingServesCapacityFraction) {
  auto config = paper_config();
  config.params.allow_load_shedding = true;
  CostController controller(std::move(config));
  // Offer 2x the fleet capacity (~122k): about half must be shed.
  std::vector<double> monster(5, 48800.0);
  const auto decision = controller.step(typed_prices({49.90, 29.47, 77.97}), typed_demands(monster));
  EXPECT_NEAR(decision.shed_fraction, 0.5, 0.01);
  double served = 0.0;
  for (std::size_t j = 0; j < 3; ++j) {
    served += decision.allocation.idc_load(j).value();
  }
  EXPECT_NEAR(served, 122000.0, 200.0);
  EXPECT_TRUE(decision.allocation.non_negative(1e-6));
}

TEST(CostController, NoSheddingWhenDemandFits) {
  auto config = paper_config();
  config.params.allow_load_shedding = true;
  CostController controller(std::move(config));
  const auto decision =
      controller.step(typed_prices({49.90, 29.47, 77.97}), typed_demands(paper::kPortalDemands));
  EXPECT_DOUBLE_EQ(decision.shed_fraction, 0.0);
}

TEST(CostController, ReferenceTrajectoryAnticipatesDrift) {
  auto config = paper_config();
  config.params.predict_workload = true;
  config.params.reference_trajectory = true;
  config.params.ar_order = 2;
  CostController trajectory_controller(config);
  config.params.reference_trajectory = false;
  CostController flat_controller(std::move(config));

  // Linearly growing workload: the AR model learns the trend, so the
  // trajectory controller's references lead the flat controller's.
  const std::vector<double> prices{49.90, 29.47, 77.97};
  CostController::Decision with_traj, flat;
  for (int k = 0; k < 25; ++k) {
    std::vector<double> demands(paper::kPortalDemands);
    for (double& d : demands) d *= 0.8 + 0.005 * k;
    with_traj = trajectory_controller.step(typed_prices(prices), typed_demands(demands));
    flat = flat_controller.step(typed_prices(prices), typed_demands(demands));
    EXPECT_EQ(with_traj.mpc_status, solvers::QpStatus::kOptimal);
  }
  // Both still conserve the measured demand exactly.
  std::vector<double> final_demands(paper::kPortalDemands);
  for (double& d : final_demands) d *= 0.8 + 0.005 * 24;
  EXPECT_TRUE(with_traj.allocation.conserves(typed_demands(final_demands), 1e-3));
  EXPECT_TRUE(flat.allocation.conserves(typed_demands(final_demands), 1e-3));
}

TEST(CostController, ConfigValidation) {
  auto config = paper_config();
  config.portals = 0;
  EXPECT_THROW(CostController controller(config), InvalidArgument);
  config = paper_config();
  config.power_budgets_w = {units::Watts{1.0}};
  EXPECT_THROW(CostController controller(config), InvalidArgument);
  config = paper_config();
  config.params.q_weight = 0.0;
  EXPECT_THROW(CostController controller(config), InvalidArgument);
}

TEST(CostController, StepValidatesSizes) {
  CostController controller(paper_config());
  EXPECT_THROW(controller.step(typed_prices({1.0}), typed_demands(paper::kPortalDemands)),
               InvalidArgument);
  EXPECT_THROW(controller.step(typed_prices({1.0, 1.0, 1.0}), typed_demands({1.0})), InvalidArgument);
}

void expect_same_decision(const CostController::Decision& into,
                          const CostController::Decision& fresh) {
  ASSERT_EQ(into.allocation.portals(), fresh.allocation.portals());
  ASSERT_EQ(into.allocation.idcs(), fresh.allocation.idcs());
  for (std::size_t i = 0; i < fresh.allocation.portals(); ++i) {
    for (std::size_t j = 0; j < fresh.allocation.idcs(); ++j) {
      EXPECT_EQ(into.allocation.at(i, j), fresh.allocation.at(i, j));
    }
  }
  EXPECT_EQ(into.servers, fresh.servers);
  EXPECT_EQ(into.reference.feasible, fresh.reference.feasible);
  EXPECT_EQ(into.reference.idc_loads, fresh.reference.idc_loads);
  EXPECT_EQ(into.reference.reference_power_w,
            fresh.reference.reference_power_w);
  EXPECT_EQ(into.reference.cost_rate_per_hour,
            fresh.reference.cost_rate_per_hour);
  EXPECT_EQ(into.mpc_status, fresh.mpc_status);
  EXPECT_EQ(into.mpc_iterations, fresh.mpc_iterations);
  EXPECT_EQ(into.mpc_warm_started, fresh.mpc_warm_started);
  EXPECT_EQ(into.predicted_power_w, fresh.predicted_power_w);
  EXPECT_EQ(into.predicted_demands, fresh.predicted_demands);
  EXPECT_EQ(into.shed_fraction, fresh.shed_fraction);
  EXPECT_EQ(into.fallback_tier, fresh.fallback_tier);
  EXPECT_EQ(into.violations.size(), fresh.violations.size());
  EXPECT_EQ(into.invariants.checks, fresh.invariants.checks);
  EXPECT_EQ(into.invariants.by_kind, fresh.invariants.by_kind);
  EXPECT_EQ(into.battery_w, fresh.battery_w);
  EXPECT_EQ(into.battery_soc_j, fresh.battery_soc_j);
  EXPECT_EQ(into.grid_power_w, fresh.grid_power_w);
}

TEST(CostController, StepIntoAReusedDecisionMatchesTheByValueStep) {
  // Twin controllers, one stepped by value and one into a single reused
  // Decision, through price previews, a degraded period, shedding and
  // back: the reused decision must never carry a field over.
  for (const auto backend :
       {solvers::LsqBackend::kAdmm, solvers::LsqBackend::kCondensed}) {
    Scenario scenario = paper::smoothing_scenario();
    scenario.billing.demand_rate_per_kw = 15.0;
    scenario.billing.cycle_hours = 24.0;
    scenario.idcs[1].battery.capacity = units::from_mwh(2.0);
    scenario.idcs[1].battery.max_charge_w = units::Watts{1.0e6};
    scenario.idcs[1].battery.max_discharge_w = units::Watts{1.5e6};
    scenario.controller.demand_charge_aware = true;
    scenario.controller.predict_workload = true;
    scenario.controller.reference_trajectory = true;
    scenario.controller.allow_load_shedding = true;
    scenario.controller.solver.backend = backend;
    scenario.controller.solver.invariants.enabled = true;
    CostController by_value(controller_config_from(scenario));
    CostController reused(controller_config_from(scenario));
    CostController::Decision decision;
    std::vector<double> prices{49.90, 29.47, 77.97};
    std::vector<double> demands = paper::kPortalDemands;
    const std::vector<std::vector<units::PricePerMwh>> preview(
        3, typed_prices({43.26, 30.26, 19.06}));
    for (std::size_t k = 0; k < 30; ++k) {
      SCOPED_TRACE(testing::Message() << "backend "
                                      << static_cast<int>(backend) << " tick "
                                      << k);
      prices[1] = 29.47 + 6.0 * std::sin(0.3 * static_cast<double>(k));
      for (std::size_t i = 0; i < demands.size(); ++i) {
        demands[i] = paper::kPortalDemands[i] *
                     (1.0 + 0.15 * std::sin(0.2 * static_cast<double>(k + i)));
      }
      if (k == 12) demands[0] = 3.0e5;  // beyond the fleet: shed
      const auto p = typed_prices(prices);
      const auto d = typed_demands(demands);
      CostController::Decision fresh;
      if (k == 8) {
        fresh = by_value.step_degraded(p, d);
        decision = reused.step_degraded(p, d);
      } else if (k % 5 == 3) {
        fresh = by_value.step(p, d, preview);
        reused.step_into(p, d, preview, decision);
      } else {
        fresh = by_value.step(p, d);
        reused.step_into(p, d, decision);
      }
      expect_same_decision(decision, fresh);
      if (testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace gridctl::core
