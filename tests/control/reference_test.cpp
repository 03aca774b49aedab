#include "control/reference_optimizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/paper.hpp"
#include "util/error.hpp"

namespace gridctl::control {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

datacenter::IdcConfig idc_with(std::size_t servers, double mu,
                               double bound = 0.001) {
  datacenter::IdcConfig config;
  config.max_servers = servers;
  config.power = datacenter::ServerPowerModel{
      units::Watts{150.0}, units::Watts{285.0}, units::Rps{mu}};
  config.latency_bound_s = units::Seconds{bound};
  return config;
}

TEST(LoadCaps, CapacityCap) {
  // n mu - 1/D.
  EXPECT_DOUBLE_EQ(load_cap_for_capacity(idc_with(20000, 2.0)), 39000.0);
  EXPECT_DOUBLE_EQ(load_cap_for_capacity(idc_with(40000, 1.25)), 49000.0);
}

TEST(LoadCaps, BudgetCapInvertsPowerModel) {
  const auto idc = idc_with(20000, 2.0);
  // P(lambda) = (67.5 + 75) lambda + 150/(2*0.001) = 142.5 lambda + 75000.
  const double cap = load_cap_for_budget(idc, 5.13e6);
  EXPECT_NEAR(cap, (5.13e6 - 75000.0) / 142.5, 1e-6);
  // Infinite budget falls back to the capacity cap.
  EXPECT_DOUBLE_EQ(load_cap_for_budget(idc, kInf), 39000.0);
  // Budget below the fixed idle floor: zero load allowed.
  EXPECT_DOUBLE_EQ(load_cap_for_budget(idc, 1000.0), 0.0);
}

ReferenceProblem two_idc_problem() {
  ReferenceProblem problem;
  problem.idcs = {idc_with(10000, 2.0, 0.01), idc_with(10000, 2.0, 0.01)};
  problem.prices = {10.0, 50.0};
  problem.portal_demands = {5000.0, 5000.0};
  return problem;
}

TEST(ReferenceOptimizer, FillsCheapIdcFirst) {
  const auto solution = solve_reference(two_idc_problem());
  ASSERT_TRUE(solution.feasible);
  EXPECT_FALSE(solution.budgets_relaxed);
  // Cheap IDC capacity: 10000*2 - 100 = 19900 > 10000 total: all there.
  EXPECT_NEAR(solution.idc_loads[0], 10000.0, 1e-6);
  EXPECT_NEAR(solution.idc_loads[1], 0.0, 1e-6);
  EXPECT_TRUE(solution.allocation.conserves(
      {units::Rps{5000.0}, units::Rps{5000.0}}));
}

TEST(ReferenceOptimizer, OverflowsAtCapacity) {
  auto problem = two_idc_problem();
  problem.portal_demands = {15000.0, 15000.0};  // 30000 > 19900
  const auto solution = solve_reference(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_NEAR(solution.idc_loads[0], 19900.0, 1e-6);
  EXPECT_NEAR(solution.idc_loads[1], 10100.0, 1e-6);
}

TEST(ReferenceOptimizer, ServersFollowEq35) {
  const auto solution = solve_reference(two_idc_problem());
  // 10000/2 + 1/(2*0.01) = 5050.
  EXPECT_EQ(solution.servers[0], 5050u);
  EXPECT_EQ(solution.servers[1], 50u);  // margin only
}

TEST(ReferenceOptimizer, BudgetCapsShiftLoad) {
  auto problem = two_idc_problem();
  // Cap the cheap IDC so it can only carry ~half the demand.
  const double cap_power =
      idc_with(10000, 2.0, 0.01)
          .power.idc_power(units::Rps{5000.0}, 2550 /* eq35 */)
          .value();
  problem.power_budgets_w = {cap_power, kInf};
  const auto solution = solve_reference(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_FALSE(solution.budgets_relaxed);
  EXPECT_NEAR(solution.idc_loads[0], 5000.0, 2.0);
  EXPECT_NEAR(solution.idc_loads[1], 5000.0, 2.0);
  // Reference power clamped at the budget.
  EXPECT_LE(solution.reference_power_w[0], cap_power + 1e-6);
}

TEST(ReferenceOptimizer, InfeasibleBudgetsAreRelaxed) {
  auto problem = two_idc_problem();
  problem.power_budgets_w = {1.0, 1.0};  // absurd budgets
  const auto solution = solve_reference(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_TRUE(solution.budgets_relaxed);
  // Demand is still served.
  double total = 0.0;
  for (double load : solution.idc_loads) total += load;
  EXPECT_NEAR(total, 10000.0, 1e-6);
}

TEST(ReferenceOptimizer, InfeasibleDemandReported) {
  auto problem = two_idc_problem();
  problem.portal_demands = {50000.0, 50000.0};  // 100000 > 39800 capacity
  const auto solution = solve_reference(problem);
  EXPECT_FALSE(solution.feasible);
}

TEST(ReferenceOptimizer, CostBasisChangesRanking) {
  // mu = (2.0, 1.25); prices (43.26, 30.26): price-only ranks IDC 1
  // cheaper, power-integral ranks IDC 0 cheaper (43.26*142.5 <
  // 30.26*228).
  ReferenceProblem problem;
  problem.idcs = {idc_with(20000, 2.0), idc_with(40000, 1.25)};
  problem.prices = {43.26, 30.26};
  problem.portal_demands = {30000.0};

  problem.basis = CostBasis::kPriceOnly;
  const auto price_only = solve_reference(problem);
  ASSERT_TRUE(price_only.feasible);
  EXPECT_GT(price_only.idc_loads[1], 29000.0);  // fills the cheap-price IDC

  problem.basis = CostBasis::kPowerIntegral;
  const auto integral = solve_reference(problem);
  ASSERT_TRUE(integral.feasible);
  EXPECT_GT(integral.idc_loads[0], 29000.0);  // fills the cheap-energy IDC
}

TEST(ReferenceOptimizer, CostRateMatchesHandComputation) {
  ReferenceProblem problem;
  problem.idcs = {idc_with(1000, 2.0, 0.01)};
  problem.prices = {40.0};
  problem.portal_demands = {1000.0};
  const auto solution = solve_reference(problem);
  ASSERT_TRUE(solution.feasible);
  // m = 1000/2 + 50 = 550; P = 67.5*1000 + 550*150 = 150000 W.
  EXPECT_EQ(solution.servers[0], 550u);
  EXPECT_NEAR(solution.power_w[0], 150000.0, 1e-9);
  // $/h = 40 * 0.15 MW = 6.
  EXPECT_NEAR(solution.cost_rate_per_hour, 6.0, 1e-9);
}

TEST(ReferenceOptimizer, PaperSevenAmEndpoints) {
  // The headline reproduction: at the 7H prices with the price-only
  // basis, the LP reproduces the paper's reported server counts (up to
  // the eq.-35 latency margin the paper drops; see EXPERIMENTS.md).
  ReferenceProblem problem;
  problem.idcs = core::paper::paper_idcs();
  problem.prices = {49.90, 29.47, 77.97};
  problem.portal_demands = core::paper::kPortalDemands;
  problem.basis = CostBasis::kPriceOnly;
  const auto solution = solve_reference(problem);
  ASSERT_TRUE(solution.feasible);
  // Minnesota (cheapest) fills to capacity, Michigan next, Wisconsin
  // takes the remainder.
  EXPECT_NEAR(solution.idc_loads[1], 49000.0, 1.0);
  EXPECT_NEAR(solution.idc_loads[0], 39000.0, 1.0);
  EXPECT_NEAR(solution.idc_loads[2], 12000.0, 1.0);
  EXPECT_EQ(solution.servers[1], 40000u);
  EXPECT_EQ(solution.servers[0], 20000u);
}

TEST(ReferenceOptimizer, FleetScaleFillsCheapestFirst) {
  // 64 IDCs x 64 portals = 4096 allocation variables, a fleet-scale
  // fill. Prices come in tied pairs so the fill order also pins the
  // index tie-break.
  constexpr std::size_t kIdcs = 64;
  constexpr std::size_t kPortals = 64;
  ReferenceProblem problem;
  problem.basis = CostBasis::kPriceOnly;
  std::vector<double> caps(kIdcs);
  for (std::size_t j = 0; j < kIdcs; ++j) {
    const std::size_t servers = 1050 + 50 * (j % 3);
    problem.idcs.push_back(idc_with(servers, 2.0, 0.01));
    caps[j] = 2.0 * static_cast<double>(servers) - 100.0;  // n mu - 1/D
    problem.prices.push_back(20.0 + static_cast<double>((j * 37) % 64 / 2));
  }
  problem.portal_demands.assign(kPortals, 510.0);
  const double total = 510.0 * kPortals;

  // Cheapest first, ties to the lower index, each IDC up to its cap.
  std::vector<std::size_t> order(kIdcs);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return problem.prices[a] < problem.prices[b];
  });
  std::vector<double> expected(kIdcs, 0.0);
  double remaining = total;
  for (const std::size_t j : order) {
    expected[j] = std::min(caps[j], remaining);
    remaining -= expected[j];
  }
  ASSERT_EQ(remaining, 0.0);

  const auto solution = solve_reference(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_FALSE(solution.budgets_relaxed);
  double cost_rate = 0.0;
  for (std::size_t j = 0; j < kIdcs; ++j) {
    EXPECT_NEAR(solution.idc_loads[j], expected[j], 1e-9) << "idc " << j;
    EXPECT_LE(solution.idc_loads[j], caps[j] + 1e-9) << "idc " << j;
    // Eq. 35 servers (m = lambda/mu + 1/(mu D), integral here) and
    // P = 67.5 W per req/s + 150 W idle per server.
    const double servers = expected[j] / 2.0 + 50.0;
    EXPECT_EQ(solution.servers[j], static_cast<std::size_t>(servers));
    cost_rate += problem.prices[j] * (67.5 * expected[j] + 150.0 * servers);
  }
  EXPECT_TRUE(solution.allocation.non_negative());
  EXPECT_TRUE(solution.allocation.conserves(
      std::vector<units::Rps>(kPortals, units::Rps{510.0})));
  EXPECT_NEAR(solution.cost_rate_per_hour, cost_rate / 1e6,
              1e-12 * cost_rate);
}

TEST(ReferenceOptimizer, Validation) {
  ReferenceProblem problem;
  EXPECT_THROW(solve_reference(problem), InvalidArgument);
  problem = two_idc_problem();
  problem.prices = {1.0};
  EXPECT_THROW(solve_reference(problem), InvalidArgument);
  problem = two_idc_problem();
  problem.portal_demands = {-1.0};
  EXPECT_THROW(solve_reference(problem), InvalidArgument);
  problem = two_idc_problem();
  problem.power_budgets_w = {1.0};
  EXPECT_THROW(solve_reference(problem), InvalidArgument);
}

TEST(ReferenceOptimizer, NonFinitePriceNamesTheIdc) {
  // A NaN price would break the fill's cost ordering; reject every
  // non-finite price up front, naming the IDC.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), kInf,
                           -kInf}) {
    auto problem = two_idc_problem();
    problem.prices[1] = bad;
    try {
      solve_reference(problem);
      ADD_FAILURE() << "accepted price " << bad;
    } catch (const InvalidArgument& error) {
      EXPECT_NE(std::string(error.what()).find("non-finite price at IDC 1"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(ReferenceOptimizer, BadDemandNamesThePortalAndValue) {
  // A NaN demand fails `>= 0` like a negative one; both are rejected up
  // front with the portal and the value, not reported as "negative".
  const struct {
    double demand;
    const char* shown;
  } cases[] = {{std::numeric_limits<double>::quiet_NaN(), "is nan"},
               {kInf, "is inf"},
               {-5.0, "is -5"}};
  for (const auto& bad : cases) {
    auto problem = two_idc_problem();
    problem.portal_demands[1] = bad.demand;
    ReferenceSolution solution;
    try {
      solve_reference_into(problem, solution);
      ADD_FAILURE() << "accepted demand " << bad.demand;
    } catch (const InvalidArgument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("demand of portal 1"), std::string::npos) << what;
      EXPECT_NE(what.find(bad.shown), std::string::npos) << what;
      EXPECT_EQ(what.find("negative demand"), std::string::npos) << what;
    }
  }
}

TEST(ReferenceOptimizer, PeakShadowUpliftScalesWithNegativePrices) {
  // Power-integral basis: the shadow uplift is per_rps x shadow on every
  // IDC, whatever the sign of its price. IDC 0's negative price makes
  // its base cost -142.5 per req/s; a 2 $/MWh shadow adds 285 above the
  // (empty) cycle peak, so that load costs 142.5 — dearer than IDC 1's
  // flat 0.5 x 142.5 = 71.25, which therefore takes the demand.
  ReferenceProblem problem = two_idc_problem();
  problem.basis = CostBasis::kPowerIntegral;
  problem.prices = {-1.0, 0.5};
  problem.peak_shadow_per_mwh = 2.0;
  problem.cycle_peak_w = {0.0, 1e9};
  const auto solution = solve_reference(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_NEAR(solution.idc_loads[0], 0.0, 1e-9);
  EXPECT_NEAR(solution.idc_loads[1], 10000.0, 1e-9);
}

}  // namespace
}  // namespace gridctl::control
