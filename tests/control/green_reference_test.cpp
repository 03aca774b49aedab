#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "control/reference_optimizer.hpp"
#include "util/error.hpp"

namespace gridctl::control {
namespace {

datacenter::IdcConfig idc_with(std::size_t servers, double mu) {
  datacenter::IdcConfig config;
  config.max_servers = servers;
  config.power = datacenter::ServerPowerModel{
      units::Watts{150.0}, units::Watts{285.0}, units::Rps{mu}};
  config.latency_bound_s = units::Seconds{0.01};
  return config;
}

GreenReferenceProblem two_idc(double renewable0, double renewable1) {
  GreenReferenceProblem problem;
  problem.idcs = {idc_with(20000, 2.0), idc_with(20000, 2.0)};
  problem.prices = {30.0, 30.0};
  problem.portal_demands = {10000.0};
  problem.renewable_w = {renewable0, renewable1};
  return problem;
}

TEST(GreenReference, LoadFollowsRenewables) {
  // Identical IDCs and prices; IDC 0 has 2 MW of free renewables, IDC 1
  // none: everything that fits under the renewable cap goes to IDC 0.
  const auto solution = solve_green_reference(two_idc(2e6, 0.0));
  ASSERT_TRUE(solution.feasible);
  EXPECT_GT(solution.idc_loads[0], solution.idc_loads[1]);
  // 2 MW at slope 142.5 W/rps (+7.5 kW fixed) covers ~14000 req/s — all
  // 10000 fit, so brown power is ~0.
  EXPECT_NEAR(solution.idc_loads[0], 10000.0, 1.0);
  EXPECT_NEAR(solution.brown_power_w[0], 0.0, 1e3);
  // The only brown draw left is IDC 1's eq.-35 latency-margin servers
  // idling at zero load (1/(mu D) = 50 servers, 7.5 kW).
  EXPECT_NEAR(solution.brown_power_w[1], 7500.0, 1.0);
  EXPECT_LT(solution.brown_energy_fraction, 0.01);
}

TEST(GreenReference, OverflowBeyondRenewablesIsBrown) {
  // Renewables cover only ~3.45 MW-worth at IDC 0.
  auto problem = two_idc(0.5e6, 0.0);
  problem.portal_demands = {20000.0};
  const auto solution = solve_green_reference(problem);
  ASSERT_TRUE(solution.feasible);
  double brown = 0.0, total = 0.0;
  for (std::size_t j = 0; j < 2; ++j) {
    brown += solution.brown_power_w[j];
    total += solution.power_w[j];
  }
  EXPECT_GT(brown, 0.0);
  EXPECT_NEAR(solution.brown_energy_fraction, brown / total, 1e-12);
}

TEST(GreenReference, PriceBreaksTiesOnBrownPower) {
  // No renewables anywhere: reduces to cheapest-region allocation.
  auto problem = two_idc(0.0, 0.0);
  problem.prices = {50.0, 10.0};
  const auto solution = solve_green_reference(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_NEAR(solution.idc_loads[1], 10000.0, 1.0);
}

TEST(GreenReference, ExpensiveGreenBeatsCheapBrown) {
  // IDC 0: expensive electricity but big renewables; IDC 1: cheap but
  // all-brown. Brown-cost objective sends load to the renewables.
  auto problem = two_idc(3e6, 0.0);
  problem.prices = {80.0, 20.0};
  const auto solution = solve_green_reference(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_NEAR(solution.idc_loads[0], 10000.0, 1.0);
}

TEST(GreenReference, ConservationAndCapacityHold) {
  auto problem = two_idc(1e6, 1e6);
  problem.portal_demands = {30000.0};
  const auto solution = solve_green_reference(problem);
  ASSERT_TRUE(solution.feasible);
  EXPECT_TRUE(solution.allocation.conserves({units::Rps{30000.0}}, 1e-5));
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_LE(solution.idc_loads[j],
              load_cap_for_capacity(problem.idcs[j]) + 1e-6);
  }
}

TEST(GreenReference, InfeasibleDemandReported) {
  auto problem = two_idc(0.0, 0.0);
  problem.portal_demands = {1e9};
  EXPECT_FALSE(solve_green_reference(problem).feasible);
}

TEST(GreenReference, Validation) {
  GreenReferenceProblem empty;
  EXPECT_THROW(solve_green_reference(empty), InvalidArgument);
  auto bad = two_idc(0.0, 0.0);
  bad.renewable_w = {-1.0, 0.0};
  EXPECT_THROW(solve_green_reference(bad), InvalidArgument);
  auto negative_price = two_idc(0.0, 0.0);
  negative_price.prices = {-5.0, 10.0};
  EXPECT_THROW(solve_green_reference(negative_price), InvalidArgument);
}

TEST(GreenReference, NonFinitePriceNamesTheIdc) {
  // +inf passes a `price >= 0` check; NaN would break the fill's cost
  // ordering. Both are rejected, naming the IDC.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    auto problem = two_idc(0.0, 0.0);
    problem.prices[0] = bad;
    try {
      solve_green_reference(problem);
      ADD_FAILURE() << "accepted price " << bad;
    } catch (const InvalidArgument& error) {
      EXPECT_NE(std::string(error.what()).find("non-finite price at IDC 0"),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace gridctl::control
