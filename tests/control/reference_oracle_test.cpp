// Cross-checks of the reference optimizer's cost-ordered fill against
// the dense simplex on the same LPs. The oracles below are test-local
// LP builds of eq. 46 (with the demand-charge peak shadow as a per-IDC
// epigraph variable) and of the green brown-power epigraph LP; the
// production path never runs the simplex.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "control/reference_optimizer.hpp"
#include "core/paper.hpp"
#include "market/regions.hpp"
#include "solvers/lp_simplex.hpp"
#include "util/random.hpp"

namespace gridctl::control {
namespace {

using linalg::Matrix;

constexpr double kInf = std::numeric_limits<double>::infinity();

// P_j(lambda) = slope_j lambda + fixed_j (continuous eq. 35).
double slope_of(const datacenter::IdcConfig& idc) {
  return idc.power.watts_per_rps() +
         idc.power.idle_w.value() / idc.power.service_rate.value();
}

double fixed_of(const datacenter::IdcConfig& idc) {
  return idc.power.idle_w.value() /
         (idc.power.service_rate.value() * idc.latency_bound_s.value());
}

// An IDC's cost as (cost per req/s, length) pieces, cheaper first.
using Pieces = std::vector<std::pair<double, double>>;

void add_piece(Pieces& pieces, double cost, double length) {
  if (length > 0.0) pieces.emplace_back(cost, length);
}

// Eq. 46: the unit cost up to the cap; with a peak shadow, the unit cost
// up to the cycle peak's load and the shadow uplift above it.
std::vector<Pieces> reference_pieces(const ReferenceProblem& problem,
                                     const std::vector<double>& caps) {
  std::vector<Pieces> pieces(problem.idcs.size());
  for (std::size_t j = 0; j < pieces.size(); ++j) {
    const auto& idc = problem.idcs[j];
    const double per_rps =
        problem.basis == CostBasis::kPowerIntegral ? slope_of(idc) : 1.0;
    const double base = problem.prices[j] * per_rps;
    if (problem.peak_shadow_per_mwh == 0.0) {
      add_piece(pieces[j], base, caps[j]);
      continue;
    }
    const double peak =
        problem.cycle_peak_w.empty() ? 0.0 : problem.cycle_peak_w[j];
    const double below = std::min(caps[j], load_cap_for_budget(idc, peak));
    add_piece(pieces[j], base, below);
    add_piece(pieces[j], base + per_rps * problem.peak_shadow_per_mwh,
              caps[j] - below);
  }
  return pieces;
}

// Walks each IDC's load through its pieces, cheaper first (the last
// piece takes any rounding excess), calling visit(j, cost, amount).
template <typename Visit>
void walk_pieces(const std::vector<Pieces>& pieces,
                 const std::vector<double>& loads, Visit visit) {
  for (std::size_t j = 0; j < pieces.size(); ++j) {
    double remaining = loads[j];
    for (std::size_t k = 0; k < pieces[j].size(); ++k) {
      const auto [cost, length] = pieces[j][k];
      const double amount =
          k + 1 == pieces[j].size() ? remaining : std::min(remaining, length);
      visit(j, cost, amount);
      remaining -= amount;
    }
  }
}

double pieces_objective(const std::vector<Pieces>& pieces,
                        const std::vector<double>& loads) {
  double objective = 0.0;
  walk_pieces(pieces, loads, [&](std::size_t, double cost, double amount) {
    objective += cost * amount;
  });
  return objective;
}

// With tied costs the LP optimum is not unique per IDC, but the load at
// every cost level is, and so is the load of an IDC that shares none of
// its levels with another IDC.
void expect_same_optimum(const std::vector<Pieces>& pieces,
                         const std::vector<double>& loads,
                         const std::vector<double>& oracle_loads,
                         double tol) {
  std::map<double, double> levels, oracle_levels;
  std::map<double, std::set<std::size_t>> idcs_at;
  walk_pieces(pieces, loads, [&](std::size_t j, double cost, double amount) {
    levels[cost] += amount;
    idcs_at[cost].insert(j);
  });
  walk_pieces(pieces, oracle_loads,
              [&](std::size_t, double cost, double amount) {
                oracle_levels[cost] += amount;
              });
  for (const auto& [cost, load] : levels) {
    EXPECT_NEAR(load, oracle_levels[cost], tol) << "cost level " << cost;
  }
  for (std::size_t j = 0; j < pieces.size(); ++j) {
    const bool unique = std::all_of(
        pieces[j].begin(), pieces[j].end(),
        [&](const auto& piece) { return idcs_at[piece.first].size() == 1; });
    if (unique) {
      EXPECT_NEAR(loads[j], oracle_loads[j], tol) << "idc " << j;
    }
  }
}

// Eq. 46 as a dense LP over [lambda_ij (portal-major) | a_j], where
// a_j >= sum_i lambda_ij - below_j is the load above the cycle peak.
solvers::LpResult simplex_allocation(const ReferenceProblem& problem,
                                     const std::vector<double>& caps) {
  const std::size_t n = problem.idcs.size();
  const std::size_t c = problem.portal_demands.size();
  solvers::LpProblem lp;
  lp.c.assign(n * c + n, 0.0);
  std::vector<double> below(caps);
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = problem.idcs[j];
    const double per_rps =
        problem.basis == CostBasis::kPowerIntegral ? slope_of(idc) : 1.0;
    for (std::size_t i = 0; i < c; ++i) {
      lp.c[i * n + j] = problem.prices[j] * per_rps;
    }
    if (problem.peak_shadow_per_mwh > 0.0) {
      lp.c[n * c + j] = per_rps * problem.peak_shadow_per_mwh;
      const double peak =
          problem.cycle_peak_w.empty() ? 0.0 : problem.cycle_peak_w[j];
      below[j] = std::min(caps[j], load_cap_for_budget(idc, peak));
    }
  }
  lp.a_eq = Matrix(c, n * c + n);
  lp.b_eq.assign(c, 0.0);
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = 0; j < n; ++j) lp.a_eq(i, i * n + j) = 1.0;
    lp.b_eq[i] = problem.portal_demands[i];
  }
  lp.a_ub = Matrix(2 * n, n * c + n);
  lp.b_ub.assign(2 * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < c; ++i) {
      lp.a_ub(j, i * n + j) = 1.0;
      lp.a_ub(n + j, i * n + j) = 1.0;
    }
    lp.b_ub[j] = caps[j];
    lp.a_ub(n + j, n * c + j) = -1.0;
    lp.b_ub[n + j] = below[j];
  }
  return solvers::solve_lp(lp);
}

struct OracleSolution {
  bool feasible = false;
  bool budgets_relaxed = false;
  std::vector<double> caps;
  Matrix lambda;
  std::vector<double> loads;
  double objective = 0.0;
};

OracleSolution simplex_reference(const ReferenceProblem& problem) {
  const std::size_t n = problem.idcs.size();
  const std::size_t c = problem.portal_demands.size();
  OracleSolution oracle;
  oracle.caps.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    oracle.caps[j] = load_cap_for_budget(
        problem.idcs[j],
        problem.power_budgets_w.empty() ? kInf : problem.power_budgets_w[j]);
  }
  auto result = simplex_allocation(problem, oracle.caps);
  if (result.status != solvers::LpStatus::kOptimal) {
    for (std::size_t j = 0; j < n; ++j) {
      oracle.caps[j] = load_cap_for_capacity(problem.idcs[j]);
    }
    result = simplex_allocation(problem, oracle.caps);
    if (result.status != solvers::LpStatus::kOptimal) return oracle;
    oracle.budgets_relaxed = true;
  }
  oracle.feasible = true;
  oracle.lambda = Matrix(c, n);
  oracle.loads.assign(n, 0.0);
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      oracle.lambda(i, j) = result.x[i * n + j];
      oracle.loads[j] += result.x[i * n + j];
    }
  }
  oracle.objective = result.objective;
  return oracle;
}

// The split is a transportation vertex: at most c + n - 1 nonzeros,
// every portal's demand conserved, no IDC above its cap.
void expect_vertex(const datacenter::Allocation& allocation,
                   const std::vector<double>& demands,
                   const std::vector<double>& caps, double tol) {
  const std::size_t c = allocation.portals();
  const std::size_t n = allocation.idcs();
  std::size_t nonzeros = 0;
  for (std::size_t i = 0; i < c; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_GE(allocation.at(i, j), 0.0);
      if (allocation.at(i, j) > 0.0) ++nonzeros;
      row += allocation.at(i, j);
    }
    EXPECT_NEAR(row, demands[i], tol) << "portal " << i;
  }
  EXPECT_LE(nonzeros, c + n - 1);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_LE(allocation.idc_load(j).value(), caps[j] + tol) << "idc " << j;
  }
}

datacenter::IdcConfig random_idc(Rng& rng) {
  static constexpr double kRates[] = {1.0, 1.25, 1.75, 2.0};
  datacenter::IdcConfig idc;
  idc.max_servers = static_cast<std::size_t>(rng.uniform_int(200, 2000));
  idc.power = datacenter::ServerPowerModel{
      units::Watts{150.0}, units::Watts{285.0},
      units::Rps{kRates[rng.uniform_int(0, 3)]}};
  idc.latency_bound_s = units::Seconds{0.01};
  return idc;
}

// Prices from a short ladder so ties are common, or drawn freely.
double random_price(Rng& rng, double lowest) {
  static constexpr double kLadder[] = {-12.0, 0.0, 18.5, 30.0, 30.0, 64.0};
  const double price = rng.bernoulli(0.5)
                           ? kLadder[rng.uniform_int(0, 5)]
                           : rng.uniform(-20.0, 90.0);
  return std::max(price, lowest);
}

// Portal demands: a share of the fleet capacity (beyond it sometimes),
// with zero-demand portals and the occasional all-zero problem.
std::vector<double> random_demands(Rng& rng, std::size_t c, double capacity) {
  std::vector<double> demands(c, 0.0);
  if (rng.bernoulli(0.05)) return demands;
  const double fill = rng.uniform(0.05, 1.1);
  std::vector<double> weights(c);
  double weight_sum = 0.0;
  for (double& weight : weights) {
    weight = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.1, 1.0);
    weight_sum += weight;
  }
  if (weight_sum == 0.0) return demands;
  for (std::size_t i = 0; i < c; ++i) {
    demands[i] = fill * capacity * weights[i] / weight_sum;
  }
  return demands;
}

ReferenceProblem random_problem(Rng& rng) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6));
  const auto c = static_cast<std::size_t>(rng.uniform_int(1, 8));
  ReferenceProblem problem;
  problem.basis =
      rng.bernoulli(0.5) ? CostBasis::kPowerIntegral : CostBasis::kPriceOnly;
  double capacity = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    problem.idcs.push_back(random_idc(rng));
    problem.prices.push_back(random_price(rng, -kInf));
    capacity += load_cap_for_capacity(problem.idcs.back());
  }
  problem.portal_demands = random_demands(rng, c, capacity);
  const auto full_power = [&](std::size_t j) {
    const auto& idc = problem.idcs[j];
    return fixed_of(idc) + slope_of(idc) * load_cap_for_capacity(idc);
  };
  if (rng.bernoulli(0.6)) {
    // Budgets from half to 1.2x each IDC's full power, some unbounded:
    // tight ones force a relaxation when the demand needs them.
    for (std::size_t j = 0; j < n; ++j) {
      problem.power_budgets_w.push_back(rng.bernoulli(0.15)
                                            ? kInf
                                            : rng.uniform(0.5, 1.2) *
                                                  full_power(j));
    }
  }
  if (rng.bernoulli(0.5)) {
    problem.peak_shadow_per_mwh = rng.uniform(1.0, 60.0);
    if (rng.bernoulli(0.8)) {
      for (std::size_t j = 0; j < n; ++j) {
        problem.cycle_peak_w.push_back(rng.uniform(0.0, 1.1) * full_power(j));
      }
    }
  }
  return problem;
}

TEST(ReferenceOracle, GreedyMatchesSimplexOnRandomProblems) {
  Rng rng(46);
  std::size_t relaxed = 0, infeasible = 0, shadowed = 0, empty = 0;
  std::size_t tied = 0, negative = 0;
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const ReferenceProblem problem = random_problem(rng);
    std::vector<double> sorted = problem.prices;
    std::sort(sorted.begin(), sorted.end());
    tied += std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
    negative += sorted.front() < 0.0;
    const auto greedy = solve_reference(problem);
    const auto oracle = simplex_reference(problem);
    ASSERT_EQ(greedy.feasible, oracle.feasible);
    if (!oracle.feasible) {
      ++infeasible;
      continue;
    }
    ASSERT_EQ(greedy.budgets_relaxed, oracle.budgets_relaxed);
    relaxed += oracle.budgets_relaxed ? 1 : 0;
    shadowed += problem.peak_shadow_per_mwh > 0.0 ? 1 : 0;

    double total = 0.0;
    for (double demand : problem.portal_demands) total += demand;
    empty += total == 0.0 ? 1 : 0;
    const double tol = 1e-9 * std::max(1.0, total);
    const auto pieces = reference_pieces(problem, oracle.caps);
    expect_same_optimum(pieces, greedy.idc_loads, oracle.loads, tol);
    double scale = 0.0;
    for (const auto& idc : pieces) {
      for (const auto& piece : idc) scale = std::max(scale, std::abs(piece.first));
    }
    EXPECT_NEAR(pieces_objective(pieces, greedy.idc_loads), oracle.objective,
                1e-9 * std::max(1.0, scale * total));
    expect_vertex(greedy.allocation, problem.portal_demands, oracle.caps, tol);
  }
  // The generator reaches every regime the comparison is meant to cover.
  EXPECT_GT(relaxed, 20u);
  EXPECT_GT(infeasible, 5u);
  EXPECT_GT(shadowed, 100u);
  EXPECT_GT(empty, 5u);
  EXPECT_GT(tied, 100u);
  EXPECT_GT(negative, 100u);
}

// Every result field of two solutions, exactly.
void expect_same_solution(const ReferenceSolution& into,
                          const ReferenceSolution& fresh) {
  EXPECT_EQ(into.feasible, fresh.feasible);
  EXPECT_EQ(into.budgets_relaxed, fresh.budgets_relaxed);
  ASSERT_EQ(into.allocation.portals(), fresh.allocation.portals());
  ASSERT_EQ(into.allocation.idcs(), fresh.allocation.idcs());
  for (std::size_t i = 0; i < fresh.allocation.portals(); ++i) {
    for (std::size_t j = 0; j < fresh.allocation.idcs(); ++j) {
      EXPECT_EQ(into.allocation.at(i, j), fresh.allocation.at(i, j))
          << i << "," << j;
    }
  }
  EXPECT_EQ(into.idc_loads, fresh.idc_loads);
  EXPECT_EQ(into.servers, fresh.servers);
  EXPECT_EQ(into.power_w, fresh.power_w);
  EXPECT_EQ(into.reference_power_w, fresh.reference_power_w);
  EXPECT_EQ(into.cost_rate_per_hour, fresh.cost_rate_per_hour);
}

TEST(ReferenceOracle, IntoAReusedSolutionMatchesAFreshOne) {
  // One solution reused across problems of different IDC and portal
  // counts, feasible or not: nothing of an earlier problem may survive
  // into a later result.
  Rng rng(46);
  ReferenceSolution reused;
  std::size_t reshaped = 0, infeasible = 0;
  std::size_t last_n = 0, last_c = 0;
  for (int trial = 0; trial < 600; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const ReferenceProblem problem = random_problem(rng);
    solve_reference_into(problem, reused);
    const ReferenceSolution fresh = solve_reference(problem);
    expect_same_solution(reused, fresh);
    if (testing::Test::HasFailure()) return;
    infeasible += fresh.feasible ? 0 : 1;
    reshaped += problem.idcs.size() != last_n ||
                        problem.portal_demands.size() != last_c
                    ? 1
                    : 0;
    last_n = problem.idcs.size();
    last_c = problem.portal_demands.size();
  }
  EXPECT_GT(reshaped, 300u);
  EXPECT_GT(infeasible, 5u);
}

TEST(ReferenceOracle, PaperHourZeroSplitIsTheSimplexVertex) {
  // The published no-budget problem at hour 0: the northwest-corner
  // split is the vertex the simplex picks, so OptimalPolicy's warm start
  // seeds the same u_prev either way.
  ReferenceProblem problem;
  problem.idcs = core::paper::paper_idcs();
  problem.portal_demands = core::paper::kPortalDemands;
  problem.basis = CostBasis::kPriceOnly;
  const auto prices = market::paper_region_traces();
  for (std::size_t j = 0; j < problem.idcs.size(); ++j) {
    problem.prices.push_back(
        prices.price(j, units::Seconds{0.0}, units::Watts{0.0}).value());
  }
  const auto solution = solve_reference(problem);
  ASSERT_TRUE(solution.feasible);
  const std::vector<std::vector<double>> expected = {{0, 0, 30000},
                                                     {0, 11000, 4000},
                                                     {0, 15000, 0},
                                                     {0, 20000, 0},
                                                     {17000, 3000, 0}};
  const auto oracle = simplex_reference(problem);
  ASSERT_TRUE(oracle.feasible);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    for (std::size_t j = 0; j < expected[i].size(); ++j) {
      EXPECT_NEAR(solution.allocation.at(i, j), expected[i][j], 1e-9)
          << "portal " << i << " idc " << j;
      EXPECT_NEAR(oracle.lambda(i, j), expected[i][j], 1e-6)
          << "portal " << i << " idc " << j;
    }
  }
}

// Today's brown-power epigraph LP over [lambda_ij | g_j]:
//   min sum_j Pr_j g_j  s.t.  slope_j lambda_j - g_j <= R_j - fixed_j.
solvers::LpResult simplex_green(const GreenReferenceProblem& problem) {
  const std::size_t n = problem.idcs.size();
  const std::size_t c = problem.portal_demands.size();
  solvers::LpProblem lp;
  lp.c.assign(n * c + n, 0.0);
  for (std::size_t j = 0; j < n; ++j) lp.c[n * c + j] = problem.prices[j];
  lp.a_eq = Matrix(c, n * c + n);
  lp.b_eq.assign(c, 0.0);
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = 0; j < n; ++j) lp.a_eq(i, i * n + j) = 1.0;
    lp.b_eq[i] = problem.portal_demands[i];
  }
  lp.a_ub = Matrix(2 * n, n * c + n);
  lp.b_ub.assign(2 * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = problem.idcs[j];
    for (std::size_t i = 0; i < c; ++i) {
      lp.a_ub(j, i * n + j) = 1.0;
      lp.a_ub(n + j, i * n + j) = slope_of(idc);
    }
    lp.b_ub[j] = load_cap_for_capacity(idc);
    lp.a_ub(n + j, n * c + j) = -1.0;
    lp.b_ub[n + j] = problem.renewable_w[j] - fixed_of(idc);
  }
  return solvers::solve_lp(lp);
}

double brown_cost(const GreenReferenceProblem& problem,
                  const std::vector<double>& loads) {
  double cost = 0.0;
  for (std::size_t j = 0; j < loads.size(); ++j) {
    const auto& idc = problem.idcs[j];
    cost += problem.prices[j] *
            std::max(0.0, slope_of(idc) * loads[j] + fixed_of(idc) -
                              problem.renewable_w[j]);
  }
  return cost;
}

TEST(ReferenceOracle, GreenGreedyMatchesEpigraphLp) {
  Rng rng(6);
  std::size_t compared = 0, infeasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 6));
    const auto c = static_cast<std::size_t>(rng.uniform_int(1, 8));
    GreenReferenceProblem problem;
    double capacity = 0.0, cost_scale = 0.0;
    std::vector<double> caps;
    // Brown cost: free up to where the renewables run out, Pr_j slope_j
    // per req/s beyond.
    std::vector<Pieces> pieces(n);
    for (std::size_t j = 0; j < n; ++j) {
      const auto idc = random_idc(rng);
      const double price = random_price(rng, 0.0);
      const double cap = load_cap_for_capacity(idc);
      const double full_power = fixed_of(idc) + slope_of(idc) * cap;
      const double renewable =
          rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 1.2) * full_power;
      const double free_load =
          std::clamp((renewable - fixed_of(idc)) / slope_of(idc), 0.0, cap);
      add_piece(pieces[j], 0.0, free_load);
      add_piece(pieces[j], price * slope_of(idc), cap - free_load);
      problem.idcs.push_back(idc);
      problem.prices.push_back(price);
      problem.renewable_w.push_back(renewable);
      caps.push_back(cap);
      capacity += cap;
      cost_scale += price * full_power;
    }
    problem.portal_demands = random_demands(rng, c, capacity);

    const auto greedy = solve_green_reference(problem);
    const auto oracle = simplex_green(problem);
    ASSERT_EQ(greedy.feasible, oracle.status == solvers::LpStatus::kOptimal);
    if (!greedy.feasible) {
      ++infeasible;
      continue;
    }
    ++compared;
    double total = 0.0;
    for (double demand : problem.portal_demands) total += demand;
    const double tol = 1e-9 * std::max(1.0, total);
    std::vector<double> oracle_loads(n, 0.0);
    for (std::size_t i = 0; i < c; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        oracle_loads[j] += oracle.x[i * n + j];
      }
    }
    expect_same_optimum(pieces, greedy.idc_loads, oracle_loads, tol);
    EXPECT_NEAR(brown_cost(problem, greedy.idc_loads),
                brown_cost(problem, oracle_loads),
                1e-9 * std::max(1.0, cost_scale));
    expect_vertex(greedy.allocation, problem.portal_demands, caps, tol);
  }
  EXPECT_GT(compared, 300u);
  EXPECT_GT(infeasible, 5u);
}

}  // namespace
}  // namespace gridctl::control
