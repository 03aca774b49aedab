#include "control/reference_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "datacenter/latency.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace gridctl::control {

using datacenter::Allocation;
using datacenter::IdcConfig;

namespace {

// Continuous eq.-35 power of IDC j as a function of its load:
//   P_j(lambda) = slope_j lambda + fixed_j,
// slope_j = b1_j + b0_j/mu_j (W per req/s), fixed_j = b0_j/(mu_j D_j).
double power_slope(const IdcConfig& idc) {
  return idc.power.watts_per_rps() +
         idc.power.idle_w.value() / idc.power.service_rate.value();
}

double power_fixed(const IdcConfig& idc) {
  return idc.power.idle_w.value() /
         (idc.power.service_rate.value() * idc.latency_bound_s.value());
}

void require_finite_prices(const std::vector<double>& prices,
                           const char* where) {
  for (std::size_t j = 0; j < prices.size(); ++j) {
    if (!std::isfinite(prices[j])) {
      throw InvalidArgument(std::string(where) + ": non-finite price at IDC " +
                            std::to_string(j));
    }
  }
}

using Segment = ReferenceScratch::Segment;

// Rejects a negative or non-finite demand, naming the portal and value.
// (A NaN fails every comparison, so a bare `demand >= 0` check would
// report it as negative.)
void require_valid_demands(const std::vector<double>& demands,
                           const char* where) {
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (!(std::isfinite(demands[i]) && demands[i] >= 0.0)) {
      throw InvalidArgument(format(
          "%s: demand of portal %zu is %g (must be finite and >= 0)", where, i,
          demands[i]));
    }
  }
}

// The cost-ordered fill and northwest-corner split of the header, over
// `scratch.segments`. Equal costs keep their order in `segments` (IDC
// index): the sort breaks cost ties by the segment's rank, which gives
// the stable order without a stable sort's temporary buffer. The last
// loaded IDC absorbs whatever rounding leaves, so every portal's demand
// is conserved. Writes the portal-major lambda into `scratch.lambda`
// and returns false when the segments cannot carry the demand.
bool fill_segments(ReferenceScratch& scratch,
                   const std::vector<double>& portal_demands, std::size_t n) {
  const std::size_t c = portal_demands.size();
  std::vector<double>& x = scratch.lambda;
  x.assign(n * c, 0.0);
  double total = 0.0;
  for (double demand : portal_demands) total += demand;
  if (total <= 0.0) return true;

  std::vector<Segment>& segments = scratch.segments;
  std::sort(segments.begin(), segments.end(),
            [](const Segment& a, const Segment& b) {
              return a.cost < b.cost || (a.cost == b.cost && a.rank < b.rank);
            });
  std::vector<double>& loads = scratch.fill_loads;
  loads.assign(n, 0.0);
  std::vector<std::size_t>& order = scratch.fill_order;
  order.clear();
  order.reserve(n);
  double remaining = total;
  for (const Segment& seg : segments) {
    const double take = std::min(seg.cap, remaining);
    if (take <= 0.0) continue;
    if (loads[seg.idc] == 0.0) order.push_back(seg.idc);
    loads[seg.idc] += take;
    remaining -= take;
    if (remaining <= 0.0) break;
  }
  if (order.empty() || remaining > 1e-9 * std::max(1.0, total)) return false;

  std::size_t k = 0;
  double left = loads[order[0]];
  for (std::size_t i = 0; i < c; ++i) {
    double demand = portal_demands[i];
    while (demand > 0.0) {
      const bool last = k + 1 == order.size();
      const double take = last ? demand : std::min(demand, left);
      x[i * n + order[k]] += take;
      demand -= take;
      left -= take;
      if (!last && left <= 0.0) left = loads[order[++k]];
    }
  }
  return true;
}

void add_segment(std::vector<Segment>& segments, std::size_t idc, double cap,
                 double cost) {
  segments.push_back({idc, cap, cost, segments.size()});
}

// Segments of the eq. 46 objective: one per IDC up to its cap at the
// unit cost. With a peak shadow (demand charges), load that fits under
// the running billing-cycle peak keeps the plain unit cost and load
// above it also pays the shadow price.
void reference_segments(const ReferenceProblem& problem,
                        ReferenceScratch& scratch) {
  const std::size_t n = problem.idcs.size();
  const std::vector<double>& caps = scratch.caps;
  std::vector<Segment>& segments = scratch.segments;
  segments.clear();
  segments.reserve(2 * n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = problem.idcs[j];
    const double per_rps = problem.basis == CostBasis::kPowerIntegral
                               ? power_slope(idc)
                               : 1.0;
    const double base_cost = problem.prices[j] * per_rps;
    if (problem.peak_shadow_per_mwh == 0.0) {
      add_segment(segments, j, caps[j], base_cost);
      continue;
    }
    const double peak =
        problem.cycle_peak_w.empty() ? 0.0 : problem.cycle_peak_w[j];
    const double below = std::min(caps[j], load_cap_for_budget(idc, peak));
    // The uplift scales with the same per-req/s factor as the price so
    // both cost bases rank the shadow consistently.
    const double uplift = per_rps * problem.peak_shadow_per_mwh;
    if (below > 0.0) add_segment(segments, j, below, base_cost);
    if (caps[j] > below) {
      add_segment(segments, j, caps[j] - below, base_cost + uplift);
    }
  }
}

// Copies the portal-major lambda into `allocation`, reshaping it only
// when the portal or IDC count changed.
void unflatten_into(const std::vector<double>& lambda, std::size_t c,
                    std::size_t n, Allocation& allocation) {
  if (allocation.portals() != c || allocation.idcs() != n) {
    allocation = Allocation(c, n);
  }
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = 0; j < n; ++j) allocation.at(i, j) = lambda[i * n + j];
  }
}

}  // namespace

double load_cap_for_capacity(const IdcConfig& idc) {
  return datacenter::capacity_for_latency(
             idc.max_servers, idc.power.service_rate, idc.latency_bound_s)
      .value();
}

double load_cap_for_budget(const IdcConfig& idc, double budget_w) {
  if (!std::isfinite(budget_w)) return load_cap_for_capacity(idc);
  const double cap = (budget_w - power_fixed(idc)) / power_slope(idc);
  return std::clamp(cap, 0.0, load_cap_for_capacity(idc));
}

ReferenceSolution solve_reference(const ReferenceProblem& problem) {
  ReferenceSolution solution;
  solve_reference_into(problem, solution);
  return solution;
}

void solve_reference_into(const ReferenceProblem& problem,
                          ReferenceSolution& solution) {
  const std::size_t n = problem.idcs.size();
  const std::size_t c = problem.portal_demands.size();
  require(n > 0, "solve_reference: need at least one IDC");
  require(c > 0, "solve_reference: need at least one portal");
  require(problem.prices.size() == n, "solve_reference: price size mismatch");
  require(problem.power_budgets_w.empty() || problem.power_budgets_w.size() == n,
          "solve_reference: budget size mismatch");
  require(problem.cycle_peak_w.empty() || problem.cycle_peak_w.size() == n,
          "solve_reference: cycle peak size mismatch");
  require(problem.peak_shadow_per_mwh >= 0.0,
          "solve_reference: negative peak shadow price");
  for (const auto& idc : problem.idcs) idc.validate();
  require_finite_prices(problem.prices, "solve_reference");
  require_valid_demands(problem.portal_demands, "solve_reference");

  const auto budget = [&](std::size_t j) {
    return problem.power_budgets_w.empty()
               ? std::numeric_limits<double>::infinity()
               : problem.power_budgets_w[j];
  };

  ReferenceScratch& scratch = solution.scratch;
  solution.feasible = false;
  solution.budgets_relaxed = false;
  scratch.caps.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    scratch.caps[j] = load_cap_for_budget(problem.idcs[j], budget(j));
  }
  reference_segments(problem, scratch);
  bool filled = fill_segments(scratch, problem.portal_demands, n);
  if (!filled) {
    // Budgets too tight for the demand: serve the workload anyway
    // (availability beats the budget) and report the relaxation.
    for (std::size_t j = 0; j < n; ++j) {
      scratch.caps[j] = load_cap_for_capacity(problem.idcs[j]);
    }
    reference_segments(problem, scratch);
    filled = fill_segments(scratch, problem.portal_demands, n);
    solution.budgets_relaxed = filled;
  }
  if (!filled) {
    // Demand exceeds fleet capacity: the fields of a default solution.
    if (solution.allocation.portals() != 1 || solution.allocation.idcs() != 1) {
      solution.allocation = Allocation(1, 1);
    }
    solution.allocation.at(0, 0) = 0.0;
    solution.idc_loads.clear();
    solution.servers.clear();
    solution.power_w.clear();
    solution.reference_power_w.clear();
    solution.cost_rate_per_hour = 0.0;
    return;
  }

  solution.feasible = true;
  unflatten_into(scratch.lambda, c, n, solution.allocation);
  solution.allocation.idc_loads_into(solution.idc_loads);
  solution.servers.resize(n);
  solution.power_w.resize(n);
  solution.reference_power_w.resize(n);
  double cost_rate_w_price = 0.0;  // watts x $/MWh
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = problem.idcs[j];
    const std::size_t m = std::min(
        datacenter::servers_for_latency(units::Rps{solution.idc_loads[j]},
                                        idc.power.service_rate,
                                        idc.latency_bound_s),
        idc.max_servers);
    solution.servers[j] = m;
    solution.power_w[j] =
        idc.power.idc_power(units::Rps{solution.idc_loads[j]}, m).value();
    solution.reference_power_w[j] = std::min(solution.power_w[j], budget(j));
    cost_rate_w_price += problem.prices[j] * solution.power_w[j];
  }
  // watts * $/MWh -> $/h: P[W] x 1h = P/1e6 MWh.
  solution.cost_rate_per_hour = cost_rate_w_price / units::kWattsPerMegawatt;
}

GreenReferenceSolution solve_green_reference(
    const GreenReferenceProblem& problem) {
  const std::size_t n = problem.idcs.size();
  const std::size_t c = problem.portal_demands.size();
  require(n > 0 && c > 0, "solve_green_reference: empty problem");
  require(problem.prices.size() == n && problem.renewable_w.size() == n,
          "solve_green_reference: per-IDC vector size mismatch");
  for (const auto& idc : problem.idcs) idc.validate();
  for (double renewable : problem.renewable_w) {
    require(renewable >= 0.0, "solve_green_reference: negative renewables");
  }
  require_finite_prices(problem.prices, "solve_green_reference");
  for (double price : problem.prices) {
    require(price >= 0.0,
            "solve_green_reference: negative prices make the brown-power "
            "epigraph unbounded; use solve_reference for negative LMPs");
  }

  // Brown cost of IDC j: Pr_j max(0, slope_j lambda + fixed_j - R_j).
  // Load up to where the renewables run out is free; beyond it each
  // req/s costs Pr_j slope_j. Convex for Pr_j >= 0, so the fill is exact.
  ReferenceScratch scratch;
  std::vector<Segment>& segments = scratch.segments;
  segments.reserve(2 * n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = problem.idcs[j];
    const double cap = load_cap_for_capacity(idc);
    const double slope = power_slope(idc);
    const double renewable_load =
        slope > 0.0 ? std::clamp(
                          (problem.renewable_w[j] - power_fixed(idc)) / slope,
                          0.0, cap)
                    : cap;
    if (renewable_load > 0.0) add_segment(segments, j, renewable_load, 0.0);
    if (cap > renewable_load) {
      add_segment(segments, j, cap - renewable_load, problem.prices[j] * slope);
    }
  }
  GreenReferenceSolution solution;
  if (!fill_segments(scratch, problem.portal_demands, n)) return solution;

  solution.feasible = true;
  unflatten_into(scratch.lambda, c, n, solution.allocation);
  solution.allocation.idc_loads_into(solution.idc_loads);
  solution.servers.resize(n);
  solution.power_w.resize(n);
  solution.brown_power_w.resize(n);
  double brown_cost = 0.0, total_power = 0.0, brown_power = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = problem.idcs[j];
    solution.servers[j] = std::min(
        datacenter::servers_for_latency(units::Rps{solution.idc_loads[j]},
                                        idc.power.service_rate,
                                        idc.latency_bound_s),
        idc.max_servers);
    solution.power_w[j] =
        idc.power.idc_power(units::Rps{solution.idc_loads[j]},
                            solution.servers[j])
            .value();
    solution.brown_power_w[j] =
        std::max(0.0, solution.power_w[j] - problem.renewable_w[j]);
    brown_cost += problem.prices[j] * solution.brown_power_w[j];
    total_power += solution.power_w[j];
    brown_power += solution.brown_power_w[j];
  }
  solution.brown_cost_rate_per_hour = brown_cost / units::kWattsPerMegawatt;
  solution.brown_energy_fraction =
      total_power > 0.0 ? brown_power / total_power : 0.0;
  return solution;
}

}  // namespace gridctl::control
