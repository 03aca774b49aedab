// Optimal workload-allocation LP — the paper's eq. (46) (Rao et al.,
// INFOCOM'10), used two ways:
//
//  1. As the *optimal method* baseline the paper compares against: it
//     re-solves on every price/workload change and applies the result
//     instantly.
//  2. As the MPC *control reference* generator (Sec. IV-D): its solution
//     (per-IDC power) is the tracking target, clamped per-IDC to the
//     available power budget to shave peaks.
//
// The server count relaxes to the continuous eq.-35 expression inside
// the LP (cost per req/s of IDC j = Pr_j (b1_j + b0_j / mu_j)), and the
// integral m_j is recovered afterwards by the sleep rule. Power budgets
// enter as per-IDC load caps derived by inverting the power model.
//
// Every LP here is a transportation problem whose cost depends only on
// the IDC column and is piecewise-linear convex in the IDC's load, so it
// is solved exactly in O(n c + n log n), without a simplex run: the
// total demand fills per-IDC cost segments cheapest first (equal costs
// by IDC index), and the per-portal split follows the northwest-corner
// rule — portals in index order fill the loaded IDCs in the order their
// first segment was filled. The split is a transportation vertex (at
// most c + n - 1 nonzero lambda_ij), as a simplex solution would be.
#pragma once

#include <vector>

#include "datacenter/fleet.hpp"
#include "datacenter/idc.hpp"

namespace gridctl::control {

// Objective basis for the allocation LP.
//
//  - kPowerIntegral: true cost rate, Pr_j (b1_j + b0_j/mu_j) per req/s —
//    exact for heterogeneous service rates.
//  - kPriceOnly: Pr_j per req/s — ranks IDCs by price alone. This is
//    what the paper's reported Sec. V allocations actually follow (its
//    Table II service rates differ, which makes price ranking !=
//    cost-per-request ranking; see EXPERIMENTS.md). The paper scenarios
//    default to this basis to reproduce the published trajectories; the
//    ablation bench quantifies the cost gap between the two.
enum class CostBasis { kPowerIntegral, kPriceOnly };

struct ReferenceProblem {
  std::vector<datacenter::IdcConfig> idcs;
  std::vector<double> prices;           // Pr_j, $/MWh, per IDC
  std::vector<double> portal_demands;   // L_i, req/s
  // Per-IDC power budgets, watts; +inf (or empty) = unconstrained.
  std::vector<double> power_budgets_w;
  CostBasis basis = CostBasis::kPowerIntegral;
  // Demand-charge shadow pricing: when `peak_shadow_per_mwh` > 0, power
  // above the running billing-cycle peak `cycle_peak_w[j]` is priced at
  // prices[j] + peak_shadow_per_mwh, so the reference prefers loads that
  // leave every cycle peak where it is (flattening the billed peak)
  // over marginally cheaper energy that would ratchet one up. The
  // uplift is scaled by the basis's per-req/s factor, like the price.
  // The per-IDC cost stays piecewise-linear convex in the load: two
  // fill segments per IDC, split at the cycle peak's load. Empty
  // `cycle_peak_w` with a positive shadow means "no headroom anywhere"
  // (a uniform uplift — the plain ranking).
  std::vector<double> cycle_peak_w;
  double peak_shadow_per_mwh = 0.0;
};

// Working buffers of solve_reference_into, kept with the solution so a
// caller that reuses one solution reuses them too. Nothing here is part
// of the result.
struct ReferenceScratch {
  // One piece of an IDC's piecewise-linear convex cost: up to `cap`
  // req/s at `cost` per req/s. `rank` is its position before the sort
  // (the equal-cost tie-break).
  struct Segment {
    std::size_t idc;
    double cap;
    double cost;
    std::size_t rank;
  };
  std::vector<double> caps;
  std::vector<Segment> segments;
  std::vector<double> fill_loads;
  std::vector<std::size_t> fill_order;  // loaded IDCs in fill order
  std::vector<double> lambda;           // portal-major
};

struct ReferenceSolution {
  bool feasible = false;
  // True when budgets had to be dropped to serve the demand (the LP with
  // budget caps was infeasible); power then exceeds some budget.
  bool budgets_relaxed = false;
  datacenter::Allocation allocation{1, 1};
  std::vector<double> idc_loads;          // lambda_j
  std::vector<std::size_t> servers;       // m_j from eq. (35)
  std::vector<double> power_w;            // P_j(lambda_j, m_j)
  std::vector<double> reference_power_w;  // min(P_j, budget_j): MPC target
  double cost_rate_per_hour = 0.0;        // sum_j Pr_j P_j, $/h
  ReferenceScratch scratch;
};

// Throws InvalidArgument on malformed input: size mismatches, a negative
// shadow, a negative or non-finite demand (the message names the portal
// and the value), or a non-finite price (the message names the IDC).
ReferenceSolution solve_reference(const ReferenceProblem& problem);

// As solve_reference, into `solution`: every result field is overwritten
// (an infeasible problem leaves the same fields as solve_reference
// returns), and the vectors and scratch of a solution already sized for
// this problem's portal and IDC counts are reused without allocating.
void solve_reference_into(const ReferenceProblem& problem,
                          ReferenceSolution& solution);

// Largest load an IDC can carry with the latency bound met and power
// under `budget_w` (inverts P = (b1 + b0/mu) lambda + b0/(mu D)); also
// capped by the all-servers-on capacity. Returns 0 when even zero load
// (the latency-margin servers alone) busts the budget.
double load_cap_for_budget(const datacenter::IdcConfig& idc, double budget_w);

// Green variant ("greening geographical load balancing", paper ref [6]):
// each IDC has `renewable_w` of free renewable generation; only *brown*
// power (demand above the renewable supply) costs money:
//
//   minimize    sum_j Pr_j max(0, P_j(lambda_j) - renewable_j)
//   subject to  the usual conservation / capacity / non-negativity.
//
// With P_j = slope_j lambda_j + fixed_j that is two fill segments per
// IDC: free up to clamp((renewable_j - fixed_j) / slope_j, 0, cap_j),
// then Pr_j slope_j per req/s. Prices must be finite and >= 0.
struct GreenReferenceProblem {
  std::vector<datacenter::IdcConfig> idcs;
  std::vector<double> prices;          // Pr_j, $/MWh
  std::vector<double> portal_demands;  // L_i, req/s
  std::vector<double> renewable_w;     // free renewable power per IDC
};

struct GreenReferenceSolution {
  bool feasible = false;
  datacenter::Allocation allocation{1, 1};
  std::vector<double> idc_loads;
  std::vector<std::size_t> servers;
  std::vector<double> power_w;        // total power per IDC
  std::vector<double> brown_power_w;  // max(0, power - renewable)
  double brown_cost_rate_per_hour = 0.0;
  double brown_energy_fraction = 0.0;  // brown / total power
};

GreenReferenceSolution solve_green_reference(
    const GreenReferenceProblem& problem);

// Capacity cap from M_j alone (no budget).
double load_cap_for_capacity(const datacenter::IdcConfig& idc);

}  // namespace gridctl::control
