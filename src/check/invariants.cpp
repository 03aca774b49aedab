#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>

#include "control/reference_optimizer.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridctl::check {

using datacenter::Allocation;
using datacenter::IdcConfig;

const char* invariant_name(Invariant kind) {
  switch (kind) {
    case Invariant::kConservation: return "conservation";
    case Invariant::kNonNegativity: return "non_negativity";
    case Invariant::kBudget: return "budget";
    case Invariant::kServerBound: return "server_bound";
    case Invariant::kFinite: return "finite";
    case Invariant::kSocBounds: return "soc_bounds";
    case Invariant::kRouteExactlyOnce: return "route_exactly_once";
  }
  return "unknown";
}

const char* fallback_tier_name(FallbackTier tier) {
  switch (tier) {
    case FallbackTier::kNone: return "none";
    case FallbackTier::kBackendRetry: return "backend_retry";
    case FallbackTier::kHoldLastFeasible: return "hold_last_feasible";
  }
  return "unknown";
}

std::string describe(const std::vector<Violation>& violations) {
  std::string text;
  for (const Violation& violation : violations) {
    if (!text.empty()) text += "; ";
    text += format("%s[%zu]: ", invariant_name(violation.kind),
                   violation.index);
    text += violation.detail;
  }
  return text;
}

units::Watts continuous_power_w(const IdcConfig& idc, units::Rps lambda) {
  const double slope = idc.power.watts_per_rps() +
                       idc.power.idle_w.value() / idc.power.service_rate.value();
  return units::Watts{slope * lambda.value() +
                      idc.power.idle_w.value() /
                          (idc.power.service_rate.value() *
                           idc.latency_bound_s.value())};
}

std::vector<double> effective_load_caps(
    const std::vector<IdcConfig>& idcs,
    const std::vector<units::Watts>& power_budgets_w,
    bool budget_hard_constraints, const std::vector<double>& served_demands) {
  std::vector<double> caps, scratch;
  effective_load_caps_into(idcs, power_budgets_w, budget_hard_constraints,
                           served_demands, caps, scratch);
  return caps;
}

void effective_load_caps_into(const std::vector<IdcConfig>& idcs,
                              const std::vector<units::Watts>& power_budgets_w,
                              bool budget_hard_constraints,
                              const std::vector<double>& served_demands,
                              std::vector<double>& caps,
                              std::vector<double>& scratch) {
  const std::size_t n = idcs.size();
  caps.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    caps[j] = control::load_cap_for_capacity(idcs[j]);
  }
  if (budget_hard_constraints && !power_budgets_w.empty()) {
    double total_demand = 0.0;
    for (double demand : served_demands) total_demand += demand;
    double total_cap = 0.0;
    std::vector<double>& budget_caps = scratch;
    budget_caps.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      budget_caps[j] =
          control::load_cap_for_budget(idcs[j], power_budgets_w[j].value());
      total_cap += budget_caps[j];
    }
    if (total_cap >= total_demand) caps.swap(budget_caps);
  }
}

InvariantChecker::InvariantChecker(std::vector<IdcConfig> idcs,
                                   std::size_t portals,
                                   std::vector<units::Watts> power_budgets_w,
                                   bool budget_hard_constraints,
                                   control::SleepControllerOptions sleep,
                                   CheckOptions options)
    : idcs_(std::move(idcs)),
      portals_(portals),
      budgets_(std::move(power_budgets_w)),
      budget_hard_(budget_hard_constraints),
      ramp_limited_(sleep.max_ramp_per_step > 0),
      options_(options),
      sleep_(idcs_, sleep) {
  require(!idcs_.empty(), "InvariantChecker: need at least one IDC");
  require(portals_ > 0, "InvariantChecker: need at least one portal");
  require(budgets_.empty() || budgets_.size() == idcs_.size(),
          "InvariantChecker: budget size mismatch");
  require(options_.conservation_tol > 0.0 && options_.budget_tol > 0.0 &&
              options_.nonneg_tol_rps >= 0.0,
          "InvariantChecker: tolerances must be positive");
}

std::vector<Violation> InvariantChecker::check(
    const Allocation& allocation, const std::vector<std::size_t>& servers,
    const std::vector<double>& predicted_power_w,
    const std::vector<double>& served_demands,
    const std::vector<double>& battery_soc_j,
    const std::vector<double>& battery_w) {
  std::vector<Violation> violations;
  check_into(allocation, servers, predicted_power_w, served_demands,
             battery_soc_j, battery_w, violations);
  return violations;
}

void InvariantChecker::check_into(const Allocation& allocation,
                                  const std::vector<std::size_t>& servers,
                                  const std::vector<double>& predicted_power_w,
                                  const std::vector<double>& served_demands,
                                  const std::vector<double>& battery_soc_j,
                                  const std::vector<double>& battery_w,
                                  std::vector<Violation>& violations) {
  const std::size_t n = idcs_.size();
  require(allocation.portals() == portals_ && allocation.idcs() == n,
          "InvariantChecker: allocation shape mismatch");
  require(servers.size() == n, "InvariantChecker: server vector size mismatch");
  require(served_demands.size() == portals_,
          "InvariantChecker: demand size mismatch");
  require(battery_soc_j.empty() || battery_soc_j.size() == n,
          "InvariantChecker: battery SoC size mismatch");
  require(battery_w.empty() || battery_w.size() == n,
          "InvariantChecker: battery power size mismatch");

  violations.clear();
  const auto flag = [&](Invariant kind, std::size_t index, double magnitude,
                        std::string detail) {
    ++counts_.by_kind[static_cast<std::size_t>(kind)];
    violations.push_back(
        Violation{kind, index, magnitude, std::move(detail)});
  };
  ++counts_.checks;

  // Finiteness first: a NaN poisons every comparison below (and would
  // silently pass them — NaN compares false), so flag and bail per IDC.
  bool finite = true;
  for (std::size_t i = 0; i < portals_; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (!std::isfinite(allocation.at(i, j))) {
        flag(Invariant::kFinite, j, 0.0,
             format("lambda(%zu,%zu) is not finite", i, j));
        finite = false;
      }
    }
  }
  for (std::size_t j = 0; j < predicted_power_w.size(); ++j) {
    if (!std::isfinite(predicted_power_w[j])) {
      flag(Invariant::kFinite, j, 0.0,
           format("predicted power of IDC %zu is not finite", j));
      finite = false;
    }
  }
  if (finite) {
    // Portal simplex: sum_j lambda_ij = lambda_i within tolerance and
    // every entry non-negative.
    for (std::size_t i = 0; i < portals_; ++i) {
      const double row = allocation.portal_load(i).value();
      const double scale = std::max(1.0, std::abs(served_demands[i]));
      const double gap = std::abs(row - served_demands[i]);
      if (gap > options_.conservation_tol * scale) {
        flag(Invariant::kConservation, i, gap,
             format("portal %zu allocates %.6g req/s of %.6g demanded", i,
                    row, served_demands[i]));
      }
      for (std::size_t j = 0; j < n; ++j) {
        const double value = allocation.at(i, j);
        if (value < -options_.nonneg_tol_rps) {
          flag(Invariant::kNonNegativity, j, -value,
               format("lambda(%zu,%zu) = %.6g < 0", i, j, value));
        }
      }
    }

    // Clamped power caps: both the applied load and the predicted power
    // must respect the caps the controller enforced this period.
    effective_load_caps_into(idcs_, budgets_, budget_hard_, served_demands,
                             caps_, caps_scratch_);
    const std::vector<double>& caps = caps_;
    allocation.idc_loads_into(loads_);
    const std::vector<double>& loads = loads_;
    for (std::size_t j = 0; j < n; ++j) {
      const double load_slack = options_.budget_tol * std::max(1.0, caps[j]);
      if (loads[j] > caps[j] + load_slack) {
        flag(Invariant::kBudget, j, loads[j] - caps[j],
             format("IDC %zu load %.6g req/s exceeds its cap %.6g", j,
                    loads[j], caps[j]));
      }
      if (j < predicted_power_w.size()) {
        const double cap_power =
            continuous_power_w(idcs_[j], units::Rps{caps[j]}).value();
        const double allowed =
            cap_power * (1.0 + options_.budget_tol) + 1.0;  // +1 W absolute
        if (predicted_power_w[j] > allowed) {
          flag(Invariant::kBudget, j, predicted_power_w[j] - cap_power,
               format("IDC %zu predicted power %.6g W exceeds the clamped "
                      "cap %.6g W",
                      j, predicted_power_w[j], cap_power));
        }
      }
    }

    // Battery SoC bounds and power limits, per IDC with storage. The
    // dispatcher keeps SoC in [min, max]·capacity by construction; the
    // checker re-derives it from the decision like every other
    // invariant. Tolerance is relative to the capacity (resp. power
    // limit) — the same headroom philosophy as the budget check.
    if (!battery_soc_j.empty()) {
      for (std::size_t j = 0; j < n; ++j) {
        const auto& battery = idcs_[j].battery;
        if (!battery.present()) continue;
        const double cap = battery.capacity.value();
        const double soc = battery_soc_j[j];
        if (!std::isfinite(soc)) {
          flag(Invariant::kSocBounds, j, 0.0,
               format("IDC %zu battery SoC is not finite", j));
          continue;
        }
        const double soc_slack = options_.budget_tol * cap;
        const double lo = battery.min_soc * cap;
        const double hi = battery.max_soc * cap;
        if (soc < lo - soc_slack || soc > hi + soc_slack) {
          flag(Invariant::kSocBounds, j,
               soc < lo ? lo - soc : soc - hi,
               format("IDC %zu battery SoC %.6g J outside [%.6g, %.6g]", j,
                      soc, lo, hi));
        }
        if (j < battery_w.size() && std::isfinite(battery_w[j])) {
          const double limit = battery_w[j] >= 0.0
                                   ? battery.max_discharge_w.value()
                                   : battery.max_charge_w.value();
          const double allowed =
              limit * (1.0 + options_.budget_tol) + 1.0;  // +1 W absolute
          if (std::abs(battery_w[j]) > allowed) {
            flag(Invariant::kSocBounds, j, std::abs(battery_w[j]) - limit,
                 format("IDC %zu battery power %.6g W exceeds its %.6g W "
                        "limit",
                        j, battery_w[j], limit));
          }
        } else if (j < battery_w.size()) {
          flag(Invariant::kSocBounds, j, 0.0,
               format("IDC %zu battery power is not finite", j));
        }
      }
    }

    // Eq. (35) lower bound: enough servers for the applied load (skipped
    // under a ramp limit — the slow loop may legitimately lag).
    if (!ramp_limited_) {
      for (std::size_t j = 0; j < n; ++j) {
        const double load = std::max(0.0, loads[j]);
        const std::size_t bound = sleep_.target_servers(j, load);
        if (servers[j] < bound) {
          flag(Invariant::kServerBound, j,
               static_cast<double>(bound - servers[j]),
               format("IDC %zu holds %zu servers, eq. (35) requires %zu at "
                      "%.6g req/s",
                      j, servers[j], bound, load));
        }
      }
    }
  }

  if (!violations.empty() && options_.strict) {
    throw InvariantViolationError("invariant violation: " +
                                  describe(violations));
  }
}

}  // namespace gridctl::check
