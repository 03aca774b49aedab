#include "core/cost_controller.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridctl::core {

using control::MpcPlant;
using datacenter::Allocation;
using linalg::Matrix;
using linalg::Vector;

namespace {

// Internal normalization: the QP works in megawatts and kilo-req/s so
// tracking residuals, move penalties and constraint rows are all O(1) —
// watts against req/s would spread 11 orders of magnitude across the
// Hessian and stall the iterative solver.
constexpr double kRpsScale = 1e3;   // 1 input unit = 1000 req/s
constexpr double kPowerScale = 1e6; // 1 output unit = 1 MW

// out = s·in, elementwise: linalg::scale into a reused buffer.
void scale_into(std::vector<double>& out, const std::vector<double>& in,
                double s) {
  out.resize(in.size());
  for (std::size_t k = 0; k < in.size(); ++k) out[k] = in[k] * s;
}

// Degradation tier 2: re-apply the previous allocation, projected onto
// the current constraint set — conservation against the live demand,
// non-negativity, and the per-IDC load caps. Returns false when the
// projection cannot be made feasible (caller falls back to the
// reference split).
bool project_hold_allocation(const Allocation& previous,
                             const Allocation& reference,
                             const std::vector<double>& served_demands,
                             const std::vector<double>& caps,
                             Allocation& out) {
  const std::size_t c = previous.portals();
  const std::size_t n = previous.idcs();
  Vector u = previous.flatten();
  for (double& v : u) v = std::max(v, 0.0);
  for (std::size_t i = 0; i < c; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) row_sum += u[i * n + j];
    if (row_sum > 0.0) {
      const double factor = served_demands[i] / row_sum;
      for (std::size_t j = 0; j < n; ++j) u[i * n + j] *= factor;
    } else if (served_demands[i] > 0.0) {
      // Degenerate all-zero row: seed from the reference split.
      for (std::size_t j = 0; j < n; ++j) u[i * n + j] = reference.at(i, j);
    }
  }
  // Rescaling can push an IDC over its cap; shave the worst offender
  // back to its cap and hand the freed load to IDCs with slack,
  // weighted by slack. Moving load never breaks conservation (each
  // portal's freed amount is redistributed in full), so a few passes
  // converge whenever the caps are jointly feasible for the demand.
  for (int pass = 0; pass < 8; ++pass) {
    std::vector<double> loads(n, 0.0);
    for (std::size_t i = 0; i < c; ++i) {
      for (std::size_t j = 0; j < n; ++j) loads[j] += u[i * n + j];
    }
    std::size_t worst = n;
    double worst_excess = 1e-9;
    for (std::size_t j = 0; j < n; ++j) {
      const double excess = loads[j] - caps[j];
      if (excess > worst_excess) {
        worst = j;
        worst_excess = excess;
      }
    }
    if (worst == n) {
      out = Allocation::unflatten(u, c, n);
      return true;
    }
    double total_slack = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k != worst) total_slack += std::max(caps[k] - loads[k], 0.0);
    }
    if (total_slack < worst_excess) return false;
    const double shrink = caps[worst] / loads[worst];
    for (std::size_t i = 0; i < c; ++i) {
      const double freed = u[i * n + worst] * (1.0 - shrink);
      u[i * n + worst] *= shrink;
      for (std::size_t k = 0; k < n; ++k) {
        if (k == worst) continue;
        const double slack = std::max(caps[k] - loads[k], 0.0);
        u[i * n + k] += freed * slack / total_slack;
      }
    }
  }
  return false;
}

}  // namespace

void CostController::Config::validate() const {
  require(!idcs.empty(), "CostController: need at least one IDC");
  require(portals > 0, "CostController: need at least one portal");
  for (const auto& idc : idcs) idc.validate();
  require(power_budgets_w.empty() || power_budgets_w.size() == idcs.size(),
          "CostController: budget size mismatch");
  for (std::size_t j = 0; j < power_budgets_w.size(); ++j) {
    // +inf (unconstrained) is allowed; NaN and non-positive budgets are
    // config errors to reject up front, not mid-run.
    require(!std::isnan(power_budgets_w[j].value()),
            format("CostController: power budget of IDC %zu is NaN", j));
    require(power_budgets_w[j] > units::Watts::zero(),
            format("CostController: power budget of IDC %zu must be "
                   "positive (got %g W)",
                   j, power_budgets_w[j].value()));
  }
  params.horizons.validate();
  require(std::isfinite(params.q_weight) && params.q_weight > 0.0,
          "CostController: q_weight must be positive and finite");
  require(std::isfinite(params.r_weight) && params.r_weight >= 0.0,
          "CostController: r_weight must be >= 0 and finite");
  require(params.solver.invariants.conservation_tol > 0.0 &&
              params.solver.invariants.budget_tol > 0.0 &&
              params.solver.invariants.nonneg_tol_rps >= 0.0,
          "CostController: invariant tolerances must be positive");
  billing.validate();
  require(period_s > units::Seconds::zero(),
          "CostController: period_s must be positive");
  require(std::isfinite(params.peak_shadow_weight) &&
              params.peak_shadow_weight >= 0.0,
          "CostController: peak_shadow_weight must be >= 0 and finite");
  require(params.battery_ewma_alpha > 0.0 && params.battery_ewma_alpha <= 1.0,
          "CostController: battery_ewma_alpha must be in (0, 1]");
}

CostController::CostController(Config config)
    : config_(std::move(config)),
      sleep_(config_.idcs, config_.params.sleep),
      allocation_(config_.portals == 0 ? 1 : config_.portals,
                  config_.idcs.empty() ? 1 : config_.idcs.size()),
      servers_(config_.idcs.size(), 0) {
  config_.validate();
  ref_problem_.idcs = config_.idcs;
  ref_problem_.prices.assign(config_.idcs.size(), 0.0);
  ref_problem_.power_budgets_w = units::raw_vector(config_.power_budgets_w);
  ref_problem_.basis = config_.params.cost_basis;
  if (config_.params.predict_workload) {
    predictors_.assign(config_.portals,
                       workload::ArPredictor(config_.params.ar_order));
  }
  control::MpcConfig mpc_config;
  mpc_config.horizons = config_.params.horizons;
  mpc_config.weights.q.assign(config_.idcs.size(), config_.params.q_weight);
  mpc_config.weights.r.assign(config_.portals * config_.idcs.size(),
                              config_.params.r_weight);
  mpc_config.backend = config_.params.solver.backend;
  mpc_config.max_solver_iterations = config_.params.solver.max_iterations;
  mpc_config.backend_fallback = config_.params.solver.fallback;
  mpc_config.factor_cache = config_.factor_cache;
  // Constraints are installed per step in structured TransportConstraints
  // form (the conservation right-hand side follows the live workload);
  // the controller never materializes the dense conservation/cap rows
  // unless a dense backend or a fallback solve asks for them.
  mpc_ = std::make_unique<control::MpcController>(build_plant(),
                                                  std::move(mpc_config));
  if (config_.params.solver.invariants.enabled) {
    checker_.emplace(config_.idcs, config_.portals, config_.power_budgets_w,
                     config_.params.budget_hard_constraints,
                     config_.params.sleep, config_.params.solver.invariants);
  }
  if (config_.billing.any() && config_.params.demand_charge_aware) {
    billing_.emplace(config_.billing, config_.idcs.size(),
                     config_.start_time_s);
  }
  for (const auto& idc : config_.idcs) {
    if (idc.battery.present()) battery_active_ = true;
  }
  if (battery_active_) {
    battery_soc_j_.assign(config_.idcs.size(), 0.0);
    for (std::size_t j = 0; j < config_.idcs.size(); ++j) {
      const auto& battery = config_.idcs[j].battery;
      if (battery.present()) {
        battery_soc_j_[j] = battery.initial_soc * battery.capacity.value();
      }
    }
  }
}

MpcPlant CostController::build_plant() const {
  const std::size_t n = config_.idcs.size();
  const std::size_t c = config_.portals;
  MpcPlant plant;
  // Stateless power-tracking plant: the tracked output is per-IDC power
  // *after the slow loop reacts*, i.e. with the continuous eq.-35 server
  // count m(lambda) = lambda/mu + 1/(mu D):
  //   P_j = (b1_j + b0_j/mu_j) lambda_j + b0_j / (mu_j D_j).
  plant.c_u = Matrix(n, n * c);
  plant.y0.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = config_.idcs[j];
    const double slope_w_per_rps =
        idc.power.watts_per_rps() +
        idc.power.idle_w.value() / idc.power.service_rate.value();
    const double slope = slope_w_per_rps * kRpsScale / kPowerScale;
    for (std::size_t i = 0; i < c; ++i) plant.c_u(j, i * n + j) = slope;
    plant.y0[j] = idc.power.idle_w.value() /
                  (idc.power.service_rate.value() *
                   idc.latency_bound_s.value()) /
                  kPowerScale;
  }
  return plant;
}

void CostController::fill_constraints(
    const std::vector<double>& portal_demands) {
  const std::size_t n = config_.idcs.size();
  scale_into(constraints_.demand, portal_demands, 1.0 / kRpsScale);
  constraints_.cap_lower.assign(n, 0.0);

  // Per-IDC load caps. Default (paper-faithful): capacity caps only —
  // budgets act through the clamped references, so compliance is
  // approached smoothly. With budget_hard_constraints, budget-derived
  // caps are enforced when they are jointly feasible for the demand
  // (serve the workload first, report the violation otherwise — matches
  // the reference optimizer's fallback). The same cap derivation backs
  // the invariant checker, so enforcement and checking cannot diverge.
  check::effective_load_caps_into(config_.idcs, config_.power_budgets_w,
                                  config_.params.budget_hard_constraints,
                                  portal_demands, caps_, caps_scratch_);
  scale_into(constraints_.cap_upper, caps_, 1.0 / kRpsScale);
  constraints_.nonnegative = true;
}

CostController::Decision CostController::step(
    const std::vector<units::PricePerMwh>& prices,
    const std::vector<units::Rps>& portal_demands) {
  return step(prices, portal_demands, {});
}

CostController::Decision CostController::step(
    const std::vector<units::PricePerMwh>& prices,
    const std::vector<units::Rps>& portal_demands,
    const std::vector<std::vector<units::PricePerMwh>>& price_preview) {
  Decision decision;
  step_into(prices, portal_demands, price_preview, decision);
  return decision;
}

void CostController::step_into(const std::vector<units::PricePerMwh>& prices,
                               const std::vector<units::Rps>& portal_demands,
                               Decision& decision) {
  step_into(prices, portal_demands, {}, decision);
}

void CostController::step_into(
    const std::vector<units::PricePerMwh>& prices,
    const std::vector<units::Rps>& portal_demands,
    const std::vector<std::vector<units::PricePerMwh>>& price_preview,
    Decision& decision) {
  const std::size_t n = config_.idcs.size();
  const std::size_t c = config_.portals;
  require(prices.size() == n, "CostController: price size mismatch");
  require(portal_demands.size() == c, "CostController: demand size mismatch");

  // Availability knob: when the offered load exceeds what the fleet can
  // absorb under the latency bounds, optionally shed proportionally
  // instead of failing. From here down the controller works on raw
  // req/s buffers: everything feeds the solver-side constraint rows.
  std::vector<double>& served_demands = served_;
  served_demands.resize(c);
  for (std::size_t i = 0; i < c; ++i) {
    served_demands[i] = portal_demands[i].value();
  }
  decision.shed_fraction = 0.0;
  if (config_.params.allow_load_shedding) {
    double capacity = 0.0;
    for (const auto& idc : config_.idcs) capacity += idc.max_capacity().value();
    double offered = 0.0;
    for (double demand : served_demands) offered += demand;
    if (offered > capacity) {
      const double keep = capacity / offered * (1.0 - 1e-9);
      for (double& demand : served_demands) demand *= keep;
      decision.shed_fraction = 1.0 - keep;
    }
  }

  // Paper Sec. IV-D: with trajectory references (or a price preview) the
  // references follow the *predicted* workload and the future prices
  // across the horizon — one LP per prediction step.
  const std::size_t beta1 = config_.params.horizons.prediction;
  const bool trajectory_references =
      (config_.params.predict_workload && config_.params.reference_trajectory) ||
      !price_preview.empty();

  // Workload prediction feeds the reference optimizer; the conservation
  // constraint always uses the (possibly shed) measured demand. An AR
  // extrapolation can overshoot a burst beyond what the fleet can carry,
  // so predictions are clamped to the serviceable total — the reference
  // must stay solvable even when the forecast is wrong. Each portal's
  // 1..steps predictions come from one pass of its recursion.
  decision.predicted_demands = served_demands;
  const std::size_t steps = trajectory_references ? beta1 : 1;
  if (config_.params.predict_workload) {
    predicted_.resize(c * steps);
    for (std::size_t i = 0; i < c; ++i) {
      predictors_[i].observe(served_demands[i]);
      predictors_[i].predict_into(
          std::span<double>(predicted_.data() + i * steps, steps));
      decision.predicted_demands[i] = predicted_[i * steps];
    }
    double fleet_capacity = 0.0;
    for (const auto& idc : config_.idcs) {
      fleet_capacity += idc.max_capacity().value();
    }
    double predicted_total = 0.0;
    for (double demand : decision.predicted_demands) predicted_total += demand;
    if (predicted_total > fleet_capacity) {
      const double keep = fleet_capacity / predicted_total * (1.0 - 1e-9);
      for (double& demand : decision.predicted_demands) demand *= keep;
    }
  }

  // Reference: budget-clamped optimal power (paper Sec. IV-D).
  control::ReferenceProblem& ref_problem = ref_problem_;
  const auto set_prices = [&](const std::vector<units::PricePerMwh>& row) {
    for (std::size_t j = 0; j < n; ++j) ref_problem.prices[j] = row[j].value();
  };
  set_prices(prices);
  ref_problem.portal_demands = decision.predicted_demands;
  if (billing_ && config_.params.peak_shadow_weight > 0.0) {
    // Shadow-price power above the running billing-cycle peak: the $/kW
    // peak rate amortized over the cycle is the $/MWh a marginal watt of
    // new peak would add to the bill if held for the rest of the cycle
    // (rate [$/kW] × 1000 [kW/MW] / cycle_hours [h] = $/MWh). During the
    // coincident window the coincident rate stacks on top. Weighted by
    // peak_shadow_weight so scenarios can tune aggressiveness.
    const units::Seconds now =
        config_.start_time_s +
        config_.period_s * static_cast<double>(step_count_);
    double rate_per_kw = config_.billing.demand_rate_per_kw;
    if (config_.billing.in_coincident_window(now)) {
      rate_per_kw += config_.billing.coincident_rate_per_kw;
    }
    ref_problem.cycle_peak_w = billing_->cycle_peaks_w();
    ref_problem.peak_shadow_per_mwh = config_.params.peak_shadow_weight *
                                      rate_per_kw * 1e3 /
                                      config_.billing.cycle_hours;
  }
  control::solve_reference_into(ref_problem, decision.reference);
  require(decision.reference.feasible,
          "CostController: demand exceeds fleet capacity");

  // Fast loop: MPC tracks the reference power with move penalties.
  fill_constraints(served_demands);
  mpc_->set_constraints(constraints_);
  control::MpcStep& step_input = mpc_input_;
  step_input.x.clear();
  step_input.u_prev.resize(c * n);
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      step_input.u_prev[i * n + j] = allocation_.at(i, j) * (1.0 / kRpsScale);
    }
  }
  if (!trajectory_references) {
    step_input.references.resize(1);
    scale_into(step_input.references[0],
               decision.reference.reference_power_w, 1.0 / kPowerScale);
  } else {
    step_input.references.resize(beta1);
    for (std::size_t s = 1; s <= beta1; ++s) {
      if (config_.params.predict_workload) {
        for (std::size_t i = 0; i < c; ++i) {
          ref_problem.portal_demands[i] = predicted_[i * steps + (s - 1)];
        }
      }
      if (!price_preview.empty()) {
        // Shorter previews repeat the last row. `s` starts at 1, so the
        // index is `s - 1`; guarded directly instead of a size()-1 clamp
        // (which would wrap on an empty vector).
        const auto& row = s - 1 < price_preview.size() ? price_preview[s - 1]
                                                       : price_preview.back();
        require(row.size() == n,
                "CostController: price preview row size mismatch");
        set_prices(row);
      }
      control::solve_reference_into(ref_problem, ahead_);
      scale_into(step_input.references[s - 1],
                 ahead_.feasible ? ahead_.reference_power_w
                                 : decision.reference.reference_power_w,
                 1.0 / kPowerScale);
    }
    // The billing meter below prices this period at today's prices.
    if (!price_preview.empty()) set_prices(prices);
  }
  mpc_->step_into(step_input, mpc_result_);
  const control::MpcResult& mpc_result = mpc_result_;
  decision.mpc_status = mpc_result.status;
  decision.mpc_iterations = mpc_result.solver_iterations;
  decision.mpc_warm_started = mpc_result.warm_started;
  scale_into(decision.predicted_power_w, mpc_result.predicted_y, kPowerScale);

  if (mpc_result.status == solvers::QpStatus::kOptimal) {
    decision.fallback_tier = mpc_result.used_fallback_backend
                                 ? check::FallbackTier::kBackendRetry
                                 : check::FallbackTier::kNone;
    // The QP enforces U >= 0 and conservation only to its convergence
    // tolerance; clamp negatives and rescale each portal row so the
    // conservation invariant holds exactly.
    Vector& u = u_;
    scale_into(u, mpc_result.u, kRpsScale);
    for (double& v : u) v = std::max(v, 0.0);
    for (std::size_t i = 0; i < c; ++i) {
      double row_sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) row_sum += u[i * n + j];
      if (row_sum > 0.0) {
        const double factor = served_demands[i] / row_sum;
        for (std::size_t j = 0; j < n; ++j) u[i * n + j] *= factor;
      } else if (served_demands[i] > 0.0) {
        // Degenerate all-zero row: fall back to the reference split.
        for (std::size_t j = 0; j < n; ++j) {
          u[i * n + j] = decision.reference.allocation.at(i, j);
        }
      }
    }
    for (std::size_t i = 0; i < c; ++i) {
      for (std::size_t j = 0; j < n; ++j) allocation_.at(i, j) = u[i * n + j];
    }
  } else {
    // Degradation tier 2: neither backend converged. Holding the last
    // feasible allocation (projected onto the current constraints)
    // preserves the smoothing objective — jumping to the reference
    // allocation would be exactly the un-smoothed move the MPC exists
    // to avoid — so the reference split is only the terminal fallback
    // when the hold cannot be made feasible for this period's demand.
    decision.fallback_tier = check::FallbackTier::kHoldLastFeasible;
    const std::vector<double> caps = check::effective_load_caps(
        config_.idcs, config_.power_budgets_w,
        config_.params.budget_hard_constraints, served_demands);
    Allocation held(c, n);
    if (project_hold_allocation(allocation_, decision.reference.allocation,
                                served_demands, caps, held)) {
      allocation_ = std::move(held);
    } else {
      allocation_ = decision.reference.allocation;
    }
    // The MPC's Y_1 describes an unconverged iterate, not the applied
    // move; recompute the power prediction from what was applied.
    const auto held_loads = allocation_.idc_loads();
    for (std::size_t j = 0; j < n; ++j) {
      decision.predicted_power_w[j] =
          check::continuous_power_w(config_.idcs[j], held_loads[j]).value();
    }
  }

  finish_decision(decision, served_demands, ref_problem.prices);
}

// Battery dispatch (fast loop): each battery-equipped IDC smooths its
// grid draw toward the EWMA baseline — discharging when the predicted
// power is above it, recharging when below — which both shaves the
// billed peak and refills in the valleys. SoC, power limits and the
// one-way charge efficiency bound every move, so the kSocBounds
// invariant holds by construction (the checker re-derives it).
void CostController::dispatch_batteries(Decision& decision) {
  const std::size_t n = config_.idcs.size();
  const double dt = config_.period_s.value();
  const double alpha = config_.params.battery_ewma_alpha;
  if (battery_avg_w_.empty()) {
    // First dispatch: seed the baseline at the observed power so the
    // first period transfers nothing (deterministic, resume-stable).
    battery_avg_w_ = decision.predicted_power_w;
  }
  decision.battery_w.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    const auto& battery = config_.idcs[j].battery;
    if (!battery.present()) continue;
    const double cap = battery.capacity.value();
    const double p = decision.predicted_power_w[j];
    const double avg = battery_avg_w_[j];
    double net = 0.0;
    if (p > avg) {
      const double avail =
          std::max(0.0, battery_soc_j_[j] - battery.min_soc * cap);
      net = std::min({p - avg, battery.max_discharge_w.value(), avail / dt});
      battery_soc_j_[j] -= net * dt;
    } else if (p < avg) {
      const double room =
          std::max(0.0, battery.max_soc * cap - battery_soc_j_[j]);
      const double charge =
          std::min({avg - p, battery.max_charge_w.value(),
                    room / (dt * battery.round_trip_efficiency)});
      battery_soc_j_[j] += charge * dt * battery.round_trip_efficiency;
      net = -charge;
    }
    decision.battery_w[j] = net;
    decision.grid_power_w[j] = std::max(0.0, p - net);
  }
  decision.battery_soc_j = battery_soc_j_;
  // Track the *metered* (post-battery) series: the baseline the
  // dispatcher chases is the one it is smoothing.
  for (std::size_t j = 0; j < n; ++j) {
    battery_avg_w_[j] += alpha * (decision.grid_power_w[j] - battery_avg_w_[j]);
  }
}

// Shared tail of every control period (full or degraded): battery
// dispatch and billing metering, then the slow loop, then the invariant
// checker over the applied decision.
void CostController::finish_decision(Decision& decision,
                                     const std::vector<double>& served_demands,
                                     const std::vector<double>& prices_per_mwh) {
  const std::size_t n = config_.idcs.size();
  // Wall time of this period's start, before the step counter advances.
  const units::Seconds now =
      config_.start_time_s + config_.period_s * static_cast<double>(step_count_);
  // A reused decision keeps the storage columns only while they apply.
  if (battery_active_ || billing_) {
    decision.grid_power_w = decision.predicted_power_w;
  } else {
    decision.grid_power_w.clear();
  }
  if (battery_active_) {
    dispatch_batteries(decision);
  } else {
    decision.battery_w.clear();
    decision.battery_soc_j.clear();
  }
  if (billing_) {
    billing_->observe(now, config_.period_s, decision.grid_power_w,
                      prices_per_mwh);
  }
  // Slow loop: servers follow the (smoothed) allocation, once every
  // sleep_every_k_steps fast periods. Off-cycle, the held counts are
  // only *raised* when the new allocation would otherwise violate the
  // latency bound (safety overrides the slow-rate schedule).
  const std::size_t k = std::max<std::size_t>(config_.params.sleep_every_k_steps, 1);
  allocation_.idc_loads_into(loads_);
  if (step_count_ % k == 0) {
    sleep_.step_into(loads_, servers_, servers_);
  } else {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t needed = sleep_.target_servers(j, loads_[j]);
      if (needed > servers_[j]) servers_[j] = needed;
    }
  }
  ++step_count_;

  decision.allocation = allocation_;
  decision.servers = servers_;
  decision.invariants = {};
  if (checker_) {
    // Throws InvariantViolationError in strict mode.
    checker_->check_into(decision.allocation, decision.servers,
                         decision.predicted_power_w, served_demands,
                         decision.battery_soc_j, decision.battery_w,
                         decision.violations);
    decision.invariants.checks = 1;
    for (const auto& violation : decision.violations) {
      ++decision.invariants.by_kind[static_cast<std::size_t>(violation.kind)];
    }
  } else {
    decision.violations.clear();
  }
}

CostController::Decision CostController::step_degraded(
    const std::vector<units::PricePerMwh>& prices,
    const std::vector<units::Rps>& portal_demands) {
  const std::size_t n = config_.idcs.size();
  require(portal_demands.size() == config_.portals,
          "CostController: demand size mismatch");
  // The degraded path skips every optimizer but still meters the period
  // (battery dispatch + billing peaks must stay continuous), so prices
  // are required to line up whenever the meter is on.
  require(!billing_ || prices.size() == n,
          "CostController: price size mismatch");

  Decision decision;
  decision.fallback_tier = check::FallbackTier::kHoldLastFeasible;
  decision.mpc_status = solvers::QpStatus::kMaxIterations;

  // Same availability knob as the full step.
  std::vector<double> served_demands = units::raw_vector(portal_demands);
  if (config_.params.allow_load_shedding) {
    double capacity = 0.0;
    for (const auto& idc : config_.idcs) capacity += idc.max_capacity().value();
    double offered = 0.0;
    for (double demand : served_demands) offered += demand;
    if (offered > capacity) {
      const double keep = capacity / offered * (1.0 - 1e-9);
      for (double& demand : served_demands) demand *= keep;
      decision.shed_fraction = 1.0 - keep;
    }
  }

  // Keep the estimator stream continuous: a degraded period still
  // observes the measured demand, so the AR predictor sees no gap.
  decision.predicted_demands = served_demands;
  if (config_.params.predict_workload) {
    for (std::size_t i = 0; i < config_.portals; ++i) {
      predictors_[i].observe(served_demands[i]);
      decision.predicted_demands[i] = predictors_[i].predict(1);
    }
  }

  // No optimizer: hold the previous allocation projected onto this
  // period's constraints. The capacity-proportional split doubles as the
  // seed for degenerate rows and as the terminal fallback — it is always
  // jointly feasible because effective_load_caps only enforces caps that
  // are feasible for the demand.
  const std::vector<double> caps = check::effective_load_caps(
      config_.idcs, config_.power_budgets_w,
      config_.params.budget_hard_constraints, served_demands);
  double total_cap = 0.0;
  for (double cap : caps) total_cap += cap;
  require(total_cap > 0.0, "CostController: fleet has zero effective capacity");
  Allocation proportional(config_.portals, n);
  for (std::size_t i = 0; i < config_.portals; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      proportional.at(i, j) = served_demands[i] * caps[j] / total_cap;
    }
  }
  Allocation held(config_.portals, n);
  if (project_hold_allocation(allocation_, proportional, served_demands, caps,
                              held)) {
    allocation_ = std::move(held);
  } else {
    allocation_ = std::move(proportional);
  }
  const auto held_loads = allocation_.idc_loads();
  decision.predicted_power_w.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    decision.predicted_power_w[j] =
        check::continuous_power_w(config_.idcs[j], held_loads[j]).value();
  }

  finish_decision(decision, served_demands, units::raw_vector(prices));
  return decision;
}

CostController::State CostController::snapshot() const {
  State state;
  state.allocation = allocation_.flatten();
  state.servers = servers_;
  state.step_count = step_count_;
  state.mpc_warm_start = mpc_->warm_start();
  state.mpc_warm_dual = mpc_->warm_dual();
  state.predictors.reserve(predictors_.size());
  for (const auto& predictor : predictors_) {
    state.predictors.push_back(predictor.snapshot());
  }
  state.battery_soc_j = battery_soc_j_;
  state.battery_avg_w = battery_avg_w_;
  if (billing_) state.billing = billing_->snapshot();
  return state;
}

void CostController::restore(const State& state) {
  const std::size_t n = config_.idcs.size();
  require(state.allocation.size() == config_.portals * n,
          "CostController: restored allocation size mismatch");
  require(state.servers.size() == n,
          "CostController: restored servers size mismatch");
  require(state.predictors.size() == predictors_.size(),
          "CostController: restored predictor count mismatch (was the "
          "checkpoint written with a different predict_workload setting?)");
  allocation_ = Allocation::unflatten(state.allocation, config_.portals, n);
  servers_ = state.servers;
  step_count_ = state.step_count;
  mpc_->restore_warm_start(state.mpc_warm_start);
  mpc_->restore_warm_dual(state.mpc_warm_dual);
  for (std::size_t i = 0; i < predictors_.size(); ++i) {
    predictors_[i].restore(state.predictors[i]);
  }
  if (battery_active_) {
    if (state.battery_soc_j.empty()) {
      // Checkpoint from before storage existed: restart from the
      // configured initial fill with an unseeded baseline.
      for (std::size_t j = 0; j < n; ++j) {
        const auto& battery = config_.idcs[j].battery;
        battery_soc_j_[j] =
            battery.present() ? battery.initial_soc * battery.capacity.value()
                              : 0.0;
      }
      battery_avg_w_.clear();
    } else {
      require(state.battery_soc_j.size() == n,
              "CostController: restored battery SoC size mismatch");
      require(state.battery_avg_w.empty() || state.battery_avg_w.size() == n,
              "CostController: restored battery baseline size mismatch");
      battery_soc_j_ = state.battery_soc_j;
      battery_avg_w_ = state.battery_avg_w;
    }
  }
  if (billing_) {
    if (state.billing.cycle_peaks_w.empty()) {
      // Pre-billing checkpoint: restart the meter at the cycle origin.
      billing_.emplace(config_.billing, n, config_.start_time_s);
    } else {
      billing_->restore(state.billing);
    }
  }
}

void CostController::reset_to(const datacenter::Allocation& allocation,
                              const std::vector<std::size_t>& servers) {
  require(allocation.portals() == config_.portals &&
              allocation.idcs() == config_.idcs.size(),
          "CostController: reset allocation shape mismatch");
  require(servers.size() == config_.idcs.size(),
          "CostController: reset servers size mismatch");
  allocation_ = allocation;
  servers_ = servers;
}

CostController::Config controller_config_from(
    const Scenario& scenario,
    std::shared_ptr<solvers::CondensedFactorCache> factor_cache) {
  CostController::Config config;
  config.idcs = scenario.idcs;
  config.portals = scenario.num_portals();
  config.power_budgets_w = scenario.power_budgets_w;
  config.params = scenario.controller;
  config.factor_cache = std::move(factor_cache);
  config.billing = scenario.billing;
  config.start_time_s = scenario.start_time_s;
  config.period_s = scenario.ts_s;
  return config;
}

}  // namespace gridctl::core
