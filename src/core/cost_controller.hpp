// Public API facade: the paper's two-time-scale electricity-cost
// controller.
//
//   gridctl::core::CostController controller(config);
//   auto decision = controller.step(prices, portal_demands);
//   // apply decision.allocation and decision.servers to the fleet
//
// Fast loop (every call): the constrained MPC allocates portal workload
// across IDCs, tracking the budget-clamped optimal power references
// while penalizing allocation moves (power-demand smoothing + peak
// shaving). Slow loop (every call, after allocation): the sleep
// controller turns servers ON/OFF per eq. (35). Optionally an AR(p)+RLS
// predictor extrapolates portal demand over the prediction horizon so
// references anticipate workload drift.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "check/invariants.hpp"
#include "control/mpc.hpp"
#include "control/reference_optimizer.hpp"
#include "control/sleep_controller.hpp"
#include "core/scenario.hpp"
#include "datacenter/fleet.hpp"
#include "market/billing.hpp"
#include "workload/predictor.hpp"

namespace gridctl::core {

class CostController {
 public:
  struct Config {
    std::vector<datacenter::IdcConfig> idcs{};
    std::size_t portals = 0;
    std::vector<units::Watts> power_budgets_w{};  // empty = unconstrained
    ControllerParams params{};
    // Optional shared cache of condensed MPC factorizations (runtime
    // wiring, never serialized): controllers with the same plant shape,
    // weights and penalty parameters then share one factorization
    // instead of each paying the O((β2·N)³) configure cost.
    std::shared_ptr<solvers::CondensedFactorCache> factor_cache{};
    // Demand-charge tariff (market/billing.hpp). With params.
    // demand_charge_aware the controller meters its own grid-power
    // predictions, carries the running billing-cycle peaks, and shadow-
    // prices power above them in the reference LP. Default (no peak
    // rates) disables the meter entirely.
    market::DemandChargeConfig billing{};
    // Time base for the billing clock and battery dispatch: the wall
    // time of step k is start_time_s + k·period_s (must match the
    // simulation/runtime that drives the controller).
    units::Seconds start_time_s{};
    units::Seconds period_s{10.0};

    void validate() const;
  };

  struct Decision {
    datacenter::Allocation allocation{1, 1};
    std::vector<std::size_t> servers;
    // Diagnostics.
    control::ReferenceSolution reference;
    solvers::QpStatus mpc_status = solvers::QpStatus::kMaxIterations;
    std::size_t mpc_iterations = 0;   // QP iterations this period
    bool mpc_warm_started = false;    // QP seeded from the previous move
    std::vector<double> predicted_power_w;  // MPC's Y_1
    std::vector<double> predicted_demands;  // references' workload input
    // Fraction of offered load shed this period (0 unless the scenario
    // enables allow_load_shedding and demand exceeded capacity).
    double shed_fraction = 0.0;
    // Solver degradation tier this period: kNone when the primary QP
    // backend converged, kBackendRetry when the alternate backend
    // rescued the solve, kHoldLastFeasible when the previous allocation
    // was re-applied (projected onto the current constraints).
    check::FallbackTier fallback_tier = check::FallbackTier::kNone;
    // Invariant checking results for this decision (empty/zero when
    // checking is disabled). In strict mode `step` throws
    // check::InvariantViolationError instead of returning violations.
    std::vector<check::Violation> violations;
    check::InvariantCounts invariants;
    // Battery dispatch this period (empty unless some IDC has storage):
    // net battery output in watts (positive = discharging) and the
    // end-of-period state of charge in joules.
    std::vector<double> battery_w;
    std::vector<double> battery_soc_j;
    // Per-IDC metered grid draw: predicted power minus battery output.
    // Filled whenever storage or the billing meter is active; empty
    // otherwise (grid power then equals predicted_power_w).
    std::vector<double> grid_power_w;
  };

  // Complete mutable controller state, snapshotted by the online runtime
  // for checkpoint/restore. Restoring it makes the controller continue
  // bit-identically to an uninterrupted run: the MPC warm-start cache
  // and the RLS predictor state both influence the QP iterate path, so
  // they are part of the state, not just diagnostics.
  struct State {
    linalg::Vector allocation;            // flattened portal-major U(k-1)
    std::vector<std::size_t> servers;
    std::size_t step_count = 0;
    linalg::Vector mpc_warm_start;        // empty = cold
    // Condensed-backend dual cache (empty = cold / dense backend). Kept
    // alongside the warm start so a condensed resume replays the exact
    // QP iterate path; checkpoints written before this field existed
    // restore as a cold dual.
    linalg::Vector mpc_warm_dual;
    std::vector<workload::ArPredictor::State> predictors;  // empty unless
                                                           // predict_workload
    // Billing & storage state: per-IDC SoC (joules) and the EWMA grid-
    // power baseline the battery dispatcher chases (empty = unseeded),
    // plus the billing meter's cycle peaks and accrued charges. All
    // empty/default when the features are off — and when restored from
    // a checkpoint written before they existed, which resumes with a
    // fresh meter and initial SoC.
    std::vector<double> battery_soc_j;
    std::vector<double> battery_avg_w;
    market::BillingMeter::State billing;
  };

  explicit CostController(Config config);

  // One control period: `prices[j]` is the current price at IDC j's
  // region; `portal_demands[i]` the measured portal workload.
  Decision step(const std::vector<units::PricePerMwh>& prices,
                const std::vector<units::Rps>& portal_demands);

  // As above, with a price preview: `price_preview[s][j]` is the
  // expected price at IDC j during prediction step s+1 (day-ahead
  // schedules or hourly LMP postings make the next hour known in
  // practice). References then follow the *future* prices, so the MPC
  // starts migrating before a known price step instead of reacting to
  // it. Fewer preview rows than the prediction horizon are extended by
  // repeating the last row.
  Decision step(
      const std::vector<units::PricePerMwh>& prices,
      const std::vector<units::Rps>& portal_demands,
      const std::vector<std::vector<units::PricePerMwh>>& price_preview);

  // The two steps above, into a caller-owned decision. Every field of
  // `decision` is rewritten, and its vectors keep their storage: with a
  // decision reused across periods, a condensed-backend period performs
  // no heap allocation once warmed up (only the dense QP backend and the
  // fallback tiers still allocate). The by-value steps wrap these.
  void step_into(const std::vector<units::PricePerMwh>& prices,
                 const std::vector<units::Rps>& portal_demands,
                 Decision& decision);
  void step_into(
      const std::vector<units::PricePerMwh>& prices,
      const std::vector<units::Rps>& portal_demands,
      const std::vector<std::vector<units::PricePerMwh>>& price_preview,
      Decision& decision);

  // Degraded control period for deadline-missed ticks: skips the
  // reference LPs and the MPC QP entirely and re-applies the previous
  // allocation projected onto this period's conservation + cap
  // constraints (the tier-2 hold-last-feasible path), then runs the slow
  // loop and the invariant checker as usual. O(portals × idcs) — no
  // optimizer in the loop — so an overloaded runtime can always catch
  // up. The decision reports fallback_tier = kHoldLastFeasible.
  Decision step_degraded(const std::vector<units::PricePerMwh>& prices,
                         const std::vector<units::Rps>& portal_demands);

  // Seed the controller state (e.g. with a converged steady state) so an
  // experiment window starts from a known operating point.
  void reset_to(const datacenter::Allocation& allocation,
                const std::vector<std::size_t>& servers);

  // Checkpoint/restore of the full mutable state (schema documented in
  // docs/ARCHITECTURE.md; JSON codec in runtime/checkpoint.hpp).
  State snapshot() const;
  void restore(const State& state);

  // Current applied allocation (U(k-1)); starts at zero.
  const datacenter::Allocation& current_allocation() const {
    return allocation_;
  }
  const std::vector<std::size_t>& current_servers() const { return servers_; }

  const Config& config() const { return config_; }

  // The running invariant counters (null when checking is disabled).
  const check::InvariantChecker* checker() const {
    return checker_ ? &*checker_ : nullptr;
  }

  // The streaming billing meter (null unless the config prices peaks
  // and params.demand_charge_aware is on). Meters the controller's own
  // grid-power predictions; the authoritative bill over a finished run
  // comes from summarize_trace / market::compute_bill.
  const market::BillingMeter* billing_meter() const {
    return billing_ ? &*billing_ : nullptr;
  }
  // End-of-last-period battery SoC per IDC, joules (empty when no IDC
  // has storage).
  const std::vector<double>& battery_soc_j() const { return battery_soc_j_; }

 private:
  control::MpcPlant build_plant() const;
  void fill_constraints(const std::vector<double>& portal_demands);
  void finish_decision(Decision& decision,
                       const std::vector<double>& served_demands,
                       const std::vector<double>& prices_per_mwh);
  void dispatch_batteries(Decision& decision);

  Config config_;
  control::SleepController sleep_;
  datacenter::Allocation allocation_;
  std::vector<std::size_t> servers_;
  std::size_t step_count_ = 0;
  std::vector<workload::ArPredictor> predictors_;
  std::unique_ptr<control::MpcController> mpc_;
  // Per-tick arena for the reference LPs: idcs, budgets and basis are
  // set once; step() overwrites prices, demands and cycle peaks.
  control::ReferenceProblem ref_problem_;
  control::MpcStep mpc_input_;     // per-tick arena for the MPC call
  control::MpcResult mpc_result_;
  // Further per-tick buffers, sized by the first step: the served
  // demands, each portal's β1-step prediction (portal-major), the
  // look-ahead reference solution, the MPC constraints with their caps,
  // the scaled QP move and the applied per-IDC loads.
  std::vector<double> served_;
  std::vector<double> predicted_;
  control::ReferenceSolution ahead_;
  control::TransportConstraints constraints_;
  std::vector<double> caps_;
  std::vector<double> caps_scratch_;
  linalg::Vector u_;
  std::vector<double> loads_;
  std::optional<check::InvariantChecker> checker_;
  std::optional<market::BillingMeter> billing_;
  bool battery_active_ = false;
  std::vector<double> battery_soc_j_;  // empty unless battery_active_
  std::vector<double> battery_avg_w_;  // empty until the first dispatch
};

// Build a controller Config from a scenario: fleet, portals, budgets and
// params, plus the billing tariff and time base the demand-charge and
// storage features need. Call sites should prefer this over aggregate-
// initializing Config so new scenario-level fields thread through
// automatically.
CostController::Config controller_config_from(
    const Scenario& scenario,
    std::shared_ptr<solvers::CondensedFactorCache> factor_cache = nullptr);

}  // namespace gridctl::core
