// Runtime invariant checking for controller decisions.
//
// The paper's control method only beats the optimal baseline if its
// hard guarantees actually hold every period: workload conservation
// across portals (eq. 26), non-negative allocation (eq. 34), per-IDC
// power under the enforced load caps, and the eq.-35 server lower
// bound. A sweep over thousands of scenarios cannot eyeball those, so
// `InvariantChecker` re-derives each guarantee from first principles
// after every `CostController::step` and counts what broke. Violations
// surface per-run in `engine::RunTelemetry` / the SweepReport JSON; in
// strict mode they throw and fail the job instead.
#pragma once

#include <cstddef>
#include <vector>

#include "check/types.hpp"
#include "control/sleep_controller.hpp"
#include "datacenter/fleet.hpp"
#include "datacenter/idc.hpp"
#include "util/units.hpp"

namespace gridctl::check {

// Per-IDC power of the continuous-relaxation plant model the controller
// tracks: P_j(lambda) = (b1 + b0/mu) lambda + b0/(mu D) — eq. (35)'s
// server count substituted into the eq.-(7) power model.
units::Watts continuous_power_w(const datacenter::IdcConfig& idc,
                                units::Rps lambda);

// The per-IDC load caps the controller enforced this period: capacity
// caps by default; replaced by budget-derived caps when hard budget
// constraints are enabled and jointly feasible for the served demand
// (mirrors CostController::build_constraints). The returned caps and
// `served_demands` are raw req/s bulk buffers: they feed straight into
// the solver-side constraint rows.
std::vector<double> effective_load_caps(
    const std::vector<datacenter::IdcConfig>& idcs,
    const std::vector<units::Watts>& power_budgets_w,
    bool budget_hard_constraints, const std::vector<double>& served_demands);
// As above, into `caps`; `scratch` holds the budget caps while they are
// compared against the demand. Neither allocates once sized.
void effective_load_caps_into(const std::vector<datacenter::IdcConfig>& idcs,
                              const std::vector<units::Watts>& power_budgets_w,
                              bool budget_hard_constraints,
                              const std::vector<double>& served_demands,
                              std::vector<double>& caps,
                              std::vector<double>& scratch);

class InvariantChecker {
 public:
  // `sleep` must match the controller's provisioning options: exact_mmn
  // changes the eq.-35 bound itself, and a non-zero max_ramp_per_step
  // disables the lower-bound check entirely (with a ramp limit the slow
  // loop is *allowed* to lag the bound while it powers servers on).
  InvariantChecker(std::vector<datacenter::IdcConfig> idcs,
                   std::size_t portals,
                   std::vector<units::Watts> power_budgets_w,
                   bool budget_hard_constraints,
                   control::SleepControllerOptions sleep = {},
                   CheckOptions options = {});

  // Validate one decision against the demand it had to serve.
  // `served_demands` is the post-shedding portal demand the allocation
  // must conserve; `predicted_power_w` the controller's per-IDC power
  // prediction for the applied input. When the decision dispatched
  // batteries, `battery_soc_j` (end-of-period state of charge, joules)
  // and `battery_w` (net output, positive = discharging) are checked
  // against each IDC's BatteryConfig bounds; empty vectors skip the SoC
  // invariant (the storage feature is off). Accumulates into counts()
  // and returns this call's violations (empty = all invariants hold).
  // Throws InvariantViolationError instead when options().strict.
  std::vector<Violation> check(const datacenter::Allocation& allocation,
                               const std::vector<std::size_t>& servers,
                               const std::vector<double>& predicted_power_w,
                               const std::vector<double>& served_demands,
                               const std::vector<double>& battery_soc_j = {},
                               const std::vector<double>& battery_w = {});
  // As check, into `violations` (cleared first). With no violation and
  // a warmed checker, the call performs no heap allocation.
  void check_into(const datacenter::Allocation& allocation,
                  const std::vector<std::size_t>& servers,
                  const std::vector<double>& predicted_power_w,
                  const std::vector<double>& served_demands,
                  const std::vector<double>& battery_soc_j,
                  const std::vector<double>& battery_w,
                  std::vector<Violation>& violations);

  const InvariantCounts& counts() const { return counts_; }
  const CheckOptions& options() const { return options_; }

 private:
  std::vector<datacenter::IdcConfig> idcs_;
  std::size_t portals_;
  std::vector<units::Watts> budgets_;
  bool budget_hard_;
  bool ramp_limited_;
  CheckOptions options_;
  control::SleepController sleep_;
  InvariantCounts counts_;
  // check_into scratch: this call's caps and per-IDC loads.
  std::vector<double> caps_;
  std::vector<double> caps_scratch_;
  std::vector<double> loads_;
};

}  // namespace gridctl::check
