// Closed-loop simulation: run a Scenario under an AllocationPolicy and
// record everything the paper's figures plot.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/policies.hpp"
#include "core/scenario.hpp"
#include "datacenter/fleet.hpp"
#include "datacenter/fluid_queue.hpp"
#include "market/billing.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

namespace gridctl::engine {
struct RunTelemetry;
}

namespace gridctl::core {

// Per-step recordings. Outer index = IDC (or portal), inner = time step.
// The series are raw bulk buffers (column unit in the name): they feed
// CSV/JSON writers and metric kernels that iterate contiguous doubles.
struct SimulationTrace {
  std::string policy;
  double ts_s = 0.0;
  std::vector<double> time_s;                       // step timestamps
  std::vector<std::vector<double>> power_w;         // [idc][step]
  std::vector<std::vector<double>> servers_on;      // [idc][step]
  std::vector<std::vector<double>> idc_load_rps;    // [idc][step]
  std::vector<std::vector<double>> price_per_mwh;   // [idc][step]
  std::vector<std::vector<double>> latency_s;       // [idc][step]
  // Fluid-queue transient audit: request backlog and FIFO delay
  // estimate per IDC (captures under-provisioning during server ramps
  // that the steady-state latency column cannot see).
  std::vector<std::vector<double>> backlog_req;     // [idc][step]
  std::vector<std::vector<double>> transient_delay_s;  // [idc][step]
  std::vector<std::vector<double>> portal_rps;      // [portal][step]
  std::vector<double> total_power_w;                // [step]
  std::vector<double> cumulative_cost;              // [step], dollars
  // Storage columns, populated only when some IDC has a battery: the
  // metered grid draw (IT power minus battery discharge, clamped at 0)
  // and the end-of-step state of charge. Empty otherwise — grid power
  // then equals power_w and the bill falls back to it.
  std::vector<std::vector<double>> grid_power_w;    // [idc][step]
  std::vector<std::vector<double>> battery_soc_j;   // [idc][step]

  // Flatten to CSV for external plotting.
  CsvTable to_csv() const;
};

struct IdcSummary {
  units::Watts peak_power;
  VolatilityStats volatility;       // of the power series
  BudgetStats budget;               // vs the scenario budget (if any)
  units::Seconds mean_latency;
  units::Joules energy;
  units::Dollars cost;
};

struct SimulationSummary {
  std::string policy;
  // Utility bill under the scenario tariff (market::compute_bill over
  // the metered grid-power series). With no demand-charge tariff the
  // energy component equals total_cost up to float reassociation and
  // the peak components are zero.
  market::BillStatement bill;
  units::Dollars total_cost;
  units::Joules total_energy;
  units::Seconds overload_time;
  // Time during which any IDC's fluid-queue delay estimate exceeded its
  // latency bound (transient SLA damage; 0 when provisioning never lags).
  units::Seconds sla_violation_time;
  units::Requests max_backlog;
  VolatilityStats total_volatility;  // of the fleet-total power series
  std::vector<IdcSummary> idcs;
};

struct SimulationResult {
  SimulationTrace trace;
  SimulationSummary summary;
};

// Dimension-checked totals re-integrated from a recorded trace. Used by
// the CLI `--units-check` self-test: the typed rectangle sums must agree
// with the fleet's own accumulators to within float reassociation.
struct TraceTotals {
  units::Joules energy;
  units::Dollars cost;
  units::Seconds duration;
};

// Rectangle-rule integration of the fleet-total power (and per-IDC
// power × price) over the recorded steps. Row 0 is the warm-start
// operating point and carries no elapsed time, so it is skipped.
TraceTotals integrate_trace(const SimulationTrace& trace);

// Mean power over a window. The argument order is part of the typed
// contract: passing a power where the energy belongs does not compile.
inline units::Watts average_power(units::Joules energy,
                                  units::Seconds elapsed) {
  return energy / elapsed;
}

// Knobs for one closed-loop run. New options extend this struct instead
// of growing the `run_simulation` signature.
struct SimulationOptions {
  // Initialize the fleet and (for MpcPolicy) the controller to the
  // optimal operating point for the hour *before* start_time_s — the
  // experiment then begins from a converged steady state, as the paper's
  // 6:00->7:00 price-step runs do.
  bool warm_start = true;
  // When false the per-step trace is dropped from the returned result
  // (the summary is still computed from it internally) — sweeps holding
  // thousands of job results keep only the aggregates.
  bool record_trace = true;
  // Optional telemetry sink (not owned; may be null). Filled with phase
  // wall-clock, solver counters and the step-timing histogram.
  engine::RunTelemetry* telemetry = nullptr;
};

// Runs `scenario` under `policy`.
SimulationResult run_simulation(const Scenario& scenario,
                                AllocationPolicy& policy,
                                const SimulationOptions& options = {});

// Append one per-step row to `trace` from the current fleet and
// fluid-queue state; the period kernel records every row through it.
// The trailing storage vectors feed the grid_power_w / battery_soc_j
// columns when the trace carries them (an empty grid vector falls back
// to the IDC's IT power, an empty SoC vector to zero).
void record_step(SimulationTrace& trace, const datacenter::Fleet& fleet,
                 const std::vector<datacenter::FluidQueue>& queues,
                 units::Seconds window_time,
                 const std::vector<units::PricePerMwh>& prices,
                 const std::vector<units::Rps>& demands,
                 const std::vector<double>& grid_power_w = {},
                 const std::vector<double>& battery_soc_j = {});

// Compute the run summary from a completed trace and the final fleet
// state.
SimulationSummary summarize_trace(const Scenario& scenario,
                                  const SimulationTrace& trace,
                                  const datacenter::Fleet& fleet,
                                  const std::string& policy_name);

// The plant half of the paper's control loop (Sec. IV), shared by
// `run_simulation` and the online runtime (runtime::FleetSession). Each
// sampling period the caller's policy picks lambda_ij and m_j between
// `begin_period` and `advance`; the kernel then advances the fleet,
// meters the grid draw, steps the fluid queues and records the period.
// Because both drivers run this one implementation, the batch/runtime
// bit-identity pins test a single code path.
class PeriodKernel {
 public:
  // Validates `scenario`, which must outlive the kernel. The trace
  // carries the storage columns only when some IDC has a battery.
  PeriodKernel(const Scenario& scenario, std::string policy_name);
  // Not copyable: a copy would share the trace storage with this kernel.
  PeriodKernel(const PeriodKernel&) = delete;
  PeriodKernel& operator=(const PeriodKernel&) = delete;

  // The scenario's price and workload models read directly at `t`;
  // demand-responsive prices see the metered power of the last period.
  std::vector<units::PricePerMwh> prices_at(units::Seconds t) const;
  std::vector<units::Rps> demands_at(units::Seconds t) const;

  // Moves the fleet to the optimal operating point for the hour before
  // the window, computed with the scenario controller's cost basis, and
  // returns that decision so the caller can seed its controller with it.
  // Stores its wall time in `telemetry->warm_start_s` (may be null).
  PolicyDecision warm_start(engine::RunTelemetry* telemetry);

  // Row 0: the pre-transition operating point, so policy-induced jumps
  // at the window start are visible in the recorded series.
  void record_initial_row(const std::vector<units::PricePerMwh>& prices,
                          const std::vector<units::Rps>& demands);

  // Marks the start of a period; its decide phase runs until `advance`.
  void begin_period();

  // Applies `decision` for period `step` and records it: operating
  // point, plant advance, battery metering (the grid draw is IT power
  // minus the dispatch, clamped at zero, and the held SoC is kept when
  // the decision carries none), fluid-queue step, trace row, then the
  // phase timings, step histogram, solver and invariant counters into
  // `telemetry` (may be null). Returns the period's wall seconds since
  // `begin_period`.
  double advance(std::uint64_t step, const PolicyDecision& decision,
                 const std::vector<units::PricePerMwh>& prices,
                 const std::vector<units::Rps>& demands,
                 engine::RunTelemetry* telemetry);
  // The same for a CostController decision, read in place: a caller that
  // reuses one Decision across periods keeps its storage.
  double advance(std::uint64_t step, const CostController::Decision& decision,
                 const std::vector<units::PricePerMwh>& prices,
                 const std::vector<units::Rps>& demands,
                 engine::RunTelemetry* telemetry);

  SimulationSummary summarize() const;

  // Plant and recording state, read and written by checkpoint/restore.
  datacenter::Fleet& fleet() { return fleet_; }
  const datacenter::Fleet& fleet() const { return fleet_; }
  std::vector<datacenter::FluidQueue>& queues() { return queues_; }
  const std::vector<datacenter::FluidQueue>& queues() const { return queues_; }
  const SimulationTrace& trace() const { return *trace_; }
  // Mutable access. The first one after share_trace() copies the trace
  // (copy-on-write), so a shared snapshot never changes.
  SimulationTrace& trace();
  // The trace so far as a read-only snapshot. It shares the kernel's
  // storage, so a run result does not hold a second copy of a day-long
  // trace while the kernel is alive.
  std::shared_ptr<const SimulationTrace> share_trace() const;
  // Metered (post-battery) power per IDC after the last period, watts.
  const std::vector<double>& last_power_w() const { return last_power_w_; }

  // Resume the recording state; the held SoC becomes the last one the
  // trace recorded.
  void restore(SimulationTrace trace, std::vector<double> last_power_w);

 private:
  // The parts of a decision `advance` applies and counts.
  struct AppliedMove {
    const datacenter::Allocation& allocation;
    const std::vector<std::size_t>& servers;
    const std::vector<double>& battery_w;
    const std::vector<double>& battery_soc_j;
    std::optional<SolverTelemetry> solver;
    const check::InvariantCounts& invariants;
  };
  double advance_move(std::uint64_t step, const AppliedMove& move,
                      const std::vector<units::PricePerMwh>& prices,
                      const std::vector<units::Rps>& demands,
                      engine::RunTelemetry* telemetry);

  const Scenario& scenario_;
  datacenter::Fleet fleet_;
  std::vector<datacenter::FluidQueue> queues_;
  std::shared_ptr<SimulationTrace> trace_ = std::make_shared<SimulationTrace>();
  mutable bool trace_shared_ = false;  // a share_trace() snapshot exists
  std::vector<double> last_power_w_;
  bool any_battery_ = false;
  // Storage only: held SoC per IDC and the period's metered grid draw.
  std::vector<double> soc_j_;
  std::vector<double> grid_w_;
  // Telemetry timing only; the trajectory never reads it.
  std::chrono::steady_clock::time_point period_begin_;  // lint: nondet-ok
};

}  // namespace gridctl::core
