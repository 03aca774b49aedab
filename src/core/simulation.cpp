#include "core/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "datacenter/fluid_queue.hpp"
#include "engine/telemetry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace gridctl::core {

CsvTable SimulationTrace::to_csv() const {
  CsvTable table;
  table.header.push_back("time_s");
  const std::size_t idcs = power_w.size();
  const std::size_t portals = portal_rps.size();
  for (std::size_t j = 0; j < idcs; ++j) {
    table.header.push_back(format("power_mw_%zu", j));
    table.header.push_back(format("servers_%zu", j));
    table.header.push_back(format("load_rps_%zu", j));
    table.header.push_back(format("price_%zu", j));
    table.header.push_back(format("latency_ms_%zu", j));
    table.header.push_back(format("backlog_req_%zu", j));
    table.header.push_back(format("transient_delay_ms_%zu", j));
  }
  const bool storage = !grid_power_w.empty();
  if (storage) {
    for (std::size_t j = 0; j < idcs; ++j) {
      table.header.push_back(format("grid_power_mw_%zu", j));
      table.header.push_back(format("battery_soc_kwh_%zu", j));
    }
  }
  for (std::size_t i = 0; i < portals; ++i) {
    table.header.push_back(format("portal_rps_%zu", i));
  }
  table.header.push_back("total_power_mw");
  table.header.push_back("cumulative_cost");
  for (std::size_t k = 0; k < time_s.size(); ++k) {
    std::vector<double> row;
    row.push_back(time_s[k]);
    for (std::size_t j = 0; j < idcs; ++j) {
      row.push_back(units::watts_to_mw(power_w[j][k]));
      row.push_back(servers_on[j][k]);
      row.push_back(idc_load_rps[j][k]);
      row.push_back(price_per_mwh[j][k]);
      row.push_back(latency_s[j][k] * 1000.0);
      row.push_back(backlog_req[j][k]);
      row.push_back(transient_delay_s[j][k] * 1000.0);
    }
    if (storage) {
      for (std::size_t j = 0; j < idcs; ++j) {
        row.push_back(units::watts_to_mw(grid_power_w[j][k]));
        row.push_back(battery_soc_j[j][k] / 3.6e6);  // J -> kWh
      }
    }
    for (std::size_t i = 0; i < portals; ++i) row.push_back(portal_rps[i][k]);
    row.push_back(units::watts_to_mw(total_power_w[k]));
    row.push_back(cumulative_cost[k]);
    table.rows.push_back(std::move(row));
  }
  return table;
}

void record_step(SimulationTrace& trace, const datacenter::Fleet& fleet,
                 const std::vector<datacenter::FluidQueue>& queues,
                 units::Seconds window_time,
                 const std::vector<units::PricePerMwh>& prices,
                 const std::vector<units::Rps>& demands,
                 const std::vector<double>& grid_power_w,
                 const std::vector<double>& battery_soc_j) {
  const std::size_t n = trace.power_w.size();
  const std::size_t c = trace.portal_rps.size();
  trace.time_s.push_back(window_time.value());
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = fleet.idc(j);
    trace.power_w[j].push_back(idc.power_w().value());
    trace.servers_on[j].push_back(static_cast<double>(idc.servers_on()));
    trace.idc_load_rps[j].push_back(idc.assigned_load().value());
    trace.price_per_mwh[j].push_back(prices[j].value());
    const units::Seconds latency = idc.latency_s();
    trace.latency_s[j].push_back(
        std::isfinite(latency.value()) ? latency.value() : -1.0);
    trace.backlog_req[j].push_back(queues[j].backlog_req());
    const double capacity = static_cast<double>(idc.servers_on()) *
                            idc.config().power.service_rate.value();
    const double delay =
        queues[j].delay_estimate_s(idc.assigned_load().value(), capacity);
    trace.transient_delay_s[j].push_back(std::isfinite(delay) ? delay : -1.0);
  }
  for (std::size_t i = 0; i < c; ++i) {
    trace.portal_rps[i].push_back(demands[i].value());
  }
  if (!trace.grid_power_w.empty()) {
    for (std::size_t j = 0; j < n; ++j) {
      trace.grid_power_w[j].push_back(grid_power_w.empty()
                                          ? fleet.idc(j).power_w().value()
                                          : grid_power_w[j]);
      trace.battery_soc_j[j].push_back(
          battery_soc_j.empty() ? 0.0 : battery_soc_j[j]);
    }
  }
  trace.total_power_w.push_back(fleet.total_power_w().value());
  trace.cumulative_cost.push_back(fleet.total_cost_dollars().value());
}

TraceTotals integrate_trace(const SimulationTrace& trace) {
  TraceTotals totals;
  const units::Seconds dt{trace.ts_s};
  // Row 0 is the pre-window warm-start state; rows 1..K each cover one
  // elapsed period at the recorded (piecewise-constant) power.
  for (std::size_t k = 1; k < trace.total_power_w.size(); ++k) {
    totals.energy += units::Watts{trace.total_power_w[k]} * dt;
    totals.duration += dt;
  }
  for (std::size_t j = 0; j < trace.power_w.size(); ++j) {
    for (std::size_t k = 1; k < trace.power_w[j].size(); ++k) {
      const units::Joules step_energy = units::Watts{trace.power_w[j][k]} * dt;
      totals.cost += step_energy * units::PricePerMwh{trace.price_per_mwh[j][k]};
    }
  }
  return totals;
}

SimulationSummary summarize_trace(const Scenario& scenario,
                                  const SimulationTrace& trace,
                                  const datacenter::Fleet& fleet,
                                  const std::string& policy_name) {
  const std::size_t n = scenario.num_idcs();
  SimulationSummary summary;
  summary.policy = policy_name;
  summary.total_cost = fleet.total_cost_dollars();
  summary.total_energy = fleet.total_energy_joules();
  // Bill the metered grid draw under the scenario tariff; without
  // storage the grid series is absent and the IT power series bills.
  summary.bill = market::compute_bill(
      scenario.billing,
      trace.grid_power_w.empty() ? trace.power_w : trace.grid_power_w,
      trace.price_per_mwh, scenario.start_time_s, scenario.ts_s);
  summary.total_volatility = volatility(trace.total_power_w);
  summary.idcs.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    IdcSummary& idc_summary = summary.idcs[j];
    idc_summary.peak_power = peak(trace.power_w[j]);
    idc_summary.volatility = volatility(trace.power_w[j]);
    if (!scenario.power_budgets_w.empty() &&
        std::isfinite(scenario.power_budgets_w[j].value())) {
      idc_summary.budget = budget_compliance(
          trace.power_w[j], scenario.power_budgets_w[j], scenario.ts_s);
    }
    idc_summary.mean_latency = units::Seconds{mean(trace.latency_s[j])};
    idc_summary.energy = fleet.idc(j).energy_joules();
    idc_summary.cost = fleet.idc(j).cost_dollars();
    summary.overload_time += fleet.idc(j).overload_seconds();
    // Transient SLA audit from the fluid queues. An IDC pinned at its
    // capacity cap sits exactly on the bound; the small relative margin
    // keeps float jitter from counting those samples as violations.
    for (std::size_t k = 0; k < trace.transient_delay_s[j].size(); ++k) {
      const double delay = trace.transient_delay_s[j][k];
      if (delay < 0.0 ||
          delay > scenario.idcs[j].latency_bound_s.value() * (1.0 + 1e-4)) {
        summary.sla_violation_time += scenario.ts_s;
      }
      summary.max_backlog =
          std::max(summary.max_backlog,
                   units::Requests{trace.backlog_req[j][k]});
    }
  }
  return summary;
}

namespace {

// Telemetry step timing only; the trajectory never reads it.
using clock_type = std::chrono::steady_clock;  // lint: nondet-ok

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

const Scenario& validated(const Scenario& scenario) {
  scenario.validate();
  return scenario;
}

}  // namespace

PeriodKernel::PeriodKernel(const Scenario& scenario, std::string policy_name)
    : scenario_(validated(scenario)),
      fleet_(scenario.idcs),
      queues_(scenario.num_idcs()),
      last_power_w_(scenario.num_idcs(), 0.0) {
  const std::size_t n = scenario.num_idcs();
  trace_->policy = std::move(policy_name);
  trace_->ts_s = scenario.ts_s.value();
  trace_->power_w.assign(n, {});
  trace_->servers_on.assign(n, {});
  trace_->idc_load_rps.assign(n, {});
  trace_->price_per_mwh.assign(n, {});
  trace_->latency_s.assign(n, {});
  trace_->backlog_req.assign(n, {});
  trace_->transient_delay_s.assign(n, {});
  trace_->portal_rps.assign(scenario.num_portals(), {});
  // Storage columns and the held SoC exist only when some IDC has a
  // battery, so the no-storage trace layout (and CSV schema) is unchanged.
  for (const auto& idc : scenario.idcs) {
    if (idc.battery.present()) any_battery_ = true;
  }
  if (any_battery_) {
    trace_->grid_power_w.assign(n, {});
    trace_->battery_soc_j.assign(n, {});
    grid_w_.assign(n, 0.0);
    soc_j_.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const auto& battery = scenario.idcs[j].battery;
      if (battery.present()) {
        soc_j_[j] = battery.initial_soc * battery.capacity.value();
      }
    }
  }
}

std::vector<units::PricePerMwh> PeriodKernel::prices_at(units::Seconds t) const {
  std::vector<units::PricePerMwh> prices(last_power_w_.size());
  for (std::size_t j = 0; j < prices.size(); ++j) {
    prices[j] = scenario_.prices->price(scenario_.idcs[j].region, t,
                                        units::Watts{last_power_w_[j]});
  }
  return prices;
}

std::vector<units::Rps> PeriodKernel::demands_at(units::Seconds t) const {
  // The workload module emits raw req/s series; type them at the edge.
  return units::typed_vector<units::Rps>(scenario_.workload->rates(t.value()));
}

PolicyDecision PeriodKernel::warm_start(engine::RunTelemetry* telemetry) {
  const auto begin = clock_type::now();
  const units::Seconds t_prev = std::max(
      units::Seconds::zero(), scenario_.start_time_s - units::Seconds{3600.0});
  OptimalPolicy seed(scenario_.idcs, scenario_.num_portals(),
                     scenario_.controller.cost_basis);
  PolicyContext context;
  context.time_s = t_prev;
  context.prices = prices_at(t_prev);
  context.portal_demands = demands_at(scenario_.start_time_s);
  PolicyDecision initial = seed.decide(context);
  fleet_.set_operating_point(initial.allocation, initial.servers);
  last_power_w_ = units::raw_vector(fleet_.power_by_idc_w());
  if (telemetry) {
    telemetry->warm_start_s = seconds_between(begin, clock_type::now());
  }
  return initial;
}

void PeriodKernel::record_initial_row(
    const std::vector<units::PricePerMwh>& prices,
    const std::vector<units::Rps>& demands) {
  record_step(trace(), fleet_, queues_, units::Seconds::zero(), prices, demands,
              /*grid_power_w=*/{}, soc_j_);
}

void PeriodKernel::begin_period() { period_begin_ = clock_type::now(); }

double PeriodKernel::advance(std::uint64_t step, const PolicyDecision& decision,
                             const std::vector<units::PricePerMwh>& prices,
                             const std::vector<units::Rps>& demands,
                             engine::RunTelemetry* telemetry) {
  return advance_move(
      step,
      {decision.allocation, decision.servers, decision.battery_w,
       decision.battery_soc_j, decision.solver, decision.invariants},
      prices, demands, telemetry);
}

double PeriodKernel::advance(std::uint64_t step,
                             const CostController::Decision& decision,
                             const std::vector<units::PricePerMwh>& prices,
                             const std::vector<units::Rps>& demands,
                             engine::RunTelemetry* telemetry) {
  return advance_move(
      step,
      {decision.allocation, decision.servers, decision.battery_w,
       decision.battery_soc_j,
       SolverTelemetry{decision.mpc_status, decision.mpc_iterations,
                       decision.mpc_warm_started, decision.fallback_tier},
       decision.invariants},
      prices, demands, telemetry);
}

double PeriodKernel::advance_move(std::uint64_t step, const AppliedMove& move,
                                  const std::vector<units::PricePerMwh>& prices,
                                  const std::vector<units::Rps>& demands,
                                  engine::RunTelemetry* telemetry) {
  const auto decide_end = clock_type::now();
  const std::size_t n = fleet_.size();
  const units::Seconds ts = scenario_.ts_s;
  const units::Seconds t =
      scenario_.start_time_s + static_cast<double>(step) * ts;

  fleet_.set_operating_point(move.allocation, move.servers);
  fleet_.advance(ts, prices);
  for (std::size_t j = 0; j < n; ++j) {
    last_power_w_[j] = fleet_.idc(j).power_w().value();
  }
  if (any_battery_) {
    // Metered draw = realized IT power minus the battery dispatch,
    // clamped at zero (a battery cannot push power into the grid).
    // Demand-responsive price models then see the metered series.
    for (std::size_t j = 0; j < n; ++j) {
      const double dispatch = move.battery_w.empty() ? 0.0 : move.battery_w[j];
      grid_w_[j] = std::max(0.0, last_power_w_[j] - dispatch);
      last_power_w_[j] = grid_w_[j];
    }
    if (!move.battery_soc_j.empty()) soc_j_ = move.battery_soc_j;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const auto& idc = fleet_.idc(j);
    queues_[j].step(idc.assigned_load().value(),
                    static_cast<double>(idc.servers_on()) *
                        idc.config().power.service_rate.value(),
                    ts.value());
  }
  const auto plant_end = clock_type::now();

  record_step(trace(), fleet_, queues_, t - scenario_.start_time_s + ts, prices,
              demands, grid_w_, soc_j_);
  const auto step_end = clock_type::now();

  const double step_wall_s = seconds_between(period_begin_, step_end);
  if (telemetry) {
    telemetry->policy_s += seconds_between(period_begin_, decide_end);
    telemetry->plant_s += seconds_between(decide_end, plant_end);
    telemetry->record_s += seconds_between(plant_end, step_end);
    telemetry->step_hist.record(step_wall_s * 1e6);
    if (move.solver) {
      telemetry->record_solver(move.solver->status, move.solver->iterations,
                               move.solver->warm_started,
                               move.solver->fallback_tier);
    }
    telemetry->record_invariants(move.invariants);
  }
  return step_wall_s;
}

SimulationSummary PeriodKernel::summarize() const {
  return summarize_trace(scenario_, *trace_, fleet_, trace_->policy);
}

SimulationTrace& PeriodKernel::trace() {
  if (trace_shared_) {
    trace_ = std::make_shared<SimulationTrace>(*trace_);
    trace_shared_ = false;
  }
  return *trace_;
}

std::shared_ptr<const SimulationTrace> PeriodKernel::share_trace() const {
  trace_shared_ = true;
  return trace_;
}

void PeriodKernel::restore(SimulationTrace trace,
                           std::vector<double> last_power_w) {
  trace_ = std::make_shared<SimulationTrace>(std::move(trace));
  trace_shared_ = false;
  last_power_w_ = std::move(last_power_w);
  for (std::size_t j = 0; j < soc_j_.size() && j < trace_->battery_soc_j.size();
       ++j) {
    if (!trace_->battery_soc_j[j].empty()) {
      soc_j_[j] = trace_->battery_soc_j[j].back();
    }
  }
}

SimulationResult run_simulation(const Scenario& scenario,
                                AllocationPolicy& policy,
                                const SimulationOptions& options) {
  engine::RunTelemetry* telemetry = options.telemetry;
  const auto run_begin = clock_type::now();

  PeriodKernel kernel(scenario, policy.name());
  const std::size_t n = scenario.num_idcs();
  const std::size_t c = scenario.num_portals();
  const std::size_t steps = scenario.num_steps();

  if (options.warm_start) {
    const PolicyDecision initial = kernel.warm_start(telemetry);
    if (auto* mpc = dynamic_cast<MpcPolicy*>(&policy)) {
      mpc->controller().reset_to(initial.allocation, initial.servers);
    }
  }
  kernel.record_initial_row(kernel.prices_at(scenario.start_time_s),
                            kernel.demands_at(scenario.start_time_s));

  for (std::size_t k = 0; k < steps; ++k) {
    kernel.begin_period();
    PolicyContext context;
    context.step = k;
    context.time_s =
        scenario.start_time_s + static_cast<double>(k) * scenario.ts_s;
    context.prices = kernel.prices_at(context.time_s);
    context.portal_demands = kernel.demands_at(context.time_s);

    const PolicyDecision decision = policy.decide(context);
    require(decision.allocation.portals() == c &&
                decision.allocation.idcs() == n,
            "run_simulation: policy returned wrong allocation shape");
    kernel.advance(k, decision, context.prices, context.portal_demands,
                   telemetry);
  }

  SimulationResult result;
  result.summary = kernel.summarize();
  if (telemetry) {
    telemetry->steps = steps;
    telemetry->total_s = seconds_between(run_begin, clock_type::now());
  }
  if (options.record_trace) {
    result.trace = std::move(kernel.trace());
  } else {
    // The summary above is computed from the full trace; the caller only
    // asked to keep the aggregates.
    result.trace.policy = result.summary.policy;
    result.trace.ts_s = scenario.ts_s.value();
  }
  return result;
}

}  // namespace gridctl::core
