#include "runtime/fleet_session.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "admission/plan.hpp"
#include "core/policies.hpp"
#include "util/error.hpp"

namespace gridctl::runtime {

FleetSession::FleetSession(core::Scenario scenario, RuntimeOptions options,
                           const EventClock* clock)
    : scenario_(std::move(scenario)),
      options_(std::move(options)),
      clock_(clock),
      kernel_(scenario_, "control"),
      timer_(scenario_.start_time_s.value(), scenario_.ts_s.value(),
             scenario_.num_steps()) {
  init_common();
  if (options_.warm_start) {
    const core::PolicyDecision initial = kernel_.warm_start(&telemetry_);
    controller_->reset_to(initial.allocation, initial.servers);
  }
  // Row 0 and the first held values: these bootstrap reads go straight
  // to the models — the feeds start delivering from the window start.
  const auto prices = kernel_.prices_at(scenario_.start_time_s);
  const auto demands = kernel_.demands_at(scenario_.start_time_s);
  held_prices_ = units::raw_vector(prices);
  held_price_time_s_ = scenario_.start_time_s.value();
  held_demands_ = units::raw_vector(demands);
  held_demand_time_s_ = scenario_.start_time_s.value();
  kernel_.record_initial_row(prices, demands);
}

FleetSession::FleetSession(core::Scenario scenario, RuntimeOptions options,
                           const RuntimeCheckpoint& checkpoint,
                           const EventClock* clock)
    : scenario_(std::move(scenario)),
      options_(std::move(options)),
      clock_(clock),
      kernel_(scenario_, "control"),
      timer_(scenario_.start_time_s.value(), scenario_.ts_s.value(),
             scenario_.num_steps()) {
  init_common();
  checkpoint.validate_for(scenario_);
  // A checkpoint taken behind an admission layer must resume behind the
  // *same* layer: the routed view's derived state (routing epochs,
  // portal map, token-bucket levels) has to match exactly, or the
  // restored demand stream would silently diverge.
  if (const auto* routed = dynamic_cast<const admission::RoutedWorkload*>(
          scenario_.workload.get())) {
    require(!checkpoint.admission.is_null(),
            "FleetSession: checkpoint has no admission state but the "
            "scenario workload is a routed admission view");
    routed->validate_checkpoint_state(checkpoint.admission,
                                      checkpoint.next_step);
  }
  restore_from(checkpoint);
}

void FleetSession::init_common() {
  require(options_.queue_capacity > 0,
          "FleetSession: queue_capacity must be positive");
  require(options_.deadline_s >= 0.0, "FleetSession: deadline_s must be >= 0");

  controller_ = std::make_unique<core::CostController>(
      core::controller_config_from(scenario_, options_.factor_cache));

  const std::size_t n = scenario_.num_idcs();
  std::vector<std::size_t> regions(n);
  for (std::size_t j = 0; j < n; ++j) regions[j] = scenario_.idcs[j].region;
  const std::uint64_t steps = scenario_.num_steps();
  price_feed_ = std::make_unique<PriceFeed>(
      scenario_.prices, std::move(regions),
      TickStream(scenario_.start_time_s.value(), scenario_.ts_s.value(),
                 steps, options_.price_faults));
  workload_feed_ = std::make_unique<WorkloadFeed>(
      scenario_.workload,
      TickStream(scenario_.start_time_s.value(), scenario_.ts_s.value(),
                 steps, options_.workload_faults));
  stats_.deadline_s = deadline_s();
}

double FleetSession::deadline_s() const {
  return options_.deadline_s > 0.0
             ? options_.deadline_s
             : (clock_ ? clock_->wall_budget_s(scenario_.ts_s.value())
                       : std::numeric_limits<double>::infinity());
}

void FleetSession::restore_from(const RuntimeCheckpoint& checkpoint) {
  controller_->restore(checkpoint.controller);
  datacenter::Fleet& fleet = kernel_.fleet();
  for (std::size_t j = 0; j < fleet.size(); ++j) {
    const auto& idc = checkpoint.fleet[j];
    fleet.idc(j).restore_state(idc.servers_on, units::Rps{idc.load_rps},
                               units::Joules{idc.energy_joules},
                               units::Dollars{idc.cost_dollars},
                               units::Seconds{idc.overload_seconds});
    kernel_.queues()[j].restore(checkpoint.queue_backlogs_req[j]);
  }
  kernel_.restore(checkpoint.trace, checkpoint.last_power_w);
  held_prices_ = checkpoint.held_prices;
  held_price_time_s_ = checkpoint.held_price_time_s;
  held_demands_ = checkpoint.held_demands;
  held_demand_time_s_ = checkpoint.held_demand_time_s;
  next_step_ = checkpoint.next_step;
  price_ticks_consumed_ = checkpoint.price_ticks_consumed;
  workload_ticks_consumed_ = checkpoint.workload_ticks_consumed;
  degrade_pending_ = checkpoint.degrade_pending;
  telemetry_ = checkpoint.telemetry;
  stats_ = checkpoint.stats;
  // The deadline is derived from *this* process's options, not restored
  // wall-clock history.
  stats_.deadline_s = deadline_s();

  price_feed_->stream().reset(price_ticks_consumed_);
  workload_feed_->stream().reset(workload_ticks_consumed_);
  timer_.reset(next_step_);
}

std::uint64_t FleetSession::stop_step() const {
  const std::uint64_t steps = scenario_.num_steps();
  return options_.stop_after_step == 0
             ? steps
             : std::min<std::uint64_t>(steps, options_.stop_after_step);
}

double FleetSession::resume_event_time_s() const {
  return (scenario_.start_time_s +
          static_cast<double>(next_step_) * scenario_.ts_s)
      .value();
}

std::optional<Event> FleetSession::poll() {
  // Merge the three FIFO-monotone streams on head arrival time.
  // Iteration order price < workload < timer breaks exact-arrival ties,
  // so a feed tick nominal at t_k lands before step k's timer event.
  TickStream* streams[3] = {&price_feed_->stream(), &workload_feed_->stream(),
                            &timer_};
  int best = -1;
  double best_arrival = 0.0;
  for (int i = 0; i < 3; ++i) {
    const auto arrival = streams[i]->peek_arrival();
    if (arrival && (best < 0 || *arrival < best_arrival)) {
      best = i;
      best_arrival = *arrival;
    }
  }
  if (best < 0) return std::nullopt;  // every stream exhausted
  return Event{static_cast<EventKind>(best), *streams[best]->next()};
}

void FleetSession::apply(const Event& event) {
  const Tick& tick = event.tick;
  switch (event.kind) {
    case EventKind::kPrice:
      ++price_ticks_consumed_;
      if (tick.dropped) {
        ++stats_.dropped_ticks;
        break;
      }
      if (tick.arrival_s > tick.time_s + 1e-9) ++stats_.late_ticks;
      held_prices_ = price_feed_->values(tick.time_s, kernel_.last_power_w());
      held_price_time_s_ = tick.time_s;
      ++stats_.price_ticks;
      break;
    case EventKind::kWorkload:
      ++workload_ticks_consumed_;
      if (tick.dropped) {
        ++stats_.dropped_ticks;
        break;
      }
      if (tick.arrival_s > tick.time_s + 1e-9) ++stats_.late_ticks;
      held_demands_ = workload_feed_->values(tick.time_s);
      held_demand_time_s_ = tick.time_s;
      ++stats_.workload_ticks;
      break;
    case EventKind::kTimer:
      execute_step(tick.sequence);
      break;
  }
}

void FleetSession::record_queue_depth(std::size_t depth) {
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth);
}

double FleetSession::lag_s(double event_time_s) const {
  return clock_ ? clock_->lag_s(event_time_s) : 0.0;
}

void FleetSession::execute_step(std::uint64_t step) {
  const double ts = scenario_.ts_s.value();
  const double t =
      scenario_.start_time_s.value() + static_cast<double>(step) * ts;

  // Feed health at the control boundary: the step is about to run on
  // values older than its own sampling instant.
  if (held_price_time_s_ < t - 1e-9) ++stats_.stale_price_steps;
  if (held_demand_time_s_ < t - 1e-9) ++stats_.stale_workload_steps;
  stats_.max_lag_s = std::max(stats_.max_lag_s, lag_s(t));

  kernel_.begin_period();
  const bool degraded = degrade_pending_ && options_.degrade_on_deadline_miss;
  degrade_pending_ = false;
  // The held feed payloads are raw buffers (the checkpoint schema pins
  // them); type them once per step at the controller boundary.
  std::vector<units::PricePerMwh>& prices = step_prices_;
  std::vector<units::Rps>& demands = step_demands_;
  prices.resize(held_prices_.size());
  for (std::size_t j = 0; j < prices.size(); ++j) {
    prices[j] = units::PricePerMwh{held_prices_[j]};
  }
  demands.resize(held_demands_.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    demands[i] = units::Rps{held_demands_[i]};
  }
  if (degraded) {
    decision_ = controller_->step_degraded(prices, demands);
    ++stats_.degraded_steps;
  } else {
    controller_->step_into(prices, demands, decision_);
  }
  const double step_wall_s =
      kernel_.advance(step, decision_, prices, demands, &telemetry_);

  if (step_wall_s > stats_.deadline_s) {
    ++stats_.deadline_misses;
    degrade_pending_ = true;  // acted on only if degrade_on_deadline_miss
  }
  ++next_step_;

  if (options_.progress_every > 0 && options_.on_progress &&
      next_step_ % options_.progress_every == 0) {
    Progress progress;
    progress.step = next_step_;
    progress.total_steps = scenario_.num_steps();
    progress.event_time_s = t + ts;
    const core::SimulationTrace& trace = std::as_const(kernel_).trace();
    progress.total_power_w = trace.total_power_w.back();
    progress.cumulative_cost = trace.cumulative_cost.back();
    progress.lag_s = lag_s(t + ts);
    progress.deadline_misses = stats_.deadline_misses;
    progress.degraded_steps = stats_.degraded_steps;
    progress.dropped_ticks = stats_.dropped_ticks;
    progress.invariant_violations = telemetry_.invariants.total();
    options_.on_progress(progress);
  }
}

RuntimeResult FleetSession::finish(bool completed, double wall_s) {
  telemetry_.steps = static_cast<std::size_t>(next_step_);
  telemetry_.total_s += wall_s;

  RuntimeResult result;
  result.summary = kernel_.summarize();
  result.telemetry = telemetry_;
  result.stats = stats_;
  if (options_.record_trace) {
    result.trace = kernel_.share_trace();
  }
  result.completed = completed;
  return result;
}

RuntimeCheckpoint FleetSession::checkpoint() const {
  RuntimeCheckpoint cp;
  cp.next_step = next_step_;
  cp.price_ticks_consumed = price_ticks_consumed_;
  cp.workload_ticks_consumed = workload_ticks_consumed_;
  cp.held_prices = held_prices_;
  cp.held_price_time_s = held_price_time_s_;
  cp.held_demands = held_demands_;
  cp.held_demand_time_s = held_demand_time_s_;
  cp.last_power_w = kernel_.last_power_w();
  cp.degrade_pending = degrade_pending_;
  cp.controller = controller_->snapshot();
  const datacenter::Fleet& fleet = kernel_.fleet();
  cp.fleet.resize(fleet.size());
  cp.queue_backlogs_req.resize(fleet.size());
  for (std::size_t j = 0; j < fleet.size(); ++j) {
    const auto& idc = fleet.idc(j);
    cp.fleet[j] = {idc.servers_on(), idc.assigned_load().value(),
                   idc.energy_joules().value(), idc.cost_dollars().value(),
                   idc.overload_seconds().value()};
    cp.queue_backlogs_req[j] = kernel_.queues()[j].backlog_req();
  }
  cp.trace = kernel_.trace();
  cp.telemetry = telemetry_;
  cp.stats = stats_;
  if (const auto* routed = dynamic_cast<const admission::RoutedWorkload*>(
          scenario_.workload.get())) {
    cp.admission = routed->checkpoint_state(next_step_);
  }
  return cp;
}

}  // namespace gridctl::runtime
