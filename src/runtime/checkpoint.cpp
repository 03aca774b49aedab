#include "runtime/checkpoint.hpp"

#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridctl::runtime {

namespace {

JsonValue num(double v) { return JsonValue(v); }
JsonValue num(std::uint64_t v) { return JsonValue(static_cast<double>(v)); }

std::uint64_t as_u64(const JsonValue& v) {
  const double d = v.as_number();
  // 2^64 bounds the cast: converting a larger double is undefined.
  require(d >= 0.0 && d == std::floor(d) && d < 18446744073709551616.0,
          "checkpoint: expected a non-negative integer");
  return static_cast<std::uint64_t>(d);
}

JsonValue doubles_to_json(const std::vector<double>& values) {
  JsonValue::Array array;
  array.reserve(values.size());
  for (double v : values) array.emplace_back(v);
  return JsonValue(std::move(array));
}

std::vector<double> doubles_from_json(const JsonValue& json) {
  std::vector<double> values;
  values.reserve(json.as_array().size());
  for (const auto& v : json.as_array()) values.push_back(v.as_number());
  return values;
}

JsonValue sizes_to_json(const std::vector<std::size_t>& values) {
  JsonValue::Array array;
  array.reserve(values.size());
  for (std::size_t v : values) array.emplace_back(static_cast<double>(v));
  return JsonValue(std::move(array));
}

std::vector<std::size_t> sizes_from_json(const JsonValue& json) {
  std::vector<std::size_t> values;
  values.reserve(json.as_array().size());
  for (const auto& v : json.as_array()) {
    values.push_back(static_cast<std::size_t>(as_u64(v)));
  }
  return values;
}

JsonValue series_to_json(const std::vector<std::vector<double>>& series) {
  JsonValue::Array array;
  array.reserve(series.size());
  for (const auto& row : series) array.push_back(doubles_to_json(row));
  return JsonValue(std::move(array));
}

std::vector<std::vector<double>> series_from_json(const JsonValue& json) {
  std::vector<std::vector<double>> series;
  series.reserve(json.as_array().size());
  for (const auto& row : json.as_array()) {
    series.push_back(doubles_from_json(row));
  }
  return series;
}

JsonValue matrix_to_json(const linalg::Matrix& m) {
  std::vector<double> data(m.data(), m.data() + m.rows() * m.cols());
  JsonValue::Object object;
  object.emplace("rows", num(static_cast<std::uint64_t>(m.rows())));
  object.emplace("cols", num(static_cast<std::uint64_t>(m.cols())));
  object.emplace("data", doubles_to_json(data));
  return JsonValue(std::move(object));
}

linalg::Matrix matrix_from_json(const JsonValue& json) {
  const auto rows = static_cast<std::size_t>(as_u64(json.at("rows")));
  const auto cols = static_cast<std::size_t>(as_u64(json.at("cols")));
  const std::vector<double> data = doubles_from_json(json.at("data"));
  // Divide rather than multiply: rows * cols can wrap and pass.
  require(cols == 0 ? data.empty()
                    : data.size() % cols == 0 && data.size() / cols == rows,
          "checkpoint: matrix data size mismatch");
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < data.size(); ++i) m.data()[i] = data[i];
  return m;
}

JsonValue histogram_to_json(const engine::StepTimingHistogram& hist) {
  std::vector<std::size_t> counts(hist.counts.begin(), hist.counts.end());
  JsonValue::Object object;
  object.emplace("counts", sizes_to_json(counts));
  object.emplace("samples", num(hist.samples));
  object.emplace("total_us", num(hist.total_us));
  object.emplace("max_us", num(hist.max_us));
  return JsonValue(std::move(object));
}

engine::StepTimingHistogram histogram_from_json(const JsonValue& json) {
  engine::StepTimingHistogram hist;
  const auto counts = sizes_from_json(json.at("counts"));
  require(counts.size() == engine::StepTimingHistogram::kBuckets,
          "checkpoint: step histogram bucket count mismatch");
  for (std::size_t i = 0; i < counts.size(); ++i) hist.counts[i] = counts[i];
  hist.samples = as_u64(json.at("samples"));
  hist.total_us = json.at("total_us").as_number();
  hist.max_us = json.at("max_us").as_number();
  return hist;
}

JsonValue telemetry_counters_to_json(const engine::RunTelemetry& telemetry) {
  JsonValue::Object object;
  object.emplace("warm_start_s", num(telemetry.warm_start_s));
  object.emplace("policy_s", num(telemetry.policy_s));
  object.emplace("plant_s", num(telemetry.plant_s));
  object.emplace("record_s", num(telemetry.record_s));
  object.emplace("total_s", num(telemetry.total_s));
  object.emplace("steps", num(static_cast<std::uint64_t>(telemetry.steps)));
  object.emplace("solver_calls", num(telemetry.solver_calls));
  object.emplace("solver_iterations", num(telemetry.solver_iterations));
  object.emplace("status_optimal", num(telemetry.status_optimal));
  object.emplace("status_max_iterations", num(telemetry.status_max_iterations));
  object.emplace("status_infeasible", num(telemetry.status_infeasible));
  object.emplace("warm_start_hits", num(telemetry.warm_start_hits));
  object.emplace("fallback_backend_retries",
                 num(telemetry.fallback_backend_retries));
  object.emplace("fallback_holds", num(telemetry.fallback_holds));
  object.emplace("invariant_checks", num(telemetry.invariants.checks));
  std::vector<std::size_t> by_kind(telemetry.invariants.by_kind.begin(),
                                   telemetry.invariants.by_kind.end());
  object.emplace("invariants_by_kind", sizes_to_json(by_kind));
  object.emplace("step_hist", histogram_to_json(telemetry.step_hist));
  return JsonValue(std::move(object));
}

engine::RunTelemetry telemetry_counters_from_json(const JsonValue& json) {
  engine::RunTelemetry telemetry;
  telemetry.warm_start_s = json.at("warm_start_s").as_number();
  telemetry.policy_s = json.at("policy_s").as_number();
  telemetry.plant_s = json.at("plant_s").as_number();
  telemetry.record_s = json.at("record_s").as_number();
  telemetry.total_s = json.at("total_s").as_number();
  telemetry.steps = static_cast<std::size_t>(as_u64(json.at("steps")));
  telemetry.solver_calls = as_u64(json.at("solver_calls"));
  telemetry.solver_iterations = as_u64(json.at("solver_iterations"));
  telemetry.status_optimal = as_u64(json.at("status_optimal"));
  telemetry.status_max_iterations = as_u64(json.at("status_max_iterations"));
  telemetry.status_infeasible = as_u64(json.at("status_infeasible"));
  telemetry.warm_start_hits = as_u64(json.at("warm_start_hits"));
  telemetry.fallback_backend_retries =
      as_u64(json.at("fallback_backend_retries"));
  telemetry.fallback_holds = as_u64(json.at("fallback_holds"));
  telemetry.invariants.checks = as_u64(json.at("invariant_checks"));
  // <=: checkpoints written before an invariant kind was added carry a
  // shorter counter vector; the missing tail kinds restore as zero.
  const auto by_kind = sizes_from_json(json.at("invariants_by_kind"));
  require(by_kind.size() <= check::kNumInvariants,
          "checkpoint: invariant counter arity mismatch");
  for (std::size_t i = 0; i < by_kind.size(); ++i) {
    telemetry.invariants.by_kind[i] = by_kind[i];
  }
  telemetry.step_hist = histogram_from_json(json.at("step_hist"));
  return telemetry;
}

JsonValue stats_to_json_impl(const RuntimeStats& stats) {
  JsonValue::Object object;
  object.emplace("price_ticks", num(stats.price_ticks));
  object.emplace("workload_ticks", num(stats.workload_ticks));
  object.emplace("dropped_ticks", num(stats.dropped_ticks));
  object.emplace("late_ticks", num(stats.late_ticks));
  object.emplace("stale_price_steps", num(stats.stale_price_steps));
  object.emplace("stale_workload_steps", num(stats.stale_workload_steps));
  // dump_json has no spelling for infinity (free run = no deadline);
  // null stands in for it and round-trips through from_json.
  object.emplace("deadline_s", std::isfinite(stats.deadline_s)
                                   ? num(stats.deadline_s)
                                   : JsonValue());
  object.emplace("deadline_misses", num(stats.deadline_misses));
  object.emplace("degraded_steps", num(stats.degraded_steps));
  object.emplace("max_lag_s", num(stats.max_lag_s));
  object.emplace("max_queue_depth",
                 num(static_cast<std::uint64_t>(stats.max_queue_depth)));
  return JsonValue(std::move(object));
}

RuntimeStats stats_from_json(const JsonValue& json) {
  RuntimeStats stats;
  stats.price_ticks = as_u64(json.at("price_ticks"));
  stats.workload_ticks = as_u64(json.at("workload_ticks"));
  stats.dropped_ticks = as_u64(json.at("dropped_ticks"));
  stats.late_ticks = as_u64(json.at("late_ticks"));
  stats.stale_price_steps = as_u64(json.at("stale_price_steps"));
  stats.stale_workload_steps = as_u64(json.at("stale_workload_steps"));
  const JsonValue& deadline = json.at("deadline_s");
  stats.deadline_s = deadline.is_null()
                         ? std::numeric_limits<double>::infinity()
                         : deadline.as_number();
  stats.deadline_misses = as_u64(json.at("deadline_misses"));
  stats.degraded_steps = as_u64(json.at("degraded_steps"));
  stats.max_lag_s = json.at("max_lag_s").as_number();
  stats.max_queue_depth =
      static_cast<std::size_t>(as_u64(json.at("max_queue_depth")));
  // Older /3 writers also stored a copy of telemetry.step_hist here as
  // "step_wall_hist"; it is ignored.
  return stats;
}

JsonValue controller_to_json(const core::CostController::State& state) {
  JsonValue::Object object;
  object.emplace("allocation", doubles_to_json(state.allocation));
  object.emplace("servers", sizes_to_json(state.servers));
  object.emplace("step_count",
                 num(static_cast<std::uint64_t>(state.step_count)));
  object.emplace("mpc_warm_start", doubles_to_json(state.mpc_warm_start));
  object.emplace("mpc_warm_dual", doubles_to_json(state.mpc_warm_dual));
  JsonValue::Array predictors;
  predictors.reserve(state.predictors.size());
  for (const auto& p : state.predictors) {
    JsonValue::Object predictor;
    predictor.emplace("theta", doubles_to_json(p.theta));
    predictor.emplace("covariance", matrix_to_json(p.covariance));
    predictor.emplace("updates", num(static_cast<std::uint64_t>(p.updates)));
    predictor.emplace("history", doubles_to_json(p.history));
    predictors.push_back(JsonValue(std::move(predictor)));
  }
  object.emplace("predictors", JsonValue(std::move(predictors)));
  object.emplace("battery_soc_j", doubles_to_json(state.battery_soc_j));
  object.emplace("battery_avg_w", doubles_to_json(state.battery_avg_w));
  JsonValue::Object billing;
  billing.emplace("cycle_index", num(state.billing.cycle_index));
  billing.emplace("cycle_peaks_w", doubles_to_json(state.billing.cycle_peaks_w));
  billing.emplace("coincident_peaks_w",
                  doubles_to_json(state.billing.coincident_peaks_w));
  billing.emplace("energy_dollars", num(state.billing.energy_dollars));
  billing.emplace("finalized_demand_dollars",
                  num(state.billing.finalized_demand_dollars));
  billing.emplace("finalized_coincident_dollars",
                  num(state.billing.finalized_coincident_dollars));
  object.emplace("billing", JsonValue(std::move(billing)));
  return JsonValue(std::move(object));
}

core::CostController::State controller_from_json(const JsonValue& json) {
  core::CostController::State state;
  state.allocation = doubles_from_json(json.at("allocation"));
  state.servers = sizes_from_json(json.at("servers"));
  state.step_count = static_cast<std::size_t>(as_u64(json.at("step_count")));
  state.mpc_warm_start = doubles_from_json(json.at("mpc_warm_start"));
  // Checkpoints written before the condensed backend existed have no
  // dual cache; they restore cold (exactly what the writer would have
  // produced for a dense-backend run).
  if (json.as_object().count("mpc_warm_dual") > 0) {
    state.mpc_warm_dual = doubles_from_json(json.at("mpc_warm_dual"));
  }
  for (const auto& p : json.at("predictors").as_array()) {
    const std::size_t i = state.predictors.size();
    workload::ArPredictor::State predictor;
    predictor.theta = doubles_from_json(p.at("theta"));
    predictor.covariance = matrix_from_json(p.at("covariance"));
    predictor.updates = static_cast<std::size_t>(as_u64(p.at("updates")));
    predictor.history = doubles_from_json(p.at("history"));
    // The AR order is theta's length; the covariance and the history
    // must agree with it, and a history sample is a workload (a negative
    // one would corrupt the regressor or the first resumed reference).
    const std::size_t order = predictor.theta.size();
    if (predictor.covariance.rows() != order ||
        predictor.covariance.cols() != order) {
      throw InvalidArgument(
          format("checkpoint: controller.predictors[%zu].covariance is "
                 "%zux%zu, theta has order %zu",
                 i, predictor.covariance.rows(), predictor.covariance.cols(),
                 order));
    }
    if (predictor.history.size() > order) {
      throw InvalidArgument(
          format("checkpoint: controller.predictors[%zu].history holds %zu "
                 "samples, more than the order %zu",
                 i, predictor.history.size(), order));
    }
    for (std::size_t k = 0; k < predictor.history.size(); ++k) {
      const double sample = predictor.history[k];
      if (!(std::isfinite(sample) && sample >= 0.0)) {
        throw InvalidArgument(
            format("checkpoint: controller.predictors[%zu].history[%zu] is "
                   "%g (a workload sample must be finite and >= 0)",
                   i, k, sample));
      }
    }
    state.predictors.push_back(std::move(predictor));
  }
  // Schema /1 checkpoints predate billing and storage; the defaults
  // restore a fresh meter and initial SoC, which is exactly the state a
  // /1-era run was in (the features did not exist).
  if (json.as_object().count("battery_soc_j") > 0) {
    state.battery_soc_j = doubles_from_json(json.at("battery_soc_j"));
    state.battery_avg_w = doubles_from_json(json.at("battery_avg_w"));
    const JsonValue& billing = json.at("billing");
    state.billing.cycle_index = as_u64(billing.at("cycle_index"));
    state.billing.cycle_peaks_w = doubles_from_json(billing.at("cycle_peaks_w"));
    state.billing.coincident_peaks_w =
        doubles_from_json(billing.at("coincident_peaks_w"));
    state.billing.energy_dollars = billing.at("energy_dollars").as_number();
    state.billing.finalized_demand_dollars =
        billing.at("finalized_demand_dollars").as_number();
    state.billing.finalized_coincident_dollars =
        billing.at("finalized_coincident_dollars").as_number();
  }
  return state;
}

JsonValue trace_to_json(const core::SimulationTrace& trace) {
  JsonValue::Object object;
  object.emplace("policy", JsonValue(trace.policy));
  object.emplace("ts_s", num(trace.ts_s));
  object.emplace("time_s", doubles_to_json(trace.time_s));
  object.emplace("power_w", series_to_json(trace.power_w));
  object.emplace("servers_on", series_to_json(trace.servers_on));
  object.emplace("idc_load_rps", series_to_json(trace.idc_load_rps));
  object.emplace("price_per_mwh", series_to_json(trace.price_per_mwh));
  object.emplace("latency_s", series_to_json(trace.latency_s));
  object.emplace("backlog_req", series_to_json(trace.backlog_req));
  object.emplace("transient_delay_s", series_to_json(trace.transient_delay_s));
  object.emplace("portal_rps", series_to_json(trace.portal_rps));
  object.emplace("total_power_w", doubles_to_json(trace.total_power_w));
  object.emplace("cumulative_cost", doubles_to_json(trace.cumulative_cost));
  if (!trace.grid_power_w.empty()) {
    object.emplace("grid_power_w", series_to_json(trace.grid_power_w));
    object.emplace("battery_soc_j", series_to_json(trace.battery_soc_j));
  }
  return JsonValue(std::move(object));
}

core::SimulationTrace trace_from_json(const JsonValue& json) {
  core::SimulationTrace trace;
  trace.policy = json.at("policy").as_string();
  trace.ts_s = json.at("ts_s").as_number();
  trace.time_s = doubles_from_json(json.at("time_s"));
  trace.power_w = series_from_json(json.at("power_w"));
  trace.servers_on = series_from_json(json.at("servers_on"));
  trace.idc_load_rps = series_from_json(json.at("idc_load_rps"));
  trace.price_per_mwh = series_from_json(json.at("price_per_mwh"));
  trace.latency_s = series_from_json(json.at("latency_s"));
  trace.backlog_req = series_from_json(json.at("backlog_req"));
  trace.transient_delay_s = series_from_json(json.at("transient_delay_s"));
  trace.portal_rps = series_from_json(json.at("portal_rps"));
  trace.total_power_w = doubles_from_json(json.at("total_power_w"));
  trace.cumulative_cost = doubles_from_json(json.at("cumulative_cost"));
  // Storage columns exist only for runs with batteries (and in no /1
  // checkpoint at all).
  if (json.as_object().count("grid_power_w") > 0) {
    trace.grid_power_w = series_from_json(json.at("grid_power_w"));
    trace.battery_soc_j = series_from_json(json.at("battery_soc_j"));
  }
  return trace;
}

}  // namespace

JsonValue RuntimeStats::to_json() const { return stats_to_json_impl(*this); }

JsonValue RuntimeCheckpoint::to_json() const {
  JsonValue::Object root;
  root.emplace("schema", JsonValue(std::string(kCheckpointSchema)));

  JsonValue::Object progress;
  progress.emplace("next_step", num(next_step));
  progress.emplace("price_ticks_consumed", num(price_ticks_consumed));
  progress.emplace("workload_ticks_consumed", num(workload_ticks_consumed));
  progress.emplace("degrade_pending", JsonValue(degrade_pending));
  root.emplace("progress", JsonValue(std::move(progress)));

  JsonValue::Object held;
  held.emplace("prices", doubles_to_json(held_prices));
  held.emplace("price_time_s", num(held_price_time_s));
  held.emplace("demands", doubles_to_json(held_demands));
  held.emplace("demand_time_s", num(held_demand_time_s));
  held.emplace("last_power_w", doubles_to_json(last_power_w));
  root.emplace("held", JsonValue(std::move(held)));

  root.emplace("controller", controller_to_json(controller));

  JsonValue::Array fleet_json;
  fleet_json.reserve(fleet.size());
  for (const auto& idc : fleet) {
    JsonValue::Object state;
    state.emplace("servers_on", num(static_cast<std::uint64_t>(idc.servers_on)));
    state.emplace("load_rps", num(idc.load_rps));
    state.emplace("energy_joules", num(idc.energy_joules));
    state.emplace("cost_dollars", num(idc.cost_dollars));
    state.emplace("overload_seconds", num(idc.overload_seconds));
    fleet_json.push_back(JsonValue(std::move(state)));
  }
  root.emplace("fleet", JsonValue(std::move(fleet_json)));
  root.emplace("queue_backlogs_req", doubles_to_json(queue_backlogs_req));

  root.emplace("trace", trace_to_json(trace));
  root.emplace("telemetry", telemetry_counters_to_json(telemetry));
  root.emplace("stats", stats_to_json_impl(stats));
  if (!admission.is_null()) root.emplace("admission", admission);
  return JsonValue(std::move(root));
}

RuntimeCheckpoint RuntimeCheckpoint::from_json(const JsonValue& json) {
  const std::string& schema = json.at("schema").as_string();
  require(schema == kCheckpointSchema ||
              schema == "gridctl.runtime.checkpoint/2" ||
              schema == "gridctl.runtime.checkpoint/1",
          "checkpoint: unsupported schema (expected "
          "gridctl.runtime.checkpoint/3, /2 or /1)");
  RuntimeCheckpoint checkpoint;

  const JsonValue& progress = json.at("progress");
  checkpoint.next_step = as_u64(progress.at("next_step"));
  checkpoint.price_ticks_consumed = as_u64(progress.at("price_ticks_consumed"));
  checkpoint.workload_ticks_consumed =
      as_u64(progress.at("workload_ticks_consumed"));
  checkpoint.degrade_pending = progress.at("degrade_pending").as_bool();

  const JsonValue& held = json.at("held");
  checkpoint.held_prices = doubles_from_json(held.at("prices"));
  checkpoint.held_price_time_s = held.at("price_time_s").as_number();
  checkpoint.held_demands = doubles_from_json(held.at("demands"));
  checkpoint.held_demand_time_s = held.at("demand_time_s").as_number();
  checkpoint.last_power_w = doubles_from_json(held.at("last_power_w"));

  checkpoint.controller = controller_from_json(json.at("controller"));

  for (const auto& state : json.at("fleet").as_array()) {
    RuntimeCheckpoint::IdcState idc;
    idc.servers_on = static_cast<std::size_t>(as_u64(state.at("servers_on")));
    idc.load_rps = state.at("load_rps").as_number();
    idc.energy_joules = state.at("energy_joules").as_number();
    idc.cost_dollars = state.at("cost_dollars").as_number();
    idc.overload_seconds = state.at("overload_seconds").as_number();
    checkpoint.fleet.push_back(idc);
  }
  checkpoint.queue_backlogs_req =
      doubles_from_json(json.at("queue_backlogs_req"));

  checkpoint.trace = trace_from_json(json.at("trace"));
  checkpoint.telemetry = telemetry_counters_from_json(json.at("telemetry"));
  checkpoint.stats = stats_from_json(json.at("stats"));
  if (json.has("admission")) checkpoint.admission = json.at("admission");
  return checkpoint;
}

void RuntimeCheckpoint::validate_for(const core::Scenario& scenario) const {
  const std::size_t n = scenario.num_idcs();
  const std::size_t c = scenario.num_portals();
  const std::size_t steps = scenario.num_steps();
  require(next_step <= steps, "checkpoint: next_step beyond the scenario");
  require(price_ticks_consumed <= steps && workload_ticks_consumed <= steps,
          "checkpoint: feed cursor beyond the scenario");
  require(held_prices.size() == n, "checkpoint: held price width mismatch");
  require(held_demands.size() == c, "checkpoint: held demand width mismatch");
  require(last_power_w.size() == n, "checkpoint: last_power width mismatch");
  require(fleet.size() == n, "checkpoint: fleet size mismatch");
  require(queue_backlogs_req.size() == n,
          "checkpoint: queue backlog size mismatch");
  require(controller.allocation.size() == n * c,
          "checkpoint: controller allocation size mismatch");
  require(controller.servers.size() == n,
          "checkpoint: controller server vector size mismatch");
  for (std::size_t i = 0; i < controller.predictors.size(); ++i) {
    const std::size_t order = controller.predictors[i].theta.size();
    if (order != scenario.controller.ar_order) {
      throw InvalidArgument(
          format("checkpoint: controller.predictors[%zu].theta has order %zu, "
                 "the scenario's ar_order is %zu",
                 i, order, scenario.controller.ar_order));
    }
  }
  // Row 0 is the warm-start record; one more row per executed step.
  require(trace.time_s.size() == next_step + 1,
          "checkpoint: trace length inconsistent with next_step");
  require(trace.power_w.size() == n && trace.portal_rps.size() == c,
          "checkpoint: trace shape mismatch");
}

void save_checkpoint(const std::string& path,
                     const RuntimeCheckpoint& checkpoint) {
  write_json_file(path, checkpoint.to_json(), /*indent=*/1);
}

RuntimeCheckpoint load_checkpoint(const std::string& path) {
  return RuntimeCheckpoint::from_json(parse_json_file(path));
}

}  // namespace gridctl::runtime
