#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "admission/plan.hpp"
#include "alloc_counter.hpp"
#include "control/reference_optimizer.hpp"
#include "controlplane/control_plane.hpp"
#include "core/cost_controller.hpp"
#include "core/policies.hpp"
#include "core/scenario_io.hpp"
#include "core/simulation.hpp"
#include "engine/telemetry.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fleet_session.hpp"
#include "util/json.hpp"
#include "workload/predictor.hpp"

namespace perfbench {

namespace {

using namespace gridctl;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nearest-rank percentile, p in (0, 1]; 0 for an empty sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string fleet_id(std::size_t fleet) {
  return "fleet-" + std::to_string(fleet);
}

// ---------------------------------------------------------------------
// Output checks and control-quality figures

// Exact control-quality figures of one run of the window, summed over
// its fleets.
struct Outcome {
  double cost_usd = 0.0;             // energy + demand charges
  std::vector<double> power_steps_w;  // |ΔP| per IDC per tick
  std::uint64_t idc_ticks = 0;
  std::uint64_t budget_met = 0;
  std::uint64_t sla_met = 0;
  std::uint64_t ticks = 0;
  std::uint64_t ok_ticks = 0;
  std::uint64_t failed_ticks = 0;
  std::uint64_t qp_iterations = 0;
  std::uint64_t fallback_ticks = 0;
  std::uint64_t invariant_violations = 0;

  double power_step_p99_mw() const {
    return percentile(power_steps_w, 0.99) / 1e6;
  }
  double budget_met_share() const { return ratio(budget_met, idc_ticks); }
  double sla_met_share() const { return ratio(sla_met, idc_ticks); }
  double ok_tick_share() const { return ratio(ok_ticks, ticks); }
};

void add_fleet(Outcome& out, const core::Scenario& scenario,
               const core::SimulationSummary& summary,
               const core::SimulationTrace& trace,
               const engine::RunTelemetry& telemetry) {
  out.cost_usd += summary.bill.total().value();
  // The utility sees the metered series (after batteries) when there is
  // one; budgets and the SLA are judged on the IT side.
  const auto& metered =
      trace.grid_power_w.empty() ? trace.power_w : trace.grid_power_w;
  const std::uint64_t steps = trace.time_s.size() - 1;  // row 0 = warm start
  for (std::size_t j = 0; j < trace.power_w.size(); ++j) {
    const double budget = scenario.power_budgets_w.empty()
                              ? INFINITY
                              : scenario.power_budgets_w[j].value();
    const double bound = scenario.idcs[j].latency_bound_s.value();
    for (std::size_t k = 1; k <= steps; ++k) {
      out.power_steps_w.push_back(std::fabs(metered[j][k] - metered[j][k - 1]));
      ++out.idc_ticks;
      if (trace.power_w[j][k] <= budget * (1.0 + 1e-9)) ++out.budget_met;
      // The SLA audit summarize_trace uses: fluid-queue delay within the
      // bound, with its float-jitter margin.
      const double delay = trace.transient_delay_s[j][k];
      if (delay >= 0.0 && delay <= bound * (1.0 + 1e-4)) ++out.sla_met;
    }
  }
  const std::uint64_t fallbacks =
      telemetry.fallback_backend_retries + telemetry.fallback_holds;
  const std::uint64_t violations = telemetry.invariants.total();
  out.ticks += steps;
  out.ok_ticks += steps - std::min(steps, fallbacks + violations);
  out.qp_iterations += telemetry.solver_iterations;
  out.fallback_ticks += fallbacks;
  out.invariant_violations += violations;
}

// Two runs of the same inputs must agree exactly.
void check_same(const Outcome& a, const Outcome& b, const std::string& what,
                std::vector<std::string>& failures) {
  if (a.cost_usd != b.cost_usd || a.qp_iterations != b.qp_iterations ||
      a.ticks != b.ticks || a.ok_ticks != b.ok_ticks ||
      a.budget_met != b.budget_met || a.sla_met != b.sla_met ||
      a.power_steps_w != b.power_steps_w) {
    char line[256];
    std::snprintf(line, sizeof line,
                  "%s: cost %.17g vs %.17g, qp iterations %llu vs %llu",
                  what.c_str(), a.cost_usd, b.cost_usd,
                  static_cast<unsigned long long>(a.qp_iterations),
                  static_cast<unsigned long long>(b.qp_iterations));
    failures.push_back(line);
  }
}

// ---------------------------------------------------------------------
// Session path: the program's own runtime, as an operator runs it

// Polls and applies events until the session is done. A tick's wall
// time runs from the end of the previous control period, so the feed
// events that deliver its prices and demand count toward it.
double drive(runtime::FleetSession& session, std::vector<double>& tick_s) {
  util::RoleGuard stream(session.stream_role());
  util::RoleGuard control(session.control_role());
  const auto begin = Clock::now();
  auto last = begin;
  while (!session.done()) {
    const std::optional<runtime::Event> event = session.poll();
    if (!event) break;
    session.apply(*event);
    if (event->kind == runtime::EventKind::kTimer) {
      const auto now = Clock::now();
      tick_s.push_back(seconds_between(last, now));
      last = now;
    }
  }
  return seconds_between(begin, Clock::now());
}

// A checkpoint as JSON text. `state_bytes` leaves out the wall-clock
// telemetry and runtime stats, whose digits vary from run to run, so it
// repeats exactly.
struct CheckpointText {
  std::string text;
  std::size_t state_bytes = 0;
};

CheckpointText to_text(const runtime::RuntimeCheckpoint& checkpoint) {
  const JsonValue json = checkpoint.to_json();
  CheckpointText out{dump_json(json), 0};
  out.state_bytes = out.text.size() - dump_json(json.at("telemetry")).size() -
                    dump_json(json.at("stats")).size();
  return out;
}

CheckpointText checkpoint_text(runtime::FleetSession& session) {
  util::RoleGuard stream(session.stream_role());
  util::RoleGuard control(session.control_role());
  return to_text(session.checkpoint());
}

// One run of the whole window.
struct Episode {
  std::vector<double> tick_s;
  double tick_wall_s = 0.0;      // time spent ticking (no restore/checkpoint)
  double restore_s = 0.0;        // resume text -> parse -> decode -> ready
  double resume_parse_s = 0.0;   // the parse_json share of restore_s
  std::vector<double> checkpoint_s;  // end-of-run state -> JSON text
  std::size_t resume_bytes = 0;      // resume text
  std::size_t checkpoint_bytes = 0;  // end-of-run state (CheckpointText)
  std::vector<std::string> end_checkpoints;  // one per fleet
  Outcome outcome;
  // Scheduler and factor-cache figures.
  double busy_s = 0.0;  // summed per-fleet processing wall
  std::uint64_t steals = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::vector<std::string> failures;
};

// The end-of-run serialization is seconds of allocation-heavy work whose
// time swings with the host, so it is timed up to 3 times per episode,
// while the repeats take under 12% of the run (always at least once).
bool repeat_serialization(const Episode& episode, double total_s,
                          double seconds) {
  const std::size_t done = episode.checkpoint_s.size();
  return done == 0 || (done < 3 && total_s < 0.12 * seconds);
}

Episode fleet_episode(const Workload& workload, const core::Scenario& scenario,
                      bool kill, double seconds) {
  Episode episode;
  episode.tick_s.reserve(workload.steps);
  runtime::RuntimeOptions options;
  const auto cache = std::make_shared<solvers::CondensedFactorCache>();
  options.factor_cache = cache;
  options.stop_after_step = kill ? workload.kill_step : 0;
  auto session = std::make_unique<runtime::FleetSession>(scenario, options);
  episode.tick_wall_s = drive(*session, episode.tick_s);
  if (kill) {
    const std::string text = checkpoint_text(*session).text;
    session.reset();
    options.stop_after_step = 0;
    const auto begin = Clock::now();
    const JsonValue parsed = parse_json(text);
    const auto parsed_at = Clock::now();
    session = std::make_unique<runtime::FleetSession>(
        scenario, options, runtime::RuntimeCheckpoint::from_json(parsed));
    episode.restore_s = seconds_between(begin, Clock::now());
    episode.resume_parse_s = seconds_between(begin, parsed_at);
    episode.resume_bytes = text.size();
    episode.tick_wall_s += drive(*session, episode.tick_s);
  }
  CheckpointText end;
  for (double total = 0.0; repeat_serialization(episode, total, seconds);) {
    const auto begin = Clock::now();
    end = checkpoint_text(*session);
    episode.checkpoint_s.push_back(seconds_between(begin, Clock::now()));
    total += episode.checkpoint_s.back();
  }
  episode.checkpoint_bytes = end.state_bytes;
  episode.end_checkpoints.push_back(std::move(end.text));

  episode.busy_s = episode.tick_wall_s;
  util::RoleGuard control(session->control_role());
  const bool completed = session->next_step() >= workload.steps;
  const runtime::RuntimeResult result =
      session->finish(completed, episode.tick_wall_s);
  if (!completed) episode.failures.push_back("fleet stopped before the window end");
  add_fleet(episode.outcome, scenario, result.summary, *result.trace,
            result.telemetry);
  episode.cache_hits = cache->hits();
  episode.cache_misses = cache->misses();
  return episode;
}

// Each worker remembers its last progress callback. A plane tick's wall
// time is the gap between two consecutive callbacks of one fleet on one
// worker with no other fleet in between, so the first tick of every
// scheduling quantum is not sampled.
thread_local const void* tl_last_fleet = nullptr;
thread_local Clock::time_point tl_last_time;

std::function<void(const runtime::Progress&)> tick_recorder(
    std::vector<double>* samples) {
  return [samples](const runtime::Progress&) {
    const auto now = Clock::now();
    if (tl_last_fleet == samples) {
      samples->push_back(seconds_between(tl_last_time, now));
    }
    tl_last_fleet = samples;
    tl_last_time = now;
  };
}

void collect_plane(const controlplane::PlaneReport& report, Episode& episode) {
  episode.tick_wall_s += report.wall_s;
  episode.steals += report.steals;
  episode.cache_hits += report.factor_cache_hits;
  episode.cache_misses += report.factor_cache_misses;
  if (!report.admission_verified) {
    episode.failures.push_back("exactly-once routing audit did not run");
  } else if (report.admission_route_violations != 0) {
    episode.failures.push_back(
        "exactly-once routing audit: " +
        std::to_string(report.admission_route_violations) + " violations");
  }
}

Episode plane_episode(const Workload& workload, const core::Scenario& scenario,
                      bool kill, double seconds) {
  Episode episode;
  std::vector<std::vector<double>> fleet_ticks(workload.fleets);
  for (auto& samples : fleet_ticks) samples.reserve(workload.steps);
  const auto make_specs = [&](std::uint64_t stop_after) {
    std::vector<controlplane::FleetSpec> specs(workload.fleets);
    for (std::size_t f = 0; f < workload.fleets; ++f) {
      specs[f].id = fleet_id(f);
      specs[f].scenario = scenario;
      specs[f].options.stop_after_step = stop_after;
      specs[f].options.progress_every = 1;
      specs[f].options.on_progress = tick_recorder(&fleet_ticks[f]);
    }
    return specs;
  };
  controlplane::PlaneOptions options;
  options.workers = workload.workers;

  auto plane = std::make_unique<controlplane::ControlPlane>(
      make_specs(kill ? workload.kill_step : 0), options);
  controlplane::PlaneReport report = plane->run();
  collect_plane(report, episode);
  if (kill) {
    std::vector<std::string> texts;
    for (std::size_t f = 0; f < workload.fleets; ++f) {
      texts.push_back(to_text(plane->checkpoint(fleet_id(f))).text);
      episode.resume_bytes += texts.back().size();
    }
    plane.reset();
    // A new plane resumes every fleet from its text; the restore covers
    // parse + decode and the plane's construction (admission compile).
    const auto begin = Clock::now();
    auto specs = make_specs(0);
    double parse_s = 0.0;
    for (std::size_t f = 0; f < workload.fleets; ++f) {
      const auto t0 = Clock::now();
      const JsonValue parsed = parse_json(texts[f]);
      parse_s += seconds_between(t0, Clock::now());
      specs[f].checkpoint = runtime::RuntimeCheckpoint::from_json(parsed);
    }
    plane = std::make_unique<controlplane::ControlPlane>(std::move(specs),
                                                         options);
    episode.restore_s = seconds_between(begin, Clock::now());
    episode.resume_parse_s = parse_s;
    report = plane->run();
    collect_plane(report, episode);
  }
  for (double total = 0.0; repeat_serialization(episode, total, seconds);) {
    const auto begin = Clock::now();
    episode.end_checkpoints.clear();
    episode.checkpoint_bytes = 0;
    for (std::size_t f = 0; f < workload.fleets; ++f) {
      CheckpointText end = to_text(plane->checkpoint(fleet_id(f)));
      episode.checkpoint_bytes += end.state_bytes;
      episode.end_checkpoints.push_back(std::move(end.text));
    }
    episode.checkpoint_s.push_back(seconds_between(begin, Clock::now()));
    total += episode.checkpoint_s.back();
  }

  for (const controlplane::FleetResult& fleet : report.fleets) {
    if (!fleet.ok) {
      episode.outcome.ticks += workload.steps;
      episode.outcome.failed_ticks += workload.steps;
      episode.failures.push_back(fleet.id + " failed: " + fleet.error);
      continue;
    }
    if (!fleet.result.completed) {
      episode.failures.push_back(fleet.id + " stopped before the window end");
    }
    // Restored telemetry carries the first plane's wall, so total_s
    // covers both planes.
    episode.busy_s += fleet.result.telemetry.total_s;
    add_fleet(episode.outcome, scenario, fleet.result.summary,
              *fleet.result.trace, fleet.result.telemetry);
  }
  for (auto& samples : fleet_ticks) {
    episode.tick_s.insert(episode.tick_s.end(), samples.begin(), samples.end());
  }
  return episode;
}

// `seconds` is the run length; it sizes the repeated end-of-run
// serialization (0 = serialize once).
Episode run_episode(const Workload& workload, const core::Scenario& scenario,
                    bool kill, double seconds) {
  return workload.fleets == 1
             ? fleet_episode(workload, scenario, kill, seconds)
             : plane_episode(workload, scenario, kill, seconds);
}

// ---------------------------------------------------------------------
// Set-up: scenario JSON text -> every session ready to tick

double setup_once(const Workload& workload) {
  const auto begin = Clock::now();
  const core::Scenario scenario = core::load_scenario(workload.scenario_json);
  if (workload.fleets == 1) {
    runtime::RuntimeOptions options;
    options.factor_cache = std::make_shared<solvers::CondensedFactorCache>();
    const runtime::FleetSession session(scenario, options);
    return seconds_between(begin, Clock::now());
  }
  // The plane compiles admission in its constructor and builds sessions
  // lazily inside its workers; the same sessions are built here on the
  // plane's routed views and its (cold) factor cache.
  std::vector<controlplane::FleetSpec> specs(workload.fleets);
  for (std::size_t f = 0; f < workload.fleets; ++f) {
    specs[f].id = fleet_id(f);
    specs[f].scenario = scenario;
  }
  controlplane::PlaneOptions plane_options;
  plane_options.workers = workload.workers;
  const controlplane::ControlPlane plane(std::move(specs), plane_options);
  std::vector<std::unique_ptr<runtime::FleetSession>> sessions;
  for (std::size_t f = 0; f < workload.fleets; ++f) {
    core::Scenario routed = scenario;
    routed.workload =
        std::make_shared<admission::RoutedWorkload>(plane.admission_plan(), f);
    routed.admission = admission::AdmissionSpec{};
    runtime::RuntimeOptions options;
    options.factor_cache = plane.factor_cache();
    sessions.push_back(
        std::make_unique<runtime::FleetSession>(std::move(routed), options));
  }
  return seconds_between(begin, Clock::now());
}

// Set-up samples taken before each episode, so they span the run: at
// least 3, then more while they take under 1% of the run, up to 100.
void sample_setup(const Workload& workload, double seconds,
                  std::vector<double>& samples) {
  double total = 0.0;
  for (int rep = 0; rep < 100 && (rep < 3 || total < 0.01 * seconds);
       ++rep) {
    samples.push_back(setup_once(workload));
    total += samples.back();
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

}  // namespace

RunResult run_timed(const Workload& workload, double seconds) {
  RunResult run;
  const auto begin = Clock::now();
  const core::Scenario scenario = core::load_scenario(workload.scenario_json);
  std::vector<double> setup;

  std::vector<double> tick_s;
  double tick_wall_s = 0.0;
  std::vector<double> restore_s, checkpoint_s;
  std::optional<Outcome> first;
  std::size_t checkpoint_bytes = 0, resume_bytes = 0, episodes = 0;
  // Episodes while the next one is expected to end within the run.
  for (double elapsed = 0.0;
       episodes == 0 || elapsed * (episodes + 1) / episodes <= seconds;
       elapsed = seconds_between(begin, Clock::now())) {
    sample_setup(workload, seconds, setup);
    Episode episode = run_episode(workload, scenario, /*kill=*/true, seconds);
    ++episodes;
    tick_s.insert(tick_s.end(), episode.tick_s.begin(), episode.tick_s.end());
    tick_wall_s += episode.tick_wall_s;
    restore_s.push_back(episode.restore_s);
    checkpoint_s.insert(checkpoint_s.end(), episode.checkpoint_s.begin(),
                        episode.checkpoint_s.end());
    for (auto& failure : episode.failures) {
      run.check_failures.push_back(std::move(failure));
    }
    run.attempted += episode.outcome.ticks;
    run.failed += episode.outcome.failed_ticks;
    if (!first) {
      first = std::move(episode.outcome);
      checkpoint_bytes = episode.checkpoint_bytes;
      resume_bytes = episode.resume_bytes;
    } else {
      check_same(*first, episode.outcome,
                 "episode " + std::to_string(episodes) + " vs episode 1",
                 run.check_failures);
      if (episode.checkpoint_bytes != checkpoint_bytes) {
        run.check_failures.push_back("end-of-run checkpoint size changed "
                                     "between episodes");
      }
    }
  }

  const Outcome& o = *first;
  run.metrics = {
      {"ticks_per_s", ratio(static_cast<double>(tick_s.size()), tick_wall_s),
       "1/s"},
      {"tick_p50_ms", percentile(tick_s, 0.50) * 1e3, "ms"},
      {"tick_p99_ms", percentile(tick_s, 0.99) * 1e3, "ms"},
      {"setup_s", median(setup), "s"},
      {"checkpoint_s", median(checkpoint_s), "s"},
      {"restore_s", median(restore_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"checkpoint_mb", static_cast<double>(checkpoint_bytes) / 1e6, "MB"},
      {"cost_usd", o.cost_usd, "USD"},
      {"power_step_p99_mw", o.power_step_p99_mw(), "MW"},
      {"budget_met_share", o.budget_met_share(), "share"},
      {"sla_met_share", o.sla_met_share(), "share"},
      {"ok_tick_share", o.ok_tick_share(), "share"},
  };
  run.work = {
      {"episodes", static_cast<double>(episodes), "count"},
      {"ticks_per_episode", static_cast<double>(o.ticks), "count"},
      {"tick_samples", static_cast<double>(tick_s.size()), "count"},
      {"setup_samples", static_cast<double>(setup.size()), "count"},
      {"qp_iters_per_episode", static_cast<double>(o.qp_iterations), "count"},
      {"fallback_ticks_per_episode", static_cast<double>(o.fallback_ticks),
       "count"},
      {"invariant_violations_per_episode",
       static_cast<double>(o.invariant_violations), "count"},
      {"resume_checkpoint_bytes", static_cast<double>(resume_bytes), "B"},
      {"end_checkpoint_bytes", static_cast<double>(checkpoint_bytes), "B"},
  };
  return run;
}

std::vector<std::string> end_checkpoints(const Workload& workload,
                                         bool kill_and_resume) {
  const core::Scenario scenario = core::load_scenario(workload.scenario_json);
  Episode episode = run_episode(workload, scenario, kill_and_resume, 0.0);
  if (!episode.failures.empty()) {
    throw std::runtime_error(episode.failures.front());
  }
  return std::move(episode.end_checkpoints);
}

namespace {

// ---------------------------------------------------------------------
// Composed path: each period built from the layers' public calls, in
// the order core::run_simulation and FleetSession::execute_step use

enum Layer : std::uint8_t {
  kTick,       // one control period (root span)
  kPrice,      // PriceModel::price per IDC
  kRates,      // WorkloadSource::rates
  kPolicy,     // CostController::step
  kPlant,      // Fleet::set_operating_point + advance, FluidQueue::step
  kRecord,     // core::record_step
  kPredict,    // replay beside the tick: ArPredictor observe + trajectory
  kReference,  // replay beside the tick: control::solve_reference
  kNumLayers
};

constexpr const char* kLayerNames[kNumLayers] = {
    "tick",        "market.price",     "workload.rates",
    "core.policy", "datacenter.plant", "core.record",
    "workload.predict", "control.reference"};

// In-memory spans, written out when the run ends.
struct SpanLog {
  struct Span {
    Layer layer;
    std::uint32_t pass;
    std::uint32_t fleet;
    std::uint32_t tick;
    std::int64_t parent;  // index of the causing span, -1 for a root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;

  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
        .count();
  }
  std::int64_t add(Layer layer, std::uint32_t pass, std::uint32_t fleet,
                   std::uint32_t tick, std::int64_t parent,
                   Clock::time_point start, Clock::time_point end) {
    spans.push_back({layer, pass, fleet, tick, parent, ns(start), ns(end)});
    return static_cast<std::int64_t>(spans.size()) - 1;
  }
  void write(const std::string& path, const std::string& workload) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    std::fprintf(out, "{\"workload\": \"%s\", \"clock\": \"steady_clock_ns\", "
                      "\"fields\": [\"name\", \"pass\", \"fleet\", \"tick\", "
                      "\"parent\", \"start_ns\", \"end_ns\"], \"spans\": [",
                 workload.c_str());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(out, "%s[\"%s\", %u, %u, %u, %lld, %lld, %lld]",
                   i ? ",\n" : "\n", kLayerNames[s.layer], s.pass, s.fleet,
                   s.tick, static_cast<long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    std::fprintf(out, "\n]}\n");
    if (std::fclose(out) != 0) {
      throw std::runtime_error("cannot write spans to " + path);
    }
  }
};

// What one composed run of a fleet's window produced.
struct ComposedFleet {
  core::SimulationTrace trace;
  core::SimulationSummary summary;
  engine::RunTelemetry telemetry;
  std::vector<double> qp_iterations;  // per tick
  std::uint64_t reference_solves = 0;
  std::uint64_t reference_mismatches = 0;
  AllocCount allocs;  // inside the ticks
  std::uint64_t trace_bytes = 0;  // capacity of every trace series
  std::uint64_t trace_rows = 0;
};

std::uint64_t series_bytes(const std::vector<std::vector<double>>& series) {
  std::uint64_t bytes = 0;
  for (const auto& row : series) bytes += row.capacity() * sizeof(double);
  return bytes;
}

std::uint64_t trace_bytes(const core::SimulationTrace& t) {
  return (t.time_s.capacity() + t.total_power_w.capacity() +
          t.cumulative_cost.capacity()) *
             sizeof(double) +
         series_bytes(t.power_w) + series_bytes(t.servers_on) +
         series_bytes(t.idc_load_rps) + series_bytes(t.price_per_mwh) +
         series_bytes(t.latency_s) + series_bytes(t.backlog_req) +
         series_bytes(t.transient_delay_s) + series_bytes(t.portal_rps) +
         series_bytes(t.grid_power_w) + series_bytes(t.battery_soc_j);
}

ComposedFleet compose_fleet(const core::Scenario& sc, std::uint32_t pass,
                            std::uint32_t fleet_index, SpanLog& log) {
  ComposedFleet out;
  const std::size_t n = sc.num_idcs();
  const std::size_t c = sc.num_portals();
  const std::uint64_t steps = sc.num_steps();
  const double start = sc.start_time_s.value();
  const double ts = sc.ts_s.value();
  bool any_battery = false;
  for (const auto& idc : sc.idcs) any_battery |= idc.battery.present();

  core::CostController controller(core::controller_config_from(
      sc, std::make_shared<solvers::CondensedFactorCache>()));
  datacenter::Fleet fleet(sc.idcs);
  std::vector<datacenter::FluidQueue> queues(n);
  std::vector<double> last_power(n, 0.0);

  // Warm start at the optimum of the hour before the window.
  {
    const units::Seconds t_prev =
        std::max(units::Seconds::zero(), sc.start_time_s - units::Seconds{3600.0});
    core::OptimalPolicy seed(sc.idcs, c, sc.controller.cost_basis);
    core::PolicyContext context;
    context.time_s = t_prev;
    context.prices.resize(n, units::PricePerMwh::zero());
    for (std::size_t j = 0; j < n; ++j) {
      context.prices[j] =
          sc.prices->price(sc.idcs[j].region, t_prev, units::Watts{0.0});
    }
    context.portal_demands =
        units::typed_vector<units::Rps>(sc.workload->rates(start));
    const auto initial = seed.decide(context);
    fleet.set_operating_point(initial.allocation, initial.servers);
    controller.reset_to(initial.allocation, initial.servers);
    last_power = units::raw_vector(fleet.power_by_idc_w());
  }

  core::SimulationTrace& trace = out.trace;
  trace.policy = "control";
  trace.ts_s = ts;
  for (auto* series : {&trace.power_w, &trace.servers_on, &trace.idc_load_rps,
                       &trace.price_per_mwh, &trace.latency_s,
                       &trace.backlog_req, &trace.transient_delay_s}) {
    series->assign(n, {});
  }
  trace.portal_rps.assign(c, {});
  if (any_battery) {
    trace.grid_power_w.assign(n, {});
    trace.battery_soc_j.assign(n, {});
  }
  std::vector<double> prices(n);
  std::vector<double> demands = sc.workload->rates(start);
  for (std::size_t j = 0; j < n; ++j) {
    prices[j] = sc.prices
                    ->price(sc.idcs[j].region, sc.start_time_s,
                            units::Watts{last_power[j]})
                    .value();
  }
  core::record_step(trace, fleet, queues, units::Seconds::zero(),
                    units::typed_vector<units::PricePerMwh>(prices),
                    units::typed_vector<units::Rps>(demands), {},
                    controller.battery_soc_j());

  std::vector<workload::ArPredictor> predictors(
      c, workload::ArPredictor(sc.controller.ar_order));
  std::vector<std::vector<double>> predicted(c);
  const bool trajectory =
      sc.controller.predict_workload && sc.controller.reference_trajectory;
  const std::size_t beta1 = sc.controller.horizons.prediction;
  out.qp_iterations.reserve(steps);

  for (std::uint64_t k = 0; k < steps; ++k) {
    const double t = start + static_cast<double>(k) * ts;
    std::vector<double> cycle_peaks;
    if (const auto* meter = controller.billing_meter()) {
      cycle_peaks = meter->cycle_peaks_w();
    }

    const AllocCount before = alloc_count();
    set_alloc_counting(true);
    const auto t0 = Clock::now();
    for (std::size_t j = 0; j < n; ++j) {
      prices[j] = sc.prices
                      ->price(sc.idcs[j].region, units::Seconds{t},
                              units::Watts{last_power[j]})
                      .value();
    }
    const auto t1 = Clock::now();
    demands = sc.workload->rates(t);
    const auto t2 = Clock::now();
    const auto typed_prices = units::typed_vector<units::PricePerMwh>(prices);
    const auto typed_demands = units::typed_vector<units::Rps>(demands);
    const core::CostController::Decision decision =
        controller.step(typed_prices, typed_demands);
    const auto t3 = Clock::now();
    fleet.set_operating_point(decision.allocation, decision.servers);
    fleet.advance(sc.ts_s, typed_prices);
    last_power = units::raw_vector(fleet.power_by_idc_w());
    std::vector<double> grid_w;
    if (any_battery) {
      grid_w.resize(n);
      for (std::size_t j = 0; j < n; ++j) {
        const double dispatch =
            decision.battery_w.empty() ? 0.0 : decision.battery_w[j];
        grid_w[j] = std::max(0.0, last_power[j] - dispatch);
        last_power[j] = grid_w[j];
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      const auto& idc = fleet.idc(j);
      queues[j].step(idc.assigned_load().value(),
                     static_cast<double>(idc.servers_on()) *
                         idc.config().power.service_rate.value(),
                     ts);
    }
    const auto t4 = Clock::now();
    core::record_step(trace, fleet, queues, units::Seconds{t - start + ts},
                      typed_prices, typed_demands, grid_w,
                      decision.battery_soc_j);
    const auto t5 = Clock::now();
    set_alloc_counting(false);
    const AllocCount after = alloc_count();
    out.allocs.calls += after.calls - before.calls;
    out.allocs.bytes += after.bytes - before.bytes;

    out.telemetry.record_solver(decision.mpc_status, decision.mpc_iterations,
                                decision.mpc_warm_started,
                                decision.fallback_tier);
    out.telemetry.record_invariants(decision.invariants);
    out.qp_iterations.push_back(static_cast<double>(decision.mpc_iterations));

    const auto tick = static_cast<std::uint32_t>(k);
    const std::int64_t root =
        log.add(kTick, pass, fleet_index, tick, -1, t0, t5);
    log.add(kPrice, pass, fleet_index, tick, root, t0, t1);
    log.add(kRates, pass, fleet_index, tick, root, t1, t2);
    log.add(kPolicy, pass, fleet_index, tick, root, t2, t3);
    log.add(kPlant, pass, fleet_index, tick, root, t3, t4);
    log.add(kRecord, pass, fleet_index, tick, root, t4, t5);

    // Replays beside the tick, on the tick's own inputs.
    const auto p0 = Clock::now();
    for (std::size_t i = 0; i < c; ++i) {
      predictors[i].observe(demands[i]);
      predicted[i] = predictors[i].predict_trajectory(beta1);
    }
    const auto p1 = Clock::now();
    control::ReferenceProblem problem;
    problem.idcs = sc.idcs;
    problem.prices = prices;
    problem.portal_demands = decision.predicted_demands;
    problem.power_budgets_w = units::raw_vector(sc.power_budgets_w);
    problem.basis = sc.controller.cost_basis;
    if (controller.billing_meter() && sc.controller.peak_shadow_weight > 0.0) {
      const units::Seconds now =
          sc.start_time_s + sc.ts_s * static_cast<double>(k);
      double rate_per_kw = sc.billing.demand_rate_per_kw;
      if (sc.billing.in_coincident_window(now)) {
        rate_per_kw += sc.billing.coincident_rate_per_kw;
      }
      problem.cycle_peak_w = cycle_peaks;
      problem.peak_shadow_per_mwh = sc.controller.peak_shadow_weight *
                                    rate_per_kw * 1e3 / sc.billing.cycle_hours;
    }
    const auto base = control::solve_reference(problem);
    ++out.reference_solves;
    if (base.reference_power_w != decision.reference.reference_power_w) {
      ++out.reference_mismatches;
    }
    if (trajectory) {
      for (std::size_t s = 1; s <= beta1; ++s) {
        control::ReferenceProblem ahead = problem;
        for (std::size_t i = 0; i < c; ++i) {
          ahead.portal_demands[i] = predicted[i][s - 1];
        }
        control::solve_reference(ahead);
        ++out.reference_solves;
      }
    }
    const auto p2 = Clock::now();
    log.add(kPredict, pass, fleet_index, tick, -1, p0, p1);
    log.add(kReference, pass, fleet_index, tick, -1, p1, p2);
  }
  out.summary = core::summarize_trace(sc, trace, fleet, trace.policy);
  out.trace_bytes = trace_bytes(trace);
  out.trace_rows = trace.time_s.size();
  out.telemetry.steps = steps;
  return out;
}

// The admission layer of a workload. The plane compiles the scenario's
// own block; a single fleet replays the layer with one generous tenant
// owning every portal, so nothing is shed.
struct AdmissionFigures {
  std::shared_ptr<const admission::AdmissionPlan> plan;
  double compile_ms = 0.0;      // median of the compiles
  double route_ns = 0.0;        // per RoutedWorkload::rate lookup
  double shed_share = 0.0;
  std::uint64_t lookups = 0;
};

AdmissionFigures measure_admission(const Workload& workload,
                                   const core::Scenario& sc) {
  admission::AdmissionSpec spec = sc.admission;
  if (!spec.enabled()) {
    double offered = 0.0;
    for (double rate : sc.workload->rates(sc.start_time_s.value())) {
      offered += rate;
    }
    spec.tenants.push_back({"t0", 10.0 * offered, sc.ts_s.value()});
    for (std::size_t p = 0; p < sc.num_portals(); ++p) {
      spec.portals.push_back({"p" + std::to_string(p), "t0", 0});
    }
  }
  admission::AdmissionGrid grid;
  grid.start_s = sc.start_time_s.value();
  grid.ts_s = sc.ts_s.value();
  grid.steps = sc.num_steps();
  double capacity_rps = 0.0;
  for (const auto& idc : sc.idcs) {
    capacity_rps +=
        static_cast<double>(idc.max_servers) * idc.power.service_rate.value();
  }
  const std::vector<double> capacities(workload.fleets, capacity_rps);

  AdmissionFigures figures;
  std::vector<double> compile_s;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    figures.plan = std::make_shared<const admission::AdmissionPlan>(
        spec, sc.workload, grid, capacities);
    compile_s.push_back(seconds_between(t0, Clock::now()));
  }
  figures.compile_ms = median(compile_s) * 1e3;
  figures.shed_share = figures.plan->accounting().shed_fraction();

  double admitted = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t f = 0; f < workload.fleets; ++f) {
    const admission::RoutedWorkload routed(figures.plan, f);
    for (std::uint64_t k = 0; k < grid.steps; ++k) {
      const double t = grid.start_s + static_cast<double>(k) * grid.ts_s;
      for (std::size_t i = 0; i < routed.num_portals(); ++i) {
        admitted += routed.rate(i, t);
        ++figures.lookups;
      }
    }
  }
  figures.route_ns =
      seconds_between(t0, Clock::now()) * 1e9 /
      static_cast<double>(std::max<std::uint64_t>(figures.lookups, 1));
  if (!(admitted > 0.0)) {
    throw std::runtime_error("admission replay admitted no demand");
  }
  return figures;
}

// The scenario each fleet runs: the plane's routed view of the shared
// source, or the scenario itself for a single fleet.
std::vector<core::Scenario> fleet_scenarios(
    const Workload& workload, const core::Scenario& sc,
    const std::shared_ptr<const admission::AdmissionPlan>& plan) {
  std::vector<core::Scenario> scenarios(workload.fleets, sc);
  if (workload.fleets > 1) {
    for (std::size_t f = 0; f < workload.fleets; ++f) {
      scenarios[f].workload =
          std::make_shared<admission::RoutedWorkload>(plan, f);
      scenarios[f].admission = admission::AdmissionSpec{};
    }
  }
  return scenarios;
}

// p99 the runtime's fixed-storage histogram reports: the upper edge of
// the bucket holding the 99th-percentile sample (max for the open one).
double histogram_p99_us(const engine::StepTimingHistogram& hist) {
  const auto target = static_cast<std::uint64_t>(
      std::ceil(0.99 * static_cast<double>(hist.samples)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < engine::StepTimingHistogram::kBuckets; ++i) {
    seen += hist.counts[i];
    if (seen >= target) {
      const double edge = engine::StepTimingHistogram::bucket_upper_us(i);
      return std::isfinite(edge) ? edge : hist.max_us;
    }
  }
  return hist.max_us;
}

// FleetSession::poll alone: the merge of the price, workload and timer
// streams over the whole window, without applying the events.
double poll_us_per_event(const core::Scenario& scenario) {
  runtime::FleetSession session(scenario, runtime::RuntimeOptions{});
  util::RoleGuard stream(session.stream_role());
  std::uint64_t events = 0;
  const auto begin = Clock::now();
  while (session.poll()) ++events;
  return seconds_between(begin, Clock::now()) * 1e6 /
         static_cast<double>(std::max<std::uint64_t>(events, 1));
}

}  // namespace

RunResult run_traced(const Workload& workload, double seconds,
                     const std::string& spans_path) {
  RunResult run;
  const auto begin = Clock::now();
  const core::Scenario sc = core::load_scenario(workload.scenario_json);

  // The session path exactly as the timed run drives it.
  const Episode session = run_episode(workload, sc, /*kill=*/true, seconds);
  run.check_failures = session.failures;
  run.attempted += session.outcome.ticks;
  run.failed += session.outcome.failed_ticks;

  const AdmissionFigures admission = measure_admission(workload, sc);
  const std::vector<core::Scenario> scenarios =
      fleet_scenarios(workload, sc, admission.plan);
  const double poll_us = poll_us_per_event(scenarios.front());

  // Composed passes while the next one is expected to end within the
  // run (at least one). The exact counts come from the first and must
  // repeat in every other; the spans file keeps the first pass.
  SpanLog log;
  log.spans.reserve(workload.fleets * workload.steps * kNumLayers);
  std::size_t first_pass_spans = 0;
  const double composed_from = seconds_between(begin, Clock::now());
  std::optional<Outcome> first;
  std::vector<double> qp_iterations;
  std::uint64_t reference_solves = 0, reference_mismatches = 0;
  AllocCount allocs;
  std::uint64_t trace_bytes_total = 0, trace_rows = 0;
  std::uint32_t passes = 0;
  for (double elapsed = composed_from;
       passes == 0 || elapsed + (elapsed - composed_from) / passes <= seconds;
       elapsed = seconds_between(begin, Clock::now())) {
    Outcome outcome;
    std::vector<double> iterations;
    std::uint64_t solves = 0;
    AllocCount pass_allocs;
    std::uint64_t pass_trace_bytes = 0, pass_trace_rows = 0;
    for (std::size_t f = 0; f < workload.fleets; ++f) {
      const ComposedFleet fleet = compose_fleet(
          scenarios[f], passes, static_cast<std::uint32_t>(f), log);
      add_fleet(outcome, sc, fleet.summary, fleet.trace, fleet.telemetry);
      iterations.insert(iterations.end(), fleet.qp_iterations.begin(),
                        fleet.qp_iterations.end());
      solves += fleet.reference_solves;
      reference_mismatches += fleet.reference_mismatches;
      pass_allocs.calls += fleet.allocs.calls;
      pass_allocs.bytes += fleet.allocs.bytes;
      pass_trace_bytes += fleet.trace_bytes;
      pass_trace_rows += fleet.trace_rows;
    }
    run.attempted += outcome.ticks;
    ++passes;
    if (!first) {
      first_pass_spans = log.spans.size();
      first = std::move(outcome);
      qp_iterations = std::move(iterations);
      reference_solves = solves;
      allocs = pass_allocs;
      trace_bytes_total = pass_trace_bytes;
      trace_rows = pass_trace_rows;
    } else {
      check_same(*first, outcome,
                 "composed pass " + std::to_string(passes) + " vs pass 1",
                 run.check_failures);
      if (solves != reference_solves || pass_allocs.calls != allocs.calls ||
          pass_allocs.bytes != allocs.bytes ||
          pass_trace_bytes != trace_bytes_total) {
        run.check_failures.push_back("composed pass " +
                                     std::to_string(passes) +
                                     ": work counts differ from pass 1");
      }
    }
  }

  // The composed day must reproduce the session path (which was killed
  // and resumed) exactly.
  check_same(session.outcome, *first, "composed run vs session run",
             run.check_failures);
  if (reference_mismatches != 0) {
    run.check_failures.push_back(
        "reference replay differs from the controller's reference on " +
        std::to_string(reference_mismatches) + " ticks");
  }

  // Per-layer time from the spans.
  double layer_ns[kNumLayers] = {};
  std::vector<double> policy_us, tick_us;
  for (const SpanLog::Span& span : log.spans) {
    const auto ns = static_cast<double>(span.end_ns - span.start_ns);
    layer_ns[span.layer] += ns;
    if (span.layer == kPolicy) policy_us.push_back(ns / 1e3);
    if (span.layer == kTick) tick_us.push_back(ns / 1e3);
  }
  const auto per_tick_us = [&](Layer layer) {
    return ratio(layer_ns[layer] / 1e3, static_cast<double>(tick_us.size()));
  };
  engine::StepTimingHistogram hist;
  for (double us : tick_us) hist.record(us);
  const double exact_p99_us = percentile(tick_us, 0.99);

  const Outcome& o = *first;
  const double ticks = static_cast<double>(o.ticks);
  const double end_mb = static_cast<double>(session.checkpoint_bytes) / 1e6;
  const double resume_kb = static_cast<double>(session.resume_bytes) / 1e3;
  const double lookups = static_cast<double>(session.cache_hits +
                                             session.cache_misses);
  run.metrics = {
      {"solvers.qp_iters_p50", percentile(qp_iterations, 0.50), "count"},
      {"solvers.qp_iters_p99", percentile(qp_iterations, 0.99), "count"},
      {"solvers.qp_iters_total", static_cast<double>(o.qp_iterations), "count"},
      {"solvers.fallback_share", ratio(o.fallback_ticks, ticks), "share"},
      {"control.reference_us_per_tick", per_tick_us(kReference), "us"},
      {"control.reference_solves", static_cast<double>(reference_solves),
       "count"},
      {"workload.predict_us_per_tick", per_tick_us(kPredict), "us"},
      {"core.policy_us_p50", percentile(policy_us, 0.50), "us"},
      {"core.policy_us_p99", percentile(policy_us, 0.99), "us"},
      {"core.allocs_per_tick", ratio(allocs.calls, ticks), "count"},
      {"core.alloc_bytes_per_tick", ratio(allocs.bytes, ticks), "B"},
      {"core.record_us_per_tick", per_tick_us(kRecord), "us"},
      {"datacenter.plant_us_per_tick", per_tick_us(kPlant), "us"},
      {"market.price_us_per_tick", per_tick_us(kPrice), "us"},
      {"runtime.trace_bytes_per_step",
       ratio(trace_bytes_total, static_cast<double>(trace_rows)), "B"},
      {"runtime.checkpoint_kb", end_mb * 1e3, "KB"},
      {"runtime.checkpoint_bytes_per_step",
       ratio(session.checkpoint_bytes, ticks), "B"},
      {"runtime.serialize_ms_per_mb",
       ratio(median(session.checkpoint_s) * 1e3, end_mb),
       "ms/MB"},
      {"runtime.parse_ms_per_kb", ratio(session.resume_parse_s * 1e3, resume_kb),
       "ms/KB"},
      {"runtime.poll_us_per_event", poll_us, "us"},
      {"admission.plan_compile_ms", admission.compile_ms, "ms"},
      {"admission.route_ns_per_lookup", admission.route_ns, "ns"},
      {"admission.shed_share", admission.shed_share, "share"},
      {"controlplane.worker_busy_share",
       ratio(session.busy_s,
             static_cast<double>(workload.workers) * session.tick_wall_s),
       "share"},
      {"controlplane.steals", static_cast<double>(session.steals), "count"},
      {"controlplane.factor_cache_hit_share",
       ratio(static_cast<double>(session.cache_hits), lookups), "share"},
      {"engine.step_hist_p99_rel_err",
       ratio(std::fabs(histogram_p99_us(hist) - exact_p99_us), exact_p99_us),
       "share"},
      {"trace.tick_p50_overhead_ms",
       percentile(tick_us, 0.50) / 1e3 - percentile(session.tick_s, 0.50) * 1e3,
       "ms"},
  };
  run.work = {
      {"composed_passes", static_cast<double>(passes), "count"},
      {"ticks_per_pass", ticks, "count"},
      {"spans_per_pass", static_cast<double>(first_pass_spans), "count"},
      {"admission_lookups", static_cast<double>(admission.lookups), "count"},
      {"invariant_violations_per_pass",
       static_cast<double>(o.invariant_violations), "count"},
  };
  if (!spans_path.empty()) {
    log.spans.resize(first_pass_spans);
    log.write(spans_path, workload.name);
  }
  return run;
}

}  // namespace perfbench
