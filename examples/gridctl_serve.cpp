// gridctl_serve — run a scenario through the online control runtime:
// replay an LMP trace (or any JSON scenario) against the two-time-scale
// controller as a live event-driven service instead of a batch loop.
//
//   gridctl_serve [scenario.json] [--accel X] [--strict]
//                 [--report out.json] [--csv out.csv]
//                 [--checkpoint file] [--resume file] [--stop-after N]
//                 [--drop P] [--late P] [--lateness S] [--jitter S]
//                 [--seed N] [--deadline-ms X] [--degrade] [--progress N]
//
// `--accel 10000` replays 10 000 event-seconds per wall second (0 =
// free run). A live report line prints every `--progress` steps; the
// final report is SweepReport-compatible JSON (`--report`), so the
// bench/analysis tooling reads a served run and a swept run the same
// way. `--stop-after N` stops resumably at step N and `--checkpoint`
// persists the full runtime state; a later `--resume` continues
// bit-identically (same final cost/trace as an uninterrupted run).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "check/types.hpp"
#include "core/controls.hpp"
#include "core/paper.hpp"
#include "core/scenario_io.hpp"
#include "engine/sweep.hpp"
#include "runtime/control_runtime.hpp"
#include "util/units.hpp"

namespace {

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: gridctl_serve [scenario.json]\n"
      "                     [--accel X]        event-seconds per wall second "
      "(default 10000, 0 = free run)\n"
      "%s"
      "                     [--report out.json] final SweepReport-compatible "
      "JSON\n"
      "                     [--csv out.csv]    per-step trace\n"
      "                     [--checkpoint f]   save runtime state on exit\n"
      "                     [--resume f]       restore runtime state first\n"
      "                     [--stop-after N]   stop (resumably) at step N\n"
      "                     [--drop P]         per-tick drop probability\n"
      "                     [--late P]         per-tick lateness probability\n"
      "                     [--lateness S]     max lateness, event seconds\n"
      "                     [--jitter S]       arrival jitter, event seconds\n"
      "                     [--seed N]         fault-injection seed\n"
      "                     [--deadline-ms X]  per-step wall budget override\n"
      "                     [--degrade]        hold-last-feasible after a "
      "missed deadline\n"
      "                     [--progress N]     live report every N steps "
      "(default 10)\n"
      "                     [--units-check]    re-integrate the trace "
      "through the typed\n"
      "                                        units layer and cross-check "
      "the summary\n",
      gridctl::core::SolverOverrides::usage());
}

// --units-check: same cross-check as gridctl_sim — rectangle-integrate
// the recorded trace through the dimension-checked Quantity layer and
// compare against the runtime's own accumulators. Agreement is to
// float-reassociation tolerance, not bit-identity.
bool run_units_check(const gridctl::runtime::RuntimeResult& result) {
  using namespace gridctl;
  const core::TraceTotals totals = core::integrate_trace(*result.trace);
  const auto& summary = result.summary;
  const double cost_err =
      std::abs(totals.cost.value() - summary.total_cost.value());
  const double energy_err =
      std::abs(totals.energy.value() - summary.total_energy.value());
  const double cost_tol =
      1e-9 * std::max(1.0, std::abs(summary.total_cost.value()));
  const double energy_tol =
      1e-9 * std::max(1.0, std::abs(summary.total_energy.value()));
  const bool ok = cost_err <= cost_tol && energy_err <= energy_tol;
  std::printf(
      "units    : typed re-integration %s (cost |d| $%.3g, energy |d| "
      "%.3g J over %.0f s)\n",
      ok ? "ok" : "MISMATCH", cost_err, energy_err, totals.duration.value());
  if (!ok) {
    std::fprintf(stderr,
                 "units-check failed: typed $%.*g vs summary $%.*g, "
                 "typed %.*g J vs summary %.*g J\n",
                 17, totals.cost.value(), 17, summary.total_cost.value(), 17,
                 totals.energy.value(), 17, summary.total_energy.value());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gridctl;

  std::string scenario_path;
  std::string report_path;
  std::string csv_path;
  std::string checkpoint_path;
  std::string resume_path;
  runtime::RuntimeOptions options;
  options.acceleration = 10000.0;
  options.progress_every = 10;
  bool units_check = false;
  core::SolverOverrides solver;
  runtime::FaultSpec faults;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (solver.parse_flag(argc, argv, i)) {
      continue;
    } else if (arg == "--accel" && i + 1 < argc) {
      options.acceleration = std::atof(argv[++i]);
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--csv" && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      checkpoint_path = argv[++i];
    } else if (arg == "--resume" && i + 1 < argc) {
      resume_path = argv[++i];
    } else if (arg == "--stop-after" && i + 1 < argc) {
      options.stop_after_step =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--drop" && i + 1 < argc) {
      faults.drop_probability = std::atof(argv[++i]);
    } else if (arg == "--late" && i + 1 < argc) {
      faults.late_probability = std::atof(argv[++i]);
    } else if (arg == "--lateness" && i + 1 < argc) {
      faults.max_lateness_s = std::atof(argv[++i]);
    } else if (arg == "--jitter" && i + 1 < argc) {
      faults.jitter_s = std::atof(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      faults.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      options.deadline_s = std::atof(argv[++i]) * 1e-3;
    } else if (arg == "--degrade") {
      options.degrade_on_deadline_miss = true;
    } else if (arg == "--units-check") {
      units_check = true;
    } else if (arg == "--progress" && i + 1 < argc) {
      options.progress_every = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      scenario_path = arg;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      print_usage(stderr);
      return 2;
    }
  }
  options.price_faults = faults;
  // Decorrelate the two feeds while keeping one --seed knob.
  options.workload_faults = faults;
  options.workload_faults.seed = faults.seed + 1;

  try {
    core::Scenario scenario =
        scenario_path.empty() ? core::paper::smoothing_scenario()
                              : core::load_scenario_file(scenario_path);
    solver.apply(scenario.controller.solver);
    options.record_trace = !csv_path.empty() || units_check;

    options.on_progress = [](const runtime::Progress& p) {
      std::printf(
          "[%5llu/%llu] t=%7.0fs  power %7.3f MW  cost $%10.2f  "
          "lag %6.1f ms  miss %llu  degraded %llu  dropped %llu  "
          "violations %llu\n",
          static_cast<unsigned long long>(p.step),
          static_cast<unsigned long long>(p.total_steps), p.event_time_s,
          units::watts_to_mw(p.total_power_w), p.cumulative_cost,
          p.lag_s * 1e3, static_cast<unsigned long long>(p.deadline_misses),
          static_cast<unsigned long long>(p.degraded_steps),
          static_cast<unsigned long long>(p.dropped_ticks),
          static_cast<unsigned long long>(p.invariant_violations));
      std::fflush(stdout);
    };

    std::printf("scenario : %s\n",
                scenario_path.empty() ? "<built-in paper smoothing>"
                                      : scenario_path.c_str());
    std::printf("window   : %.0f s at Ts = %.1f s (%zu steps), %s\n",
                scenario.duration_s.value(), scenario.ts_s.value(),
                scenario.num_steps(),
                options.acceleration > 0.0
                    ? (std::to_string(static_cast<long long>(
                           options.acceleration)) +
                       "x wall speed")
                          .c_str()
                    : "free run");

    std::unique_ptr<runtime::ControlRuntime> service;
    if (!resume_path.empty()) {
      const auto checkpoint = runtime::load_checkpoint(resume_path);
      std::printf("resume   : %s (step %llu)\n", resume_path.c_str(),
                  static_cast<unsigned long long>(checkpoint.next_step));
      service = std::make_unique<runtime::ControlRuntime>(scenario, options,
                                                          checkpoint);
    } else {
      service = std::make_unique<runtime::ControlRuntime>(scenario, options);
    }

    const runtime::RuntimeResult result = service->run();

    const auto& summary = result.summary;
    const auto& stats = result.stats;
    std::printf("%s\n", result.completed ? "completed" : "stopped (resumable)");
    std::printf("cost     : $%.2f\n", summary.total_cost.value());
    std::printf("energy   : %.3f MWh\n", units::as_mwh(summary.total_energy));
    for (std::size_t j = 0; j < summary.idcs.size(); ++j) {
      std::printf("  idc %zu (%s): peak %.3f MW, cost $%.2f\n", j,
                  scenario.idcs[j].name.empty() ? "?"
                                                : scenario.idcs[j].name.c_str(),
                  units::watts_to_mw(summary.idcs[j].peak_power.value()),
                  summary.idcs[j].cost.value());
    }
    std::printf(
        "feeds    : %llu price + %llu workload ticks, %llu dropped, "
        "%llu late, %llu stale-price steps\n",
        static_cast<unsigned long long>(stats.price_ticks),
        static_cast<unsigned long long>(stats.workload_ticks),
        static_cast<unsigned long long>(stats.dropped_ticks),
        static_cast<unsigned long long>(stats.late_ticks),
        static_cast<unsigned long long>(stats.stale_price_steps));
    std::printf(
        "clock    : %llu deadline misses, %llu degraded steps, "
        "max lag %.1f ms, step p~ %.0f us mean / %.0f us max\n",
        static_cast<unsigned long long>(stats.deadline_misses),
        static_cast<unsigned long long>(stats.degraded_steps),
        stats.max_lag_s * 1e3, result.telemetry.step_hist.mean_us(),
        result.telemetry.step_hist.max_us);
    std::printf("checks   : %llu invariant checks, %llu violations\n",
                static_cast<unsigned long long>(
                    result.telemetry.invariants.checks),
                static_cast<unsigned long long>(
                    result.telemetry.invariants.total()));
    if (units_check && result.trace && !run_units_check(result)) return 1;

    if (!checkpoint_path.empty()) {
      runtime::save_checkpoint(checkpoint_path, service->checkpoint());
      std::printf("checkpoint: %s\n", checkpoint_path.c_str());
    }
    if (!csv_path.empty() && result.trace) {
      write_csv_file(csv_path, result.trace->to_csv());
      std::printf("trace    : %s\n", csv_path.c_str());
    }
    if (!report_path.empty()) {
      // One-job SweepReport so served runs and swept runs share a
      // report schema; the runtime's own stats ride alongside.
      engine::SweepReport report;
      report.threads = 1;
      report.wall_s = result.telemetry.total_s;
      engine::JobResult job;
      job.name = "serve/control";
      job.policy = summary.policy;
      job.ok = true;
      job.summary = summary;
      job.telemetry = result.telemetry;
      job.trace = result.trace;
      report.jobs.push_back(std::move(job));
      JsonValue::Object root;
      root.emplace("sweep", report.to_json());
      root.emplace("runtime", stats.to_json());
      write_json_file(report_path, JsonValue(std::move(root)));
      std::printf("report   : %s\n", report_path.c_str());
    }
  } catch (const check::InvariantViolationError& e) {
    std::fprintf(stderr, "invariant violation (strict): %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
