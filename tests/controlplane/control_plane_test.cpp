// Determinism and scheduling guards for the multi-fleet control plane:
// every fleet a ControlPlane drives must be bit-identical to a solo
// free-running ControlRuntime over the same scenario and options, at
// any worker count and any fairness quantum, because the schedule only
// decides *when* a fleet's events are applied, never their order. On
// top of equivalence: fairness under one slow fleet, per-fleet kill and
// resume inside the plane, shared-factorization amortization, and
// per-fleet error isolation.
#include "controlplane/control_plane.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/paper.hpp"
#include "runtime/control_runtime.hpp"
#include "util/error.hpp"

namespace gridctl::controlplane {
namespace {

core::Scenario quick_scenario(double ts_s = 20.0, double duration_s = 200.0) {
  core::Scenario scenario =
      core::paper::smoothing_scenario(units::Seconds{ts_s});
  scenario.duration_s = units::Seconds{duration_s};
  return scenario;
}

// Smallest useful shape: four control periods of the paper scenario on
// the condensed backend, cheap enough to replicate a thousand times.
core::Scenario tiny_scenario(double r_weight = 0.8) {
  core::Scenario scenario = quick_scenario(60.0, 240.0);
  scenario.controller.r_weight = r_weight;
  scenario.controller.solver.backend = solvers::LsqBackend::kCondensed;
  return scenario;
}

runtime::RuntimeResult run_solo(const core::Scenario& scenario,
                                runtime::RuntimeOptions options = {}) {
  runtime::ControlRuntime solo(scenario, std::move(options));
  return solo.run();
}

void expect_traces_identical(const core::SimulationTrace& a,
                             const core::SimulationTrace& b) {
  ASSERT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.power_w, b.power_w);
  EXPECT_EQ(a.servers_on, b.servers_on);
  EXPECT_EQ(a.idc_load_rps, b.idc_load_rps);
  EXPECT_EQ(a.price_per_mwh, b.price_per_mwh);
  EXPECT_EQ(a.latency_s, b.latency_s);
  EXPECT_EQ(a.backlog_req, b.backlog_req);
  EXPECT_EQ(a.transient_delay_s, b.transient_delay_s);
  EXPECT_EQ(a.portal_rps, b.portal_rps);
  EXPECT_EQ(a.total_power_w, b.total_power_w);
  EXPECT_EQ(a.cumulative_cost, b.cumulative_cost);
}

void expect_counters_identical(const engine::RunTelemetry& a,
                               const engine::RunTelemetry& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.solver_calls, b.solver_calls);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  EXPECT_EQ(a.status_optimal, b.status_optimal);
  EXPECT_EQ(a.status_max_iterations, b.status_max_iterations);
  EXPECT_EQ(a.status_infeasible, b.status_infeasible);
  EXPECT_EQ(a.warm_start_hits, b.warm_start_hits);
  EXPECT_EQ(a.fallback_backend_retries, b.fallback_backend_retries);
  EXPECT_EQ(a.fallback_holds, b.fallback_holds);
  EXPECT_EQ(a.invariants.checks, b.invariants.checks);
  EXPECT_EQ(a.invariants.by_kind, b.invariants.by_kind);
}

// Plane result vs. solo ControlRuntime result: trajectory, summary and
// every deterministic counter. (max_queue_depth is driver-specific —
// the plane has no pump queue — and wall timings differ by nature.)
void expect_fleet_matches_solo(const FleetResult& fleet,
                               const runtime::RuntimeResult& solo) {
  ASSERT_TRUE(fleet.ok) << fleet.id << ": " << fleet.error;
  const runtime::RuntimeResult& result = fleet.result;
  EXPECT_EQ(result.completed, solo.completed) << fleet.id;
  EXPECT_EQ(result.summary.total_cost.value(), solo.summary.total_cost.value())
      << fleet.id;
  ASSERT_NE(result.trace, nullptr) << fleet.id;
  ASSERT_NE(solo.trace, nullptr);
  expect_traces_identical(*result.trace, *solo.trace);
  expect_counters_identical(result.telemetry, solo.telemetry);
  EXPECT_EQ(result.stats.price_ticks, solo.stats.price_ticks) << fleet.id;
  EXPECT_EQ(result.stats.workload_ticks, solo.stats.workload_ticks)
      << fleet.id;
  EXPECT_EQ(result.stats.dropped_ticks, solo.stats.dropped_ticks) << fleet.id;
  EXPECT_EQ(result.stats.late_ticks, solo.stats.late_ticks) << fleet.id;
  EXPECT_EQ(result.stats.stale_price_steps, solo.stats.stale_price_steps)
      << fleet.id;
  EXPECT_EQ(result.stats.stale_workload_steps, solo.stats.stale_workload_steps)
      << fleet.id;
  EXPECT_EQ(result.stats.degraded_steps, solo.stats.degraded_steps)
      << fleet.id;
}

TEST(ControlPlane, SingleFleetMatchesSoloRuntime) {
  const core::Scenario scenario = quick_scenario();
  const runtime::RuntimeResult solo = run_solo(scenario);

  std::vector<FleetSpec> specs(1);
  specs[0].id = "only";
  specs[0].scenario = scenario;
  PlaneOptions options;
  options.workers = 1;
  ControlPlane plane(std::move(specs), options);
  const PlaneReport report = plane.run();

  ASSERT_EQ(report.fleets.size(), 1u);
  EXPECT_EQ(report.workers, 1u);
  EXPECT_EQ(report.failed_fleets(), 0u);
  expect_fleet_matches_solo(report.fleets[0], solo);
}

// The core guarantee at every pool size: heterogeneous fleets (three
// smoothing templates distinguished by the move penalty r, which
// changes every allocation the MPC makes), a deliberately tiny fairness
// quantum to force many requeues and steals, and worker counts from
// serial to more-workers-than-fleets.
TEST(ControlPlane, HeterogeneousFleetsMatchSoloAtAnyWorkerCount) {
  const double r_weights[3] = {0.0, 0.8, 2.0};
  std::vector<core::Scenario> templates;
  std::vector<runtime::RuntimeResult> solos;
  for (double r : r_weights) {
    core::Scenario scenario = quick_scenario();
    scenario.controller.r_weight = r;
    solos.push_back(run_solo(scenario));
    templates.push_back(std::move(scenario));
  }

  for (std::size_t workers : {1u, 2u, 5u}) {
    std::vector<FleetSpec> specs(6);
    for (std::size_t f = 0; f < specs.size(); ++f) {
      specs[f].id = "fleet-" + std::to_string(f);
      specs[f].scenario = templates[f % templates.size()];
    }
    PlaneOptions options;
    options.workers = workers;
    options.batch_events = 3;  // ~one control period per quantum
    ControlPlane plane(std::move(specs), options);
    const PlaneReport report = plane.run();

    ASSERT_EQ(report.fleets.size(), 6u) << workers << " workers";
    EXPECT_EQ(report.failed_fleets(), 0u) << workers << " workers";
    for (std::size_t f = 0; f < report.fleets.size(); ++f) {
      SCOPED_TRACE(std::to_string(workers) + " workers, fleet " +
                   std::to_string(f));
      expect_fleet_matches_solo(report.fleets[f], solos[f % solos.size()]);
    }
  }
}

// Scale: a thousand fleets multiplexed over a pool must each reproduce
// their template's solo run bit-identically. Small shape (four periods,
// condensed backend) keeps this fast; four templates ensure the
// scheduler is interleaving genuinely different controllers.
TEST(ControlPlane, ThousandFleetsBitIdenticalToSolo) {
  const double r_weights[4] = {0.0, 0.4, 0.8, 1.6};
  std::vector<core::Scenario> templates;
  std::vector<runtime::RuntimeResult> solos;
  for (double r : r_weights) {
    templates.push_back(tiny_scenario(r));
    solos.push_back(run_solo(templates.back()));
  }

  constexpr std::size_t kFleets = 1000;
  std::vector<FleetSpec> specs(kFleets);
  for (std::size_t f = 0; f < kFleets; ++f) {
    specs[f].id = "fleet-" + std::to_string(f);
    specs[f].scenario = templates[f % templates.size()];
  }
  PlaneOptions options;
  options.workers = 8;
  options.batch_events = 2;  // maximal interleaving pressure
  ControlPlane plane(std::move(specs), options);
  const PlaneReport report = plane.run();

  ASSERT_EQ(report.fleets.size(), kFleets);
  ASSERT_EQ(report.failed_fleets(), 0u);
  for (std::size_t f = 0; f < kFleets; ++f) {
    const runtime::RuntimeResult& solo = solos[f % solos.size()];
    const FleetResult& fleet = report.fleets[f];
    ASSERT_TRUE(fleet.ok) << fleet.id << ": " << fleet.error;
    // Bit-level trajectory comparison for every fleet; the full
    // trace/counter comparison (above) would drown the log on failure,
    // so assert on the arrays that encode the whole closed loop.
    ASSERT_EQ(fleet.result.summary.total_cost.value(),
              solo.summary.total_cost.value())
        << fleet.id;
    ASSERT_NE(fleet.result.trace, nullptr) << fleet.id;
    ASSERT_EQ(fleet.result.trace->power_w, solo.trace->power_w) << fleet.id;
    ASSERT_EQ(fleet.result.trace->servers_on, solo.trace->servers_on)
        << fleet.id;
    ASSERT_EQ(fleet.result.trace->cumulative_cost, solo.trace->cumulative_cost)
        << fleet.id;
    ASSERT_EQ(fleet.result.telemetry.solver_iterations,
              solo.telemetry.solver_iterations)
        << fleet.id;
  }
  // Spot-check the full comparison on a few representatives.
  for (std::size_t f : {0u, 499u, 999u}) {
    SCOPED_TRACE("fleet " + std::to_string(f));
    expect_fleet_matches_solo(report.fleets[f], solos[f % solos.size()]);
  }
  EXPECT_EQ(report.total_steps(),
            kFleets * templates[0].num_steps());
}

// Fairness: with one worker and a single-event quantum, three short
// fleets scheduled alongside one 10x-longer fleet must all finish while
// the slow fleet is still mid-window — the round-robin quantum
// guarantees a slow fleet cannot starve its siblings.
TEST(ControlPlane, SlowFleetDoesNotStarveShortFleets) {
  core::Scenario slow = quick_scenario(20.0, 1000.0);  // 50 steps
  core::Scenario fast = quick_scenario(20.0, 100.0);   // 5 steps

  std::atomic<std::uint64_t> slow_step{0};
  std::mutex capture_mutex;
  std::vector<std::uint64_t> slow_step_at_short_finish;

  std::vector<FleetSpec> specs(4);
  specs[0].id = "slow";
  specs[0].scenario = slow;
  specs[0].options.progress_every = 1;
  specs[0].options.on_progress = [&](const runtime::Progress& p) {
    slow_step.store(p.step, std::memory_order_relaxed);
  };
  for (std::size_t f = 1; f < specs.size(); ++f) {
    specs[f].id = "short-" + std::to_string(f);
    specs[f].scenario = fast;
    specs[f].options.progress_every = 1;
    specs[f].options.on_progress = [&](const runtime::Progress& p) {
      if (p.step == p.total_steps) {
        std::lock_guard<std::mutex> lock(capture_mutex);
        slow_step_at_short_finish.push_back(
            slow_step.load(std::memory_order_relaxed));
      }
    };
  }
  PlaneOptions options;
  options.workers = 1;
  options.batch_events = 1;
  ControlPlane plane(std::move(specs), options);
  const PlaneReport report = plane.run();

  EXPECT_EQ(report.failed_fleets(), 0u);
  for (const FleetResult& fleet : report.fleets) {
    EXPECT_TRUE(fleet.result.completed) << fleet.id;
  }
  const std::uint64_t slow_total = slow.num_steps();
  ASSERT_EQ(slow_step_at_short_finish.size(), 3u);
  for (std::uint64_t step : slow_step_at_short_finish) {
    EXPECT_LT(step, slow_total)
        << "a short fleet only finished after the slow fleet was done";
  }
}

// Deterministic per-fleet kill and resume: stop a subset at a step
// boundary via stop_after_step, checkpoint them out of the plane, and
// resume them in a second plane. The stitched runs must equal the
// uninterrupted solo runs bit-identically; untouched fleets are
// unaffected.
TEST(ControlPlane, KillAndResumeSubsetInsidePlane) {
  const core::Scenario scenario = quick_scenario();  // 10 steps
  const runtime::RuntimeResult solo = run_solo(scenario);

  std::vector<FleetSpec> specs(4);
  for (std::size_t f = 0; f < specs.size(); ++f) {
    specs[f].id = "fleet-" + std::to_string(f);
    specs[f].scenario = scenario;
    if (f % 2 == 1) specs[f].options.stop_after_step = 4;
  }
  PlaneOptions options;
  options.workers = 2;
  options.batch_events = 3;
  ControlPlane first(std::move(specs), options);
  const PlaneReport first_report = first.run();

  ASSERT_EQ(first_report.failed_fleets(), 0u);
  std::vector<FleetSpec> resumed;
  for (std::size_t f = 0; f < first_report.fleets.size(); ++f) {
    const FleetResult& fleet = first_report.fleets[f];
    if (f % 2 == 0) {
      // Untouched fleets ran to completion alongside the killed ones.
      expect_fleet_matches_solo(fleet, solo);
      continue;
    }
    EXPECT_FALSE(fleet.result.completed) << fleet.id;
    EXPECT_EQ(fleet.result.telemetry.steps, 4u) << fleet.id;
    FleetSpec spec;
    spec.id = fleet.id;
    spec.scenario = scenario;
    spec.checkpoint = first.checkpoint(fleet.id);
    EXPECT_EQ(spec.checkpoint->next_step, 4u) << fleet.id;
    resumed.push_back(std::move(spec));
  }
  ASSERT_EQ(resumed.size(), 2u);

  ControlPlane second(std::move(resumed), options);
  const PlaneReport second_report = second.run();
  ASSERT_EQ(second_report.failed_fleets(), 0u);
  for (const FleetResult& fleet : second_report.fleets) {
    SCOPED_TRACE(fleet.id);
    // The checkpoint carries the trace-so-far, so the resumed result
    // covers the whole window and must equal the uninterrupted run.
    expect_fleet_matches_solo(fleet, solo);
  }
}

// request_stop before run(): the fleet is parked at step zero but still
// checkpointable, and a plane resuming that checkpoint reproduces the
// uninterrupted run — the API-level kill path, timing-independent.
TEST(ControlPlane, RequestStopIsResumable) {
  const core::Scenario scenario = quick_scenario();
  const runtime::RuntimeResult solo = run_solo(scenario);

  std::vector<FleetSpec> specs(2);
  specs[0].id = "stopped";
  specs[0].scenario = scenario;
  specs[1].id = "free";
  specs[1].scenario = scenario;
  PlaneOptions options;
  options.workers = 2;
  ControlPlane plane(std::move(specs), options);
  EXPECT_TRUE(plane.request_stop("stopped"));
  EXPECT_FALSE(plane.request_stop("no-such-fleet"));
  const PlaneReport report = plane.run();

  ASSERT_EQ(report.failed_fleets(), 0u);
  EXPECT_FALSE(report.fleets[0].result.completed);
  EXPECT_EQ(report.fleets[0].result.telemetry.steps, 0u);
  expect_fleet_matches_solo(report.fleets[1], solo);

  FleetSpec resume;
  resume.id = "stopped";
  resume.scenario = scenario;
  resume.checkpoint = plane.checkpoint("stopped");
  std::vector<FleetSpec> resumed;
  resumed.push_back(std::move(resume));
  ControlPlane second(std::move(resumed), options);
  const PlaneReport second_report = second.run();
  ASSERT_EQ(second_report.failed_fleets(), 0u);
  expect_fleet_matches_solo(second_report.fleets[0], solo);
}

// Runs `r_weights.size()` tiny condensed fleets, fleet f with move
// penalty r_weights[f], on a plane of `workers` workers.
PlaneReport run_tiny_plane(const std::vector<double>& r_weights,
                           std::size_t workers) {
  std::vector<FleetSpec> specs(r_weights.size());
  for (std::size_t f = 0; f < specs.size(); ++f) {
    specs[f].id = "fleet-" + std::to_string(f);
    specs[f].scenario = tiny_scenario(r_weights[f]);
  }
  PlaneOptions options;
  options.workers = workers;
  ControlPlane plane(std::move(specs), options);
  return plane.run();
}

// Amortized MPC configuration: the factor cache holds one factorization
// per (cost, step-size rung) key, and each fleet's solver fetches a
// rung's factors on its first use of that rung. A lone fleet therefore
// misses once per rung it uses; six identical fleets miss exactly as
// often, and every other first use hits. With four workers several
// fleets reach a rung's first use concurrently.
void expect_factor_cache_amortizes(std::size_t workers) {
  constexpr std::size_t kFleets = 6;
  const PlaneReport solo = run_tiny_plane({0.8}, workers);
  ASSERT_EQ(solo.failed_fleets(), 0u);
  // The starting rung (rho = 0.1) and the one residual balancing moves
  // to; a lone solver misses on each.
  EXPECT_EQ(solo.factor_cache_misses, 2u);
  EXPECT_EQ(solo.factor_cache_hits, 0u);
  const std::uint64_t first_uses_per_fleet =
      solo.factor_cache_misses + solo.factor_cache_hits;

  const PlaneReport report =
      run_tiny_plane(std::vector<double>(kFleets, 0.8), workers);
  EXPECT_EQ(report.failed_fleets(), 0u);
  EXPECT_EQ(report.factor_cache_misses, solo.factor_cache_misses);
  EXPECT_EQ(report.factor_cache_hits,
            kFleets * first_uses_per_fleet - report.factor_cache_misses);
  EXPECT_EQ(report.factor_cache_hits, 10u);
  // Identical fleets, identical answers: the shared factors are the
  // same numbers every solo configure would have computed.
  for (const FleetResult& fleet : report.fleets) {
    EXPECT_EQ(fleet.result.summary.total_cost.value(),
              solo.fleets[0].result.summary.total_cost.value())
        << fleet.id;
  }
}

TEST(ControlPlane, FactorCacheAmortizesHomogeneousFleets) {
  expect_factor_cache_amortizes(2);
}

TEST(ControlPlane, FactorCacheAmortizesHomogeneousFleetsOnFourWorkers) {
  expect_factor_cache_amortizes(4);
}

// Distinct move penalties change the condensed Hessian: two templates
// whose fleets use two and three rungs mean exactly five factorizations,
// however many fleets share them.
TEST(ControlPlane, FactorCacheKeysOnCost) {
  const std::vector<double> templates = {0.4, 1.2};
  std::vector<std::uint64_t> first_uses;
  for (const double r : templates) {
    const PlaneReport solo = run_tiny_plane({r}, 2);
    ASSERT_EQ(solo.failed_fleets(), 0u);
    EXPECT_EQ(solo.factor_cache_hits, 0u);
    first_uses.push_back(solo.factor_cache_misses);
  }
  EXPECT_EQ(first_uses, (std::vector<std::uint64_t>{2, 3}));
  std::vector<double> r_weights;
  std::uint64_t total_first_uses = 0;
  for (std::size_t f = 0; f < 5; ++f) {
    r_weights.push_back(templates[f % 2]);
    total_first_uses += first_uses[f % 2];
  }
  const PlaneReport report = run_tiny_plane(r_weights, 2);

  EXPECT_EQ(report.failed_fleets(), 0u);
  EXPECT_EQ(report.factor_cache_misses, first_uses[0] + first_uses[1]);
  EXPECT_EQ(report.factor_cache_misses, 5u);
  EXPECT_EQ(report.factor_cache_hits,
            total_first_uses - report.factor_cache_misses);
  EXPECT_EQ(report.factor_cache_hits, 7u);
}

// A fleet whose scenario fails validation is reported through its
// result slot; every other fleet is unaffected.
TEST(ControlPlane, FleetErrorIsIsolated) {
  std::vector<FleetSpec> specs(3);
  for (std::size_t f = 0; f < specs.size(); ++f) {
    specs[f].id = "fleet-" + std::to_string(f);
    specs[f].scenario = quick_scenario();
  }
  specs[1].scenario.controller.horizons.prediction = 0;  // invalid

  PlaneOptions options;
  options.workers = 2;
  ControlPlane plane(std::move(specs), options);
  const PlaneReport report = plane.run();

  ASSERT_EQ(report.fleets.size(), 3u);
  EXPECT_EQ(report.failed_fleets(), 1u);
  EXPECT_TRUE(report.fleets[0].ok);
  EXPECT_FALSE(report.fleets[1].ok);
  EXPECT_FALSE(report.fleets[1].error.empty());
  EXPECT_TRUE(report.fleets[2].ok);
  EXPECT_TRUE(report.fleets[0].result.completed);
  EXPECT_TRUE(report.fleets[2].result.completed);

  // The sweep view carries the failure the same way SweepRunner does.
  const engine::SweepReport sweep = report.to_sweep_report();
  ASSERT_EQ(sweep.jobs.size(), 3u);
  EXPECT_EQ(sweep.jobs[1].name, "fleet-1");
  EXPECT_FALSE(sweep.jobs[1].ok);
}

TEST(ControlPlane, ValidatesSpecsUpFront) {
  EXPECT_THROW(ControlPlane(std::vector<FleetSpec>{}, PlaneOptions{}),
               InvalidArgument);

  std::vector<FleetSpec> unnamed(1);
  unnamed[0].scenario = quick_scenario();
  EXPECT_THROW(ControlPlane(std::move(unnamed), PlaneOptions{}),
               InvalidArgument);

  std::vector<FleetSpec> duplicate(2);
  duplicate[0].id = duplicate[1].id = "twin";
  duplicate[0].scenario = duplicate[1].scenario = quick_scenario();
  EXPECT_THROW(ControlPlane(std::move(duplicate), PlaneOptions{}),
               InvalidArgument);

  std::vector<FleetSpec> fine(1);
  fine[0].id = "ok";
  fine[0].scenario = quick_scenario();
  PlaneOptions zero_batch;
  zero_batch.batch_events = 0;
  EXPECT_THROW(ControlPlane(std::move(fine), zero_batch), InvalidArgument);
}

TEST(ControlPlane, RunsOnceAndGuardsCheckpointAccess) {
  std::vector<FleetSpec> specs(1);
  specs[0].id = "only";
  specs[0].scenario = quick_scenario(20.0, 100.0);
  PlaneOptions options;
  options.workers = 1;
  ControlPlane plane(std::move(specs), options);
  EXPECT_THROW(plane.checkpoint("only"), InvalidArgument);  // before run()
  plane.run();
  EXPECT_THROW(plane.run(), InvalidArgument);
  EXPECT_NO_THROW(plane.checkpoint("only"));
  EXPECT_THROW(plane.checkpoint("no-such-fleet"), InvalidArgument);
}

}  // namespace
}  // namespace gridctl::controlplane
