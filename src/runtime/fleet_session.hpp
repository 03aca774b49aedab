// FleetSession: the pump/step core of the online control runtime,
// factored out of ControlRuntime so it can be driven by *any* execution
// engine — the classic two-thread single-fleet ControlRuntime, or the
// multi-fleet ControlPlane worker pool (src/controlplane) that
// multiplexes hundreds of sessions over a fixed set of workers.
//
// A session owns one fleet's complete control state — scenario,
// controller, plant, feeds, held values, trace, telemetry — but no
// threads, no pacing clock and no event queue. It exposes two halves:
//
//  * the stream half: `poll()` merges the price feed, the workload feed
//    and the control-period timer into the next globally arrival-ordered
//    event (each TickStream is FIFO-monotone, so a k-way merge on head
//    arrivals suffices);
//  * the control half: `apply()` consumes one event in order — feed
//    ticks refresh the held price/demand values (payloads resolved at
//    consume time so demand-responsive price models see the freshest
//    power feedback), and every timer event executes one control period:
//    the controller decides, then the core::PeriodKernel that
//    core::run_simulation also runs advances, meters and records it.
//
// The two halves touch disjoint state (streams vs. everything else), so
// a driver may run them on different threads — ControlRuntime's pump
// thread polls while its control thread applies — or call both from one
// thread, as the control plane's workers do. Determinism is inherited
// from the feed layer: event ordering depends on event time only, so
// however a session is scheduled, its trajectory is bit-identical to a
// solo free-running ControlRuntime over the same scenario and options.
//
// The split is a compile-checked contract: two util::ThreadRole
// capabilities (stream_role / control_role) partition the session's
// members, `poll()` requires the stream role and `apply()` the control
// role, and a driver declares which thread owns which half with a
// scoped util::RoleGuard. Under Clang's Thread Safety Analysis a new
// code path that reaches across the split — say, apply() touching the
// tick streams — fails to compile. The roles carry no runtime state;
// the memory ordering that makes the handoff real comes from the
// driver (thread creation/join in ControlRuntime, the worker deques'
// mutex handoff in ControlPlane).
//
// Checkpoint/restore: `checkpoint()` captures the full state after the
// last applied step; a session constructed from a checkpoint resumes
// bit-identically (see tests/runtime and tests/controlplane).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/cost_controller.hpp"
#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "engine/telemetry.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/event_clock.hpp"
#include "runtime/feed.hpp"
#include "runtime/stats.hpp"
#include "solvers/qp_condensed.hpp"
#include "util/thread_annotations.hpp"

namespace gridctl::runtime {

// Live progress snapshot, delivered to RuntimeOptions::on_progress.
struct Progress {
  std::uint64_t step = 0;        // control steps executed so far
  std::uint64_t total_steps = 0;
  double event_time_s = 0.0;     // end of the last executed period
  double total_power_w = 0.0;
  double cumulative_cost = 0.0;
  double lag_s = 0.0;            // pacing lag at the last step (0 free-run)
  std::uint64_t deadline_misses = 0;
  std::uint64_t degraded_steps = 0;
  std::uint64_t dropped_ticks = 0;
  std::uint64_t invariant_violations = 0;
};

struct RuntimeOptions {
  // Event-seconds per wall second; 0 = free run (as fast as the CPU
  // allows, no pacing, no deadline). Pacing is applied by the driver
  // (ControlRuntime); the control plane always free-runs its fleets.
  double acceleration = 0.0;
  // Event-queue capacity between the pump and the control thread
  // (two-thread ControlRuntime only; sessions have no queue).
  std::size_t queue_capacity = 64;
  // Fault injection per feed (deterministic counter hashing; see
  // runtime/feed.hpp). Defaults: clean feeds.
  FaultSpec price_faults;
  FaultSpec workload_faults;
  // Seed controller + fleet at the pre-window converged operating point
  // (mirrors SimulationOptions::warm_start). Ignored when restoring.
  bool warm_start = true;
  // Keep the per-step trace in the result (always kept internally for
  // the summary and for checkpoints).
  bool record_trace = true;
  // Per-step wall budget in seconds; a step exceeding it counts as a
  // deadline miss. 0 = derive from the control period and acceleration
  // when paced; no deadline when free-running.
  double deadline_s = 0.0;
  // After a missed deadline, serve the *next* period with the no-QP
  // hold-last-feasible step so the loop catches up. Trades determinism
  // for liveness (wall clock then influences decisions) — off by
  // default; the miss counters are always recorded either way.
  bool degrade_on_deadline_miss = false;
  // Stop (resumably) once the absolute step index reaches this value;
  // 0 = run to the end of the scenario window.
  std::uint64_t stop_after_step = 0;
  // Invoke `on_progress` every this many control steps (0 = never).
  // Called from whichever thread applies the session's events.
  std::size_t progress_every = 0;
  std::function<void(const Progress&)> on_progress;
  // Optional process-wide cache of condensed MPC factorizations. Fleets
  // sharing a plant shape then pay the O((β2·N)³) configure cost once
  // (the control plane installs one cache across all its fleets).
  std::shared_ptr<solvers::CondensedFactorCache> factor_cache;
};

struct RuntimeResult {
  core::SimulationSummary summary;
  engine::RunTelemetry telemetry;
  RuntimeStats stats;
  // Null unless RuntimeOptions::record_trace.
  std::shared_ptr<const core::SimulationTrace> trace;
  bool completed = false;  // reached the end of the scenario window
};

// One merged feed/timer event. A feed tick carrying a nominal time
// equal to a timer tick is merged *before* that control step (the batch
// loop reads prices and workload at exactly t_k), so `poll()` breaks
// arrival ties in kind order price < workload < timer.
enum class EventKind : int { kPrice = 0, kWorkload = 1, kTimer = 2 };

struct Event {
  EventKind kind = EventKind::kTimer;
  Tick tick;
};

class FleetSession {
 public:
  // Fresh session at the start of the scenario window. `clock` is an
  // optional pacing observer (not owned, may be null): the session
  // never waits on it, but reports pacing lag and derives the default
  // step deadline through it when present.
  FleetSession(core::Scenario scenario, RuntimeOptions options,
               const EventClock* clock = nullptr);
  // Resume from a checkpoint (validated against the scenario). The
  // feeds rewind to their consumed-tick cursors — fault injection is
  // stateless, so the replay is exact.
  FleetSession(core::Scenario scenario, RuntimeOptions options,
               const RuntimeCheckpoint& checkpoint,
               const EventClock* clock = nullptr);

  FleetSession(const FleetSession&) = delete;
  FleetSession& operator=(const FleetSession&) = delete;

  // The two ownership tokens a driver acquires (via util::RoleGuard)
  // to declare which thread runs which half. The getters are annotated
  // so guards built from them are understood to hold the member roles.
  const util::ThreadRole& stream_role() const
      GRIDCTL_RETURN_CAPABILITY(stream_role_) {
    return stream_role_;
  }
  const util::ThreadRole& control_role() const
      GRIDCTL_RETURN_CAPABILITY(control_role_) {
    return control_role_;
  }

  // --- stream half (safe to call concurrently with `apply`) ---

  // Next merged event in arrival order, or nullopt when every stream is
  // exhausted. Consumes the underlying tick.
  std::optional<Event> poll() GRIDCTL_REQUIRES(stream_role_);

  // --- control half ---

  // Apply one polled event in order: feed ticks refresh held values,
  // timer ticks execute one control period.
  void apply(const Event& event) GRIDCTL_REQUIRES(control_role_);

  // Event-queue high-water mark bookkeeping for queued drivers.
  void record_queue_depth(std::size_t depth) GRIDCTL_REQUIRES(control_role_);

  // Next control step to execute (absolute step index).
  std::uint64_t next_step() const GRIDCTL_REQUIRES(control_role_) {
    return next_step_;
  }
  // First step index this run must NOT execute: stop_after_step when
  // set, else the end of the scenario window.
  std::uint64_t stop_step() const;
  // True once the session reached stop_step() (resumable) or the window
  // end (complete).
  bool done() const GRIDCTL_REQUIRES(control_role_) {
    return next_step_ >= stop_step();
  }
  // Event time of the next step boundary — the pacing clock's origin
  // when a driver starts (or resumes) this session.
  double resume_event_time_s() const GRIDCTL_REQUIRES(control_role_);

  // Package the run result. `wall_s` is the driver's measured wall time
  // for this drive (added to telemetry.total_s).
  RuntimeResult finish(bool completed, double wall_s)
      GRIDCTL_REQUIRES(control_role_);

  // Full resume state after the last applied step. Requires *both*
  // roles: nothing may be polling or applying while the snapshot is
  // taken.
  RuntimeCheckpoint checkpoint() const
      GRIDCTL_REQUIRES(stream_role_, control_role_);

  const core::Scenario& scenario() const { return scenario_; }
  const RuntimeOptions& options() const { return options_; }

 private:
  // Construction-time helpers; the constructors (single-threaded by
  // definition) own both halves.
  void init_common() GRIDCTL_REQUIRES(stream_role_, control_role_);
  void restore_from(const RuntimeCheckpoint& checkpoint)
      GRIDCTL_REQUIRES(stream_role_, control_role_);
  void execute_step(std::uint64_t step) GRIDCTL_REQUIRES(control_role_);
  double lag_s(double event_time_s) const;
  // Per-step wall budget from this process's options and pacing clock
  // (never restored from a checkpoint).
  double deadline_s() const;

  // Immutable after construction; readable from either half.
  core::Scenario scenario_;
  RuntimeOptions options_;
  const EventClock* clock_;  // pacing observer; may be null (free run)

  mutable util::ThreadRole stream_role_;
  mutable util::ThreadRole control_role_;

  // Control-half controller and plant: the kernel owns the fleet, its
  // fluid queues, the trace and the metered power fed back to prices.
  std::unique_ptr<core::CostController> controller_
      GRIDCTL_GUARDED_BY(control_role_);
  core::PeriodKernel kernel_ GRIDCTL_GUARDED_BY(control_role_);
  // The feed objects straddle the split internally: their TickStream
  // cursors belong to the stream half (poll() consumes them), their
  // consume-time `values()` resolution to the control half. The
  // pointers themselves are set once in the constructor and never
  // reseated, so they stay unguarded.
  std::unique_ptr<PriceFeed> price_feed_;
  std::unique_ptr<WorkloadFeed> workload_feed_;
  // Stream-half state: the control-period timer poll() merges with the
  // feed streams.
  TickStream timer_ GRIDCTL_GUARDED_BY(stream_role_);

  // Control-half state.
  std::vector<double> held_prices_ GRIDCTL_GUARDED_BY(control_role_);
  double held_price_time_s_ GRIDCTL_GUARDED_BY(control_role_) = 0.0;
  std::vector<double> held_demands_ GRIDCTL_GUARDED_BY(control_role_);
  double held_demand_time_s_ GRIDCTL_GUARDED_BY(control_role_) = 0.0;
  std::uint64_t next_step_ GRIDCTL_GUARDED_BY(control_role_) = 0;
  std::uint64_t price_ticks_consumed_ GRIDCTL_GUARDED_BY(control_role_) = 0;
  std::uint64_t workload_ticks_consumed_ GRIDCTL_GUARDED_BY(control_role_) = 0;
  bool degrade_pending_ GRIDCTL_GUARDED_BY(control_role_) = false;
  // Per-period buffers kept across steps so a full period reuses their
  // storage: the typed held feed values and the controller's decision.
  std::vector<units::PricePerMwh> step_prices_
      GRIDCTL_GUARDED_BY(control_role_);
  std::vector<units::Rps> step_demands_ GRIDCTL_GUARDED_BY(control_role_);
  core::CostController::Decision decision_ GRIDCTL_GUARDED_BY(control_role_);

  engine::RunTelemetry telemetry_ GRIDCTL_GUARDED_BY(control_role_);
  RuntimeStats stats_ GRIDCTL_GUARDED_BY(control_role_);
};

}  // namespace gridctl::runtime
