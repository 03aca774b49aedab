// The constrained MPC controller (paper Sec. IV-C, eq. 37 and 42–45).
//
// Each step minimizes
//
//   J = Σ_{s=1..β1} || Y_s − r_s ||²_Q + Σ_{τ=0..β2-1} || ΔU_τ ||²_R
//
// over the stacked input moves, subject to the per-step input
// constraints, by transforming to a constrained least-squares problem
// and solving it with the QP layer. The R term is the power-demand
// smoothing mechanism: it prices every change of the workload
// allocation, so the closed loop ramps instead of jumping. Peak shaving
// happens one level up, in the references fed to `step` (clamped to the
// power budget by the reference optimizer).
//
// Two solve paths share this interface:
//
//  * The dense path stacks Θ and the constraints explicitly and hands
//    the problem to the generic LSQ/QP layer. It works for any plant.
//  * The condensed path (backend kCondensed) recognizes the transport
//    structure of the CostController problem — stateless plant whose
//    output j reads only the per-IDC column sum, structured
//    conservation/cap constraints — and solves through
//    CondensedQpSolver without ever materializing Θ or the stacked
//    constraint matrices. It activates only when the structure is
//    detected AND structured constraints were installed via
//    set_constraints(TransportConstraints); otherwise kCondensed
//    degrades to the dense ADMM path.
//
// The controller caches everything that survives a control period:
// Θ (plant- and horizon-only, rebuilt when mutable_plant() was taken),
// the condensed factorization, and all problem arenas — after the first
// step the condensed hot path performs no heap allocation.
#pragma once

#include <memory>
#include <optional>

#include "control/constraints.hpp"
#include "control/prediction.hpp"
#include "solvers/lsq.hpp"
#include "solvers/qp_condensed.hpp"

namespace gridctl::control {

struct MpcWeights {
  // Per-output tracking weights (replicated across the prediction
  // horizon) and per-input move penalties (replicated across the control
  // horizon). Larger r/q ratio = smoother, slower tracking.
  linalg::Vector q;
  linalg::Vector r;
};

struct MpcConfig {
  MpcHorizons horizons;
  MpcWeights weights;
  InputConstraints constraints;
  solvers::LsqBackend backend = solvers::LsqBackend::kAdmm;
  // QP iteration cap for the primary backend; 0 = backend default. A
  // deliberately tiny cap is the fault-injection lever for exercising
  // the degradation chain.
  std::size_t max_solver_iterations = 0;
  // When the primary backend fails (iteration cap / infeasible), re-solve
  // the same stacked problem cold with another backend at its default
  // iteration budget before giving up. Dense primaries retry once with
  // the *other* dense backend (ADMM ↔ active set — the two fail for
  // different reasons, so the retry rescues most transient failures);
  // the condensed primary walks condensed → dense ADMM → active set.
  bool backend_fallback = false;
  // Optional shared cache of condensed factorizations (not owned by any
  // single controller): when set, the condensed configure pulls its
  // factors from here so controllers with identical shape/cost/penalty
  // keys amortize the factorization and share the capacitance matrix.
  std::shared_ptr<solvers::CondensedFactorCache> factor_cache;
};

struct MpcStep {
  // Plant state at time k (empty for stateless plants) and the input
  // applied during the previous period.
  linalg::Vector x;
  linalg::Vector u_prev;
  // Reference trajectory: references[s-1] is r(k+s), s = 1..β1. If only
  // one entry is supplied it is held constant across the horizon.
  std::vector<linalg::Vector> references;
};

struct MpcResult {
  solvers::QpStatus status = solvers::QpStatus::kMaxIterations;
  linalg::Vector u;            // U(k) = u_prev + ΔU_0, the applied input
  linalg::Vector delta_u;      // ΔU_0
  linalg::Vector predicted_y;  // Y_1 under the returned input
  double objective = 0.0;
  std::size_t solver_iterations = 0;
  // Whether the QP was started from the previous step's stacked move
  // solution (false on the first step and after a constraint-shape
  // change invalidated the cache).
  bool warm_started = false;
  // True when the primary backend failed and a fallback backend's
  // solution was returned instead (degradation tier 1). `status` and
  // `solver_iterations` then describe the fallback solve.
  bool used_fallback_backend = false;
};

class MpcController {
 public:
  MpcController(MpcPlant plant, MpcConfig config);

  MpcResult step(const MpcStep& input);
  // Arena variant: writes into `result`, reusing its storage. With the
  // condensed backend active this is the zero-allocation hot path.
  void step_into(const MpcStep& input, MpcResult& result);

  // Replace the per-step input constraints (the conservation right-hand
  // side tracks the live workload). The dense overload clears any
  // installed structured constraints; the structured overload keeps the
  // condensed path eligible and materializes dense rows only if a
  // fallback solve needs them.
  void set_constraints(InputConstraints constraints);
  // The structured overload copies into the installed constraints, so a
  // caller that refills one buffer each period reuses their storage.
  void set_constraints(const TransportConstraints& constraints);

  const MpcPlant& plant() const { return plant_; }
  // Mutation invalidates the cached Θ, the detected problem structure
  // and the condensed factorization; they rebuild on the next step.
  MpcPlant& mutable_plant() {
    plant_dirty_ = true;
    return plant_;
  }
  const MpcConfig& config() const { return config_; }

  // Whether the next step would take the condensed structured path.
  bool condensed_active() const;

  // The cached stacked move solution seeding the next solve (empty =
  // cold start). Exposed so a checkpointed controller resumes with the
  // same QP iterate path it would have taken uninterrupted.
  const linalg::Vector& warm_start() const { return warm_start_; }
  void restore_warm_start(linalg::Vector warm_start);

  // The cached condensed dual seeding the next condensed solve (empty =
  // cold / not applicable). Checkpointed alongside the warm start so a
  // condensed-backend resume is bit-identical; a stale or wrong-sized
  // dual is ignored by the solver, so restore is deliberately lenient.
  const linalg::Vector& warm_dual() const { return warm_dual_; }
  void restore_warm_dual(linalg::Vector warm_dual);

 private:
  void refresh_plant_cache();
  // Fill lsq_ (Θ, targets, weights, stacked constraints) for the dense
  // backends; `constant_` keeps the affine output term for predicted_y.
  void prepare_dense_problem(const MpcStep& input);
  void solve_dense(const MpcStep& input, MpcResult& result);
  void finish_dense(const MpcStep& input, MpcResult& result,
                    solvers::ConstrainedLsqResult&& solved);

  MpcPlant plant_;
  MpcConfig config_;
  // Structured constraints, when installed. Mutually exclusive with
  // config_.constraints being authoritative.
  std::optional<TransportConstraints> transport_;

  linalg::Vector warm_start_;  // previous stacked move solution
  linalg::Vector warm_dual_;   // previous condensed dual

  // Lazily rebuilt plant-derived caches.
  bool plant_dirty_ = true;       // structure + Θ + condensed factors stale
  bool theta_dirty_ = true;       // dense Θ (lives in lsq_.f) stale
  bool transport_structure_ = false;
  linalg::Vector cnd_slope_;      // per-IDC output slope (structure scan)
  double cnd_r_ = 0.0;            // uniform move penalty (structure scan)

  solvers::CondensedQpSolver condensed_;
  bool condensed_ready_ = false;

  // Dense-path arenas (lsq_.f doubles as the Θ cache).
  solvers::ConstrainedLsqProblem lsq_;
  linalg::Vector constant_;
  StackedConstraints stacked_;
  InputConstraints dense_constraints_;  // materialized transport_
  bool dense_constraints_dirty_ = true;
  linalg::Vector y_stack_;
};

}  // namespace gridctl::control
