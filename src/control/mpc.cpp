#include "control/mpc.hpp"

#include <cmath>

#include "util/error.hpp"

namespace gridctl::control {

using linalg::Matrix;
using linalg::Vector;

namespace {
const Vector kEmptyVector;
}  // namespace

MpcController::MpcController(MpcPlant plant, MpcConfig config)
    : plant_(std::move(plant)), config_(std::move(config)) {
  config_.horizons.validate();
  refresh_plant_cache();
  config_.constraints.validate(plant_.num_inputs());
}

void MpcController::refresh_plant_cache() {
  plant_.validate();
  require(config_.weights.q.size() == plant_.num_outputs(),
          "MpcController: Q weight size mismatch");
  require(config_.weights.r.size() == plant_.num_inputs(),
          "MpcController: R weight size mismatch");
  theta_dirty_ = true;
  condensed_ready_ = false;
  plant_dirty_ = false;

  // Transport-structure scan: stateless plant whose output j reads only
  // the per-IDC column sum (c_u(j, i·N + j) = slope_j, zero elsewhere),
  // uniform move penalty, non-negative tracking weights. These are the
  // assumptions the condensed factorization bakes in; anything else
  // solves densely.
  transport_structure_ = false;
  const std::size_t p = plant_.num_outputs();
  const std::size_t m = plant_.num_inputs();
  if (plant_.num_states() != 0 || p == 0 || m % p != 0) return;
  const double r0 = config_.weights.r[0];
  for (const double rj : config_.weights.r) {
    if (rj != r0) return;
  }
  if (!(r0 >= 0.0) || !std::isfinite(r0)) return;
  for (const double qj : config_.weights.q) {
    if (!(qj >= 0.0) || !std::isfinite(qj)) return;
  }
  cnd_slope_.assign(p, 0.0);
  for (std::size_t j = 0; j < p; ++j) cnd_slope_[j] = plant_.c_u(j, j);
  for (std::size_t j = 0; j < p; ++j) {
    for (std::size_t k = 0; k < m; ++k) {
      const double expect = (k % p == j) ? cnd_slope_[j] : 0.0;
      if (plant_.c_u(j, k) != expect) return;
    }
  }
  cnd_r_ = r0;
  transport_structure_ = true;
}

bool MpcController::condensed_active() const {
  if (config_.backend != solvers::LsqBackend::kCondensed) return false;
  if (!transport_structure_ || !transport_.has_value()) return false;
  const std::size_t p = plant_.num_outputs();
  return transport_->idcs() == p &&
         transport_->portals() * p == plant_.num_inputs();
}

void MpcController::restore_warm_start(linalg::Vector warm_start) {
  require(warm_start.empty() ||
              warm_start.size() ==
                  plant_.num_inputs() * config_.horizons.control,
          "MpcController: restored warm start has the wrong length");
  warm_start_ = std::move(warm_start);
}

void MpcController::restore_warm_dual(linalg::Vector warm_dual) {
  // Deliberately lenient: a dual from a differently-shaped (or dense)
  // run is simply ignored by the solver, exactly as a cold start.
  warm_dual_ = std::move(warm_dual);
}

void MpcController::set_constraints(InputConstraints constraints) {
  constraints.validate(plant_.num_inputs());
  config_.constraints = std::move(constraints);
  transport_.reset();
  dense_constraints_dirty_ = true;
}

void MpcController::set_constraints(const TransportConstraints& constraints) {
  constraints.validate();
  require(constraints.portals() * constraints.idcs() == plant_.num_inputs(),
          "MpcController: transport constraint shape mismatch");
  transport_ = constraints;
  dense_constraints_dirty_ = true;
}

MpcResult MpcController::step(const MpcStep& input) {
  MpcResult result;
  step_into(input, result);
  return result;
}

void MpcController::step_into(const MpcStep& input, MpcResult& result) {
  if (plant_dirty_) refresh_plant_cache();
  const std::size_t m = plant_.num_inputs();
  const std::size_t p = plant_.num_outputs();
  const std::size_t b2 = config_.horizons.control;
  require(input.u_prev.size() == m, "MpcController: u_prev size mismatch");
  require(!input.references.empty(), "MpcController: no references");
  for (const auto& r : input.references) {
    require(r.size() == p, "MpcController: reference size mismatch");
  }

  if (!condensed_active()) {
    solve_dense(input, result);
    return;
  }

  require(input.x.empty(), "MpcController: state size mismatch");
  if (!condensed_ready_ ||
      condensed_.shape().nonnegative != transport_->nonnegative) {
    solvers::TransportQpShape shape;
    shape.portals = m / p;
    shape.idcs = p;
    shape.prediction = config_.horizons.prediction;
    shape.control = b2;
    shape.nonnegative = transport_->nonnegative;
    solvers::TransportQpCost cost;
    cost.q = config_.weights.q;
    cost.slope = cnd_slope_;
    cost.y0 = plant_.y0;
    cost.r = cnd_r_;
    // Mirror the dense MPC entry point: 1e-6 tolerances (lsq.cpp), and
    // check residuals every iteration — through the structure a check
    // costs O(β2·m), negligible next to the x-update, and it stops the
    // solve at the first admissible iterate instead of up to
    // check_interval-1 iterations later.
    solvers::AdmmOptions admm;
    admm.eps_abs = 1e-6;
    admm.eps_rel = 1e-6;
    admm.check_interval = 1;
    condensed_.configure(shape, cost, admm, config_.factor_cache.get());
    condensed_ready_ = true;
  }

  const Vector& warm =
      warm_start_.size() == m * b2 ? warm_start_ : kEmptyVector;
  const Vector& warm_dual = warm_dual_.size() == condensed_.shape().num_rows()
                                ? warm_dual_
                                : kEmptyVector;
  const solvers::CondensedQpResult& res = condensed_.solve(
      input.u_prev, transport_->demand, transport_->cap_lower,
      transport_->cap_upper, input.references, warm, warm_dual,
      config_.max_solver_iterations);
  result.warm_started = !warm.empty();
  result.used_fallback_backend = false;

  if (res.status != solvers::QpStatus::kOptimal && config_.backend_fallback) {
    // Degradation chain: dense ADMM cold, then the active set, each with
    // its own default iteration budget (an injected cap on the primary
    // must not also cripple the rescue attempts).
    prepare_dense_problem(input);
    auto retried = solve_constrained_lsq(
        lsq_, solvers::LsqSolveOptions{solvers::LsqBackend::kAdmm, 0});
    if (retried.status != solvers::QpStatus::kOptimal) {
      auto active = solve_constrained_lsq(
          lsq_, solvers::LsqSolveOptions{solvers::LsqBackend::kActiveSet, 0});
      if (active.status == solvers::QpStatus::kOptimal) {
        retried = std::move(active);
      }
    }
    if (retried.status == solvers::QpStatus::kOptimal) {
      result.used_fallback_backend = true;
      result.warm_started = false;
      finish_dense(input, result, std::move(retried));
      return;
    }
  }

  result.status = res.status;
  result.objective = res.objective;
  result.solver_iterations = res.iterations;
  result.delta_u.assign(res.delta_u.begin(),
                        res.delta_u.begin() + static_cast<std::ptrdiff_t>(m));
  result.u.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    result.u[k] = input.u_prev[k] + result.delta_u[k];
  }
  result.predicted_y.assign(res.y1.begin(), res.y1.end());
  // An unconverged iterate is a poor warm start for the next period (and
  // under ADMM can anchor the next solve in the same stall), so only an
  // optimal solution is cached.
  if (res.status == solvers::QpStatus::kOptimal) {
    warm_start_.assign(res.delta_u.begin(), res.delta_u.end());
    warm_dual_.assign(res.y.begin(), res.y.end());
  } else {
    warm_start_.clear();
    warm_dual_.clear();
  }
}

void MpcController::prepare_dense_problem(const MpcStep& input) {
  const std::size_t m = plant_.num_inputs();
  const std::size_t p = plant_.num_outputs();
  const std::size_t b1 = config_.horizons.prediction;
  const std::size_t b2 = config_.horizons.control;

  // Θ depends only on the plant and the horizons; the affine constant
  // tracks the live state/input and is rebuilt every period.
  if (theta_dirty_) {
    build_theta_into(plant_, config_.horizons, lsq_.f);
    theta_dirty_ = false;
  }
  build_constant_into(plant_, config_.horizons, input.x, input.u_prev,
                      constant_);

  // Least-squares residual: sqrt(Q)·(theta ΔU + constant - r_stack).
  lsq_.g.assign(p * b1, 0.0);
  lsq_.w.assign(p * b1, 0.0);
  for (std::size_t s = 0; s < b1; ++s) {
    // Shorter reference trajectories are extended by holding the last
    // entry. Indexed without a size()-1 clamp: on an empty vector that
    // expression wraps to SIZE_MAX (the emptiness `require` in step_into
    // is the first line of defense, `back()` the second).
    const Vector& ref = s < input.references.size() ? input.references[s]
                                                    : input.references.back();
    for (std::size_t i = 0; i < p; ++i) {
      lsq_.g[s * p + i] = ref[i] - constant_[s * p + i];
      lsq_.w[s * p + i] = config_.weights.q[i];
    }
  }
  lsq_.r.assign(m * b2, 0.0);
  for (std::size_t t = 0; t < b2; ++t) {
    for (std::size_t j = 0; j < m; ++j) {
      lsq_.r[t * m + j] = config_.weights.r[j];
    }
  }

  const InputConstraints* per_step = &config_.constraints;
  if (transport_.has_value()) {
    if (dense_constraints_dirty_) {
      transport_->materialize_into(dense_constraints_);
      dense_constraints_dirty_ = false;
    }
    per_step = &dense_constraints_;
  }
  stack_constraints_into(*per_step, input.u_prev, b2, stacked_);
  lsq_.a_eq = stacked_.a_eq;
  lsq_.b_eq = stacked_.b_eq;
  lsq_.a_in = stacked_.a_in;
  lsq_.lower = stacked_.lower;
  lsq_.upper = stacked_.upper;
}

void MpcController::solve_dense(const MpcStep& input, MpcResult& result) {
  const std::size_t m = plant_.num_inputs();
  const std::size_t b2 = config_.horizons.control;
  prepare_dense_problem(input);

  const Vector& warm =
      warm_start_.size() == m * b2 ? warm_start_ : kEmptyVector;
  solvers::LsqSolveOptions solve_options{config_.backend,
                                         config_.max_solver_iterations};
  auto solved = solve_constrained_lsq(lsq_, solve_options, warm);

  result.warm_started = !warm.empty();
  result.used_fallback_backend = false;
  if (solved.status != solvers::QpStatus::kOptimal &&
      config_.backend_fallback) {
    // Degradation tier 1: same problem, other backend, cold start, its
    // own default iteration budget. The two dense solvers fail for
    // different reasons (ADMM stalls on ill-conditioning where the
    // active set pivots through; the active set needs a phase-1 point
    // ADMM does not), so the retry rescues most transient failures.
    // kCondensed degrades to ADMM through this entry, so its retry is
    // the active set too.
    const solvers::LsqBackend other =
        config_.backend == solvers::LsqBackend::kActiveSet
            ? solvers::LsqBackend::kAdmm
            : solvers::LsqBackend::kActiveSet;
    auto retried =
        solve_constrained_lsq(lsq_, solvers::LsqSolveOptions{other, 0});
    if (retried.status == solvers::QpStatus::kOptimal) {
      solved = std::move(retried);
      result.used_fallback_backend = true;
      result.warm_started = false;
    }
  }
  finish_dense(input, result, std::move(solved));
}

void MpcController::finish_dense(const MpcStep& input, MpcResult& result,
                                 solvers::ConstrainedLsqResult&& solved) {
  const std::size_t m = plant_.num_inputs();
  const std::size_t p = plant_.num_outputs();
  result.status = solved.status;
  result.objective = solved.objective;
  result.solver_iterations = solved.iterations;
  result.delta_u.assign(solved.x.begin(),
                        solved.x.begin() + static_cast<std::ptrdiff_t>(m));
  result.u.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    result.u[k] = input.u_prev[k] + result.delta_u[k];
  }
  // First predicted output under the solved move sequence.
  linalg::multiply_into(lsq_.f, solved.x, y_stack_);
  result.predicted_y.resize(p);
  for (std::size_t i = 0; i < p; ++i) {
    result.predicted_y[i] = y_stack_[i] + constant_[i];
  }
  // Only an optimal solution is cached as the next warm start; the
  // condensed dual never survives a dense solve.
  if (solved.status == solvers::QpStatus::kOptimal) {
    warm_start_ = std::move(solved.x);
  } else {
    warm_start_.clear();
  }
  warm_dual_.clear();
}

}  // namespace gridctl::control
