// OSQP-style ADMM solver for convex QPs (Stellato et al., 2020).
//
// Splitting:  min ½xᵀPx + qᵀx + I_{l<=z<=u}(z)  s.t.  Ax = z.
// Each iteration solves one quasi-definite KKT system (factorized once)
// and projects onto the box. Robust on the MPC problems gridctl builds:
// it needs no feasible starting point and detects primal infeasibility
// via the standard certificate test.
//
// The step size adapts within each solve (OSQP's residual balancing,
// snapped to the ladder in rho_ladder.hpp): every solve starts on
// `rho` and may move to other rungs at fixed iteration counts, keeping
// x, z and y across a switch.
#pragma once

#include "solvers/qp.hpp"

namespace gridctl::solvers {

struct AdmmOptions {
  double rho = 0.1;            // starting step size for inequality rows;
                               // must be a kRhoLadder rung
  double rho_eq_scale = 1e3;   // equality rows use rho * this
  double sigma = 1e-6;         // primal regularization
  double alpha = 1.6;          // over-relaxation, in (0, 2)
  double eps_abs = 1e-8;
  double eps_rel = 1e-8;
  std::size_t max_iterations = 20000;
  std::size_t check_interval = 10;  // termination check cadence, >= 1

  // Throws InvalidArgument naming the first out-of-range field.
  void validate() const;
};

// Solve; `warm_x` / `warm_y` seed the iteration when non-empty.
QpResult solve_qp_admm(const QpProblem& problem,
                       const AdmmOptions& options = {},
                       const linalg::Vector& warm_x = {},
                       const linalg::Vector& warm_y = {});

}  // namespace gridctl::solvers
