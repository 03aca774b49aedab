// Shared problem definition for the convex quadratic-program solvers.
//
//   minimize    ½ xᵀ P x + qᵀ x
//   subject to  lower <= A x <= upper
//
// Equality constraints are rows with lower == upper. Two independent
// solvers implement this interface — an OSQP-style ADMM splitting method
// (qp_admm) and a textbook primal active-set method (qp_active_set) —
// and cross-validate each other in the test suite. The MPC layer uses
// ADMM by default (warm-startable, never needs a feasible initial
// point).
#pragma once

#include <cstddef>
#include <limits>

#include "linalg/matrix.hpp"

namespace gridctl::solvers {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

struct QpProblem {
  linalg::Matrix p;       // symmetric positive semidefinite, n x n
  linalg::Vector q;       // n
  linalg::Matrix a;       // m x n constraint matrix (may be empty)
  linalg::Vector lower;   // m, entries may be -inf
  linalg::Vector upper;   // m, entries may be +inf

  std::size_t num_vars() const { return q.size(); }
  std::size_t num_constraints() const { return lower.size(); }

  // Throws InvalidArgument on inconsistent dimensions or lower > upper.
  void validate() const;

  // Objective value at x.
  double objective(const linalg::Vector& x) const;

  // Worst constraint violation at x (0 when feasible).
  double max_violation(const linalg::Vector& x) const;
};

enum class QpStatus { kOptimal, kMaxIterations, kInfeasible };

struct QpResult {
  QpStatus status = QpStatus::kMaxIterations;
  linalg::Vector x;        // primal solution
  linalg::Vector y;        // dual solution (one multiplier per constraint)
  double objective = 0.0;
  std::size_t iterations = 0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  // ADMM only: the step-size ladder rung the solve ended on,
  // ρ = 10^(rho_rung/2) (see rho_ladder.hpp).
  int rho_rung = 0;
};

}  // namespace gridctl::solvers
