// Two-phase primal simplex for dense linear programs.
//
//   minimize    cᵀ x
//   subject to  A_eq x  = b_eq
//               A_ub x <= b_ub
//               x >= 0
//
// Bland's rule guarantees termination on degenerate problems. It solves
// the batch-deferral LP (core/deferral) and the active-set QP's
// feasibility phase, and is the test oracle for the reference optimizer
// (whose transportation LP, paper eq. 46, is solved by an exact fill).
// These LPs have tens of variables, so a dense tableau is the right
// tool.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace gridctl::solvers {

struct LpProblem {
  linalg::Vector c;      // objective coefficients (minimization)
  linalg::Matrix a_eq;   // may be empty
  linalg::Vector b_eq;
  linalg::Matrix a_ub;   // may be empty
  linalg::Vector b_ub;
};

enum class LpStatus { kOptimal, kInfeasible, kUnbounded };

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  linalg::Vector x;          // primal solution (original variables)
  double objective = 0.0;
  std::size_t iterations = 0;
};

struct LpOptions {
  std::size_t max_iterations = 10000;
  double tolerance = 1e-9;
};

LpResult solve_lp(const LpProblem& problem, const LpOptions& options = {});

}  // namespace gridctl::solvers
