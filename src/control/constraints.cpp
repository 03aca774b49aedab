#include "control/constraints.hpp"

#include "solvers/qp.hpp"
#include "util/error.hpp"

namespace gridctl::control {

using linalg::Matrix;
using linalg::Vector;

void InputConstraints::validate(std::size_t num_inputs) const {
  if (h_eq.rows() > 0) {
    require(h_eq.cols() == num_inputs, "InputConstraints: H column mismatch");
    require(h_rhs.size() == h_eq.rows(), "InputConstraints: h size mismatch");
  }
  if (a_in.rows() > 0) {
    require(a_in.cols() == num_inputs, "InputConstraints: Psi column mismatch");
    require(in_lower.size() == a_in.rows() && in_upper.size() == a_in.rows(),
            "InputConstraints: bound size mismatch");
    for (std::size_t i = 0; i < in_lower.size(); ++i) {
      require(in_lower[i] <= in_upper[i], "InputConstraints: lower > upper");
    }
  }
}

Matrix conservation_matrix(std::size_t portals, std::size_t idcs) {
  Matrix h(portals, portals * idcs);
  for (std::size_t i = 0; i < portals; ++i) {
    for (std::size_t j = 0; j < idcs; ++j) h(i, i * idcs + j) = 1.0;
  }
  return h;
}

Matrix idc_load_matrix(std::size_t portals, std::size_t idcs) {
  Matrix psi(idcs, portals * idcs);
  for (std::size_t j = 0; j < idcs; ++j) {
    for (std::size_t i = 0; i < portals; ++i) psi(j, i * idcs + j) = 1.0;
  }
  return psi;
}

StackedConstraints stack_constraints(const InputConstraints& per_step,
                                     const Vector& u_prev,
                                     std::size_t control_horizon) {
  StackedConstraints out;
  stack_constraints_into(per_step, u_prev, control_horizon, out);
  return out;
}

void stack_constraints_into(const InputConstraints& per_step,
                            const Vector& u_prev,
                            std::size_t control_horizon,
                            StackedConstraints& out) {
  const std::size_t m = u_prev.size();
  require(control_horizon >= 1, "stack_constraints: empty control horizon");
  per_step.validate(m);

  const std::size_t eq_rows = per_step.h_eq.rows();
  const std::size_t in_rows = per_step.a_in.rows();
  const std::size_t nn_rows = per_step.nonnegative ? m : 0;
  const std::size_t b2 = control_horizon;

  out.a_eq.resize(eq_rows * b2, m * b2);
  out.b_eq.assign(eq_rows * b2, 0.0);
  out.a_in.resize((in_rows + nn_rows) * b2, m * b2);
  out.lower.assign((in_rows + nn_rows) * b2, 0.0);
  out.upper.assign((in_rows + nn_rows) * b2, 0.0);

  // For U_t = u_prev + Σ_{τ<=t} ΔU_τ, every per-step row (a, lo, up)
  // becomes  lo - a·u_prev <= Σ_{τ<=t} a·ΔU_τ <= up - a·u_prev.
  for (std::size_t t = 0; t < b2; ++t) {
    // Equality block.
    for (std::size_t r = 0; r < eq_rows; ++r) {
      const std::size_t row = t * eq_rows + r;
      double a_dot_uprev = 0.0;
      for (std::size_t j = 0; j < m; ++j) a_dot_uprev += per_step.h_eq(r, j) * u_prev[j];
      for (std::size_t tau = 0; tau <= t; ++tau) {
        for (std::size_t j = 0; j < m; ++j) {
          out.a_eq(row, tau * m + j) = per_step.h_eq(r, j);
        }
      }
      out.b_eq[row] = per_step.h_rhs[r] - a_dot_uprev;
    }
    // General inequality block.
    for (std::size_t r = 0; r < in_rows; ++r) {
      const std::size_t row = t * (in_rows + nn_rows) + r;
      double a_dot_uprev = 0.0;
      for (std::size_t j = 0; j < m; ++j) a_dot_uprev += per_step.a_in(r, j) * u_prev[j];
      for (std::size_t tau = 0; tau <= t; ++tau) {
        for (std::size_t j = 0; j < m; ++j) {
          out.a_in(row, tau * m + j) = per_step.a_in(r, j);
        }
      }
      out.lower[row] = per_step.in_lower[r] - a_dot_uprev;
      out.upper[row] = per_step.in_upper[r] - a_dot_uprev;
    }
    // Non-negativity block: Σ_{τ<=t} ΔU_τ >= -u_prev.
    for (std::size_t j = 0; j < nn_rows; ++j) {
      const std::size_t row = t * (in_rows + nn_rows) + in_rows + j;
      for (std::size_t tau = 0; tau <= t; ++tau) {
        out.a_in(row, tau * m + j) = 1.0;
      }
      out.lower[row] = -u_prev[j];
      out.upper[row] = solvers::kInfinity;
    }
  }
}

void TransportConstraints::validate() const {
  require(!demand.empty(), "TransportConstraints: need at least one portal");
  require(!cap_lower.empty(), "TransportConstraints: need at least one IDC");
  require(cap_upper.size() == cap_lower.size(),
          "TransportConstraints: cap bound size mismatch");
  for (std::size_t j = 0; j < cap_lower.size(); ++j) {
    require(cap_lower[j] <= cap_upper[j],
            "TransportConstraints: cap lower > upper");
  }
}

InputConstraints TransportConstraints::materialize() const {
  InputConstraints dense;
  materialize_into(dense);
  return dense;
}

void TransportConstraints::materialize_into(InputConstraints& dense) const {
  validate();
  const std::size_t c = portals();
  const std::size_t n = idcs();
  // H (conservation) and Ψ (per-IDC load sums), as conservation_matrix
  // and idc_load_matrix build them.
  dense.h_eq.resize(c, c * n);
  dense.a_in.resize(n, c * n);
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      dense.h_eq(i, i * n + j) = 1.0;
      dense.a_in(j, i * n + j) = 1.0;
    }
  }
  dense.h_rhs = demand;
  dense.in_lower = cap_lower;
  dense.in_upper = cap_upper;
  dense.nonnegative = nonnegative;
}

}  // namespace gridctl::control
