// Stacking of the per-step input constraints into the move space — the
// paper's eq. (43)–(45):
//
//   H U_t  = h            (workload conservation, eq. 26)
//   Ψ U_t <= φ            (latency/capacity, eq. 31)
//   U_t   >= 0            (eq. 34)
//
// for every control step t = 0..β2-1, rewritten over the stacked move
// vector dU via U_t = U_{k-1} + Σ_{τ<=t} ΔU_τ.
#pragma once

#include "linalg/matrix.hpp"

namespace gridctl::control {

// Per-step constraint description in U space.
struct InputConstraints {
  linalg::Matrix h_eq;      // rows x m (may be empty)
  linalg::Vector h_rhs;
  linalg::Matrix a_in;      // rows x m (may be empty)
  linalg::Vector in_lower;  // entries may be -inf
  linalg::Vector in_upper;  // entries may be +inf
  bool nonnegative = true;  // U >= 0

  void validate(std::size_t num_inputs) const;
};

// Constraints over the stacked move vector (m * β2 variables).
struct StackedConstraints {
  linalg::Matrix a_eq;
  linalg::Vector b_eq;
  linalg::Matrix a_in;
  linalg::Vector lower;
  linalg::Vector upper;
};

StackedConstraints stack_constraints(const InputConstraints& per_step,
                                     const linalg::Vector& u_prev,
                                     std::size_t control_horizon);

// Arena variant: writes into `out`, reusing its storage when the shapes
// already match (the per-tick hot path re-stacks with a new u_prev but
// an unchanged shape, so after the first call this allocates nothing).
void stack_constraints_into(const InputConstraints& per_step,
                            const linalg::Vector& u_prev,
                            std::size_t control_horizon,
                            StackedConstraints& out);

// The CostController constraint set in structured form: conservation
// (Σ_j u[i,j] = demand_i per portal), per-IDC load caps
// (cap_lower_j <= Σ_i u[i,j] <= cap_upper_j) and non-negativity. This
// is the exact pattern conservation_matrix / idc_load_matrix produce,
// carried as O(C + N) vectors instead of O(C·N²) dense rows so the
// condensed solver can exploit it and the dense path can materialize it
// lazily.
struct TransportConstraints {
  linalg::Vector demand;     // C, conservation right-hand side
  linalg::Vector cap_lower;  // N, entries may be -inf
  linalg::Vector cap_upper;  // N, entries may be +inf
  bool nonnegative = true;

  std::size_t portals() const { return demand.size(); }
  std::size_t idcs() const { return cap_lower.size(); }
  void validate() const;
  // Equivalent dense per-step form (for the generic QP backends).
  InputConstraints materialize() const;
  // The same into `dense`, reusing its storage when the shapes match.
  void materialize_into(InputConstraints& dense) const;
};

// Workload-conservation block (paper eq. 26–29): portal-major U layout,
// H (C x NC) with H(i, i*N + j) = 1 for all j; h = L.
linalg::Matrix conservation_matrix(std::size_t portals, std::size_t idcs);

// Per-IDC load-sum rows (paper eq. 32): Ψ (N x NC) with Ψ(j, i*N+j) = 1.
linalg::Matrix idc_load_matrix(std::size_t portals, std::size_t idcs);

}  // namespace gridctl::control
