// Structure-exploiting condensed solver for the transport-structured
// MPC QP (paper eq. 42–45 over the portal→IDC allocation).
//
// The dense path stacks the problem over the move vector ΔU and hands
// an (β2·C·N)-variable QP with dense constraint matrices to the generic
// ADMM solver — O((β2·C·N)³) in the factorization and multi-GB matrices
// at fleet scale (C=200 portals, N=50 IDCs, β2=10 ⇒ 100k variables).
// This solver never materializes any of that. It exploits three
// structural facts of the CostController problem:
//
//  1. The plant is stateless and *separable per IDC*: output j depends
//     on the inputs only through the column sum σ[j] = Σ_i u[i,j]
//     (Y_j = slope_j σ[j] + y0_j).
//  2. In the cumulative variables V_t = Σ_{τ<=t} ΔU_τ = U_t − U_{k-1},
//     every constraint (conservation, per-IDC caps, non-negativity) is
//     per-step separable, and the move penalty becomes V^T (T ⊗ I) V
//     with T the β2×β2 tridiagonal "anchored chain" matrix
//     (diag 2…2,1, off-diag −1).
//  3. The ADMM x-update matrix therefore splits as B + W D̃ Wᵀ, where
//     B is block-tridiagonal over t with blocks in the two-dimensional
//     commutative algebra {a·I + b·(I_C ⊗ 1_N 1_Nᵀ)} (closed under
//     products and inverses since J² = N·J), and W = I_β2 ⊗ 1_C ⊗ I_N
//     is the per-(step, IDC) column-sum map of rank β2·N.
//
// The per-iteration solve is then a block-Thomas sweep with scalar
// 2-component coefficient recurrences (O(β2·C·N)) plus a Woodbury
// correction through a β2N × β2N capacitance matrix K, assembled via
// the Jacobi eigendecomposition of T and Cholesky-factorized once per
// step-size rung — the factorization depends only on the shape, weights
// and penalty parameters, never on per-tick data, so it is reused
// across every control period until the plant or horizons change.
// configure() builds the starting rung; a rung the adaptive step size
// (rho_ladder.hpp) first moves to is built, or fetched from the shared
// cache, on that first use and kept in a per-solver table.
//
// The iteration itself mirrors qp_admm.cpp exactly — same splitting,
// over-relaxation, per-row rho (equality rows scaled by rho_eq_scale),
// residual and termination formulas, residual-balanced rho rule and
// primal-infeasibility heuristic — so the two backends agree on
// converged solutions and on failure semantics; only the
// parametrization (V vs ΔU) and the linear algebra differ. After configure(), solve() performs no heap
// allocation except on the first use of a rung: every buffer lives in
// a preallocated arena.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "linalg/matrix.hpp"
#include "solvers/qp.hpp"
#include "solvers/qp_admm.hpp"
#include "solvers/rho_ladder.hpp"
#include "util/thread_annotations.hpp"

namespace gridctl::solvers {

// Problem shape: C portals × N IDCs, horizons β1 (prediction) ≥ β2
// (control). `nonnegative` adds the U >= 0 rows (one per variable).
struct TransportQpShape {
  std::size_t portals = 0;     // C
  std::size_t idcs = 0;        // N
  std::size_t prediction = 0;  // β1
  std::size_t control = 0;     // β2
  bool nonnegative = true;

  std::size_t num_inputs() const { return portals * idcs; }
  std::size_t num_vars() const { return control * num_inputs(); }
  // Condensed dual layout: β2·C equality rows (t-major, portal within),
  // then β2·N cap rows (t-major, IDC within), then β2·C·N non-negativity
  // rows in variable order.
  std::size_t num_rows() const {
    return control * (portals + idcs + (nonnegative ? num_inputs() : 0));
  }
  void validate() const;
};

// Tick-independent cost data: per-IDC tracking weight q_j >= 0, output
// map Y_j = slope_j·σ[j] + y0_j, and the uniform move penalty r >= 0.
struct TransportQpCost {
  linalg::Vector q;      // N
  linalg::Vector slope;  // N
  linalg::Vector y0;     // N
  double r = 0.0;
};

// The tick-independent factorization configure() produces: the
// block-Thomas Schur scalars, the Woodbury capacitance inverse and the
// per-(step, IDC) Hessian diagonal. Immutable once built, so many
// solvers (one per fleet in the control plane) can read one instance
// concurrently through shared_ptr<const>.
struct CondensedFactors {
  linalg::Vector thomas_ip;  // β2 Schur-inverse identity coefficients
  linalg::Vector thomas_iq;  // β2 Schur-inverse J coefficients
  linalg::Matrix kinv;       // Woodbury capacitance inverse (β2·N × β2·N)
  linalg::Vector chat;       // β2·N Hessian diagonal cnt_t·q_j·slope_j²
};

// Process-wide cache of condensed factorizations, keyed by everything
// that enters them: the problem shape, the cost data, and the ADMM
// penalty parameters (the rho rung, rho_eq_scale, sigma) — one entry
// per step-size rung in use. Fleets sharing a plant shape then pay the
// O(β2³ + (β2·N)³) factorization once per rung and share the
// capacitance matrix memory. Thread-safe; misses compute under the lock
// (a deliberate trade: concurrent first-touch of the *same* key would
// otherwise duplicate the most expensive step).
class CondensedFactorCache {
 public:
  // The cached factors for this key, computed on first request.
  std::shared_ptr<const CondensedFactors> get(const TransportQpShape& shape,
                                              const TransportQpCost& cost,
                                              const AdmmOptions& options);

  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  struct Entry {
    TransportQpShape shape;
    TransportQpCost cost;
    double rho = 0.0;
    double rho_eq_scale = 0.0;
    double sigma = 0.0;
    std::shared_ptr<const CondensedFactors> factors;
  };

  // Linear key match over the cached entries; null when absent. Callers
  // hold mutex_ (get() takes it once and keeps it across the miss
  // compute — see the class comment for why misses stay under the lock).
  const Entry* find_locked(const TransportQpShape& shape,
                           const TransportQpCost& cost,
                           const AdmmOptions& options) const
      GRIDCTL_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::vector<Entry> entries_ GRIDCTL_GUARDED_BY(mutex_);
  std::uint64_t hits_ GRIDCTL_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ GRIDCTL_GUARDED_BY(mutex_) = 0;
};

struct CondensedQpResult {
  QpStatus status = QpStatus::kMaxIterations;
  linalg::Vector delta_u;  // stacked moves ΔU_0..ΔU_{β2-1} (β2·C·N)
  linalg::Vector y;        // dual, condensed row layout (see TransportQpShape)
  linalg::Vector y1;       // first predicted output Y_1 (N)
  double objective = 0.0;  // true least-squares objective (matches lsq.cpp)
  std::size_t iterations = 0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  int rho_rung = 0;  // step-size rung the solve ended on (rho_ladder.hpp)
};

class CondensedQpSolver {
 public:
  CondensedQpSolver() = default;

  // Build the starting rung's factorization and size the arena.
  // O(β2³ + (β2·N)³) per rung; `options.rho` is the rung every solve
  // starts on, and the factors of any other rung a solve moves to are
  // built on that rung's first use. Throws InvalidArgument on
  // inconsistent shape/cost sizes or invalid options. With a non-null
  // `cache` the factors of every rung come from (and are inserted into)
  // the shared cache instead of being computed locally — a cache hit
  // makes configure O(arena). The cache must outlive the solver.
  void configure(const TransportQpShape& shape, const TransportQpCost& cost,
                 const AdmmOptions& options = {},
                 CondensedFactorCache* cache = nullptr);
  bool configured() const { return configured_; }

  const TransportQpShape& shape() const { return shape_; }

  // Solve one control period. All vectors are in the caller's units:
  //   u_prev      (C·N)  previous applied allocation, portal-major
  //   demand      (C)    conservation right-hand side per portal
  //   cap_lower/upper (N) per-IDC load bounds on σ[j] (may be ±inf)
  //   references  r_s[j]; fewer than β1 entries hold the last one
  //   warm_delta_u (β2·C·N or empty) previous stacked-move solution
  //   warm_dual    (num_rows() or empty) previous condensed dual
  //   max_iterations (0 = options default) fault-injection iteration cap
  // Every solve starts on the configured rung; no rho state crosses
  // solves. Returns a reference to an internally owned result (valid
  // until the next solve). Allocation-free once each rung it uses has
  // been used before.
  const CondensedQpResult& solve(const linalg::Vector& u_prev,
                                 const linalg::Vector& demand,
                                 const linalg::Vector& cap_lower,
                                 const linalg::Vector& cap_upper,
                                 const std::vector<linalg::Vector>& references,
                                 const linalg::Vector& warm_delta_u,
                                 const linalg::Vector& warm_dual,
                                 std::size_t max_iterations = 0);

 private:
  // Switch the iteration to `rung`, loading its factors on first use.
  void use_rung(int rung);

  // Apply B⁻¹ in place via the block-Thomas sweeps. `groups` is the
  // portal multiplicity: C for full variable blocks, 1 for the
  // portal-uniform β2·N reduced system (the algebra is identical).
  void solve_b_in_place(double* x, std::size_t groups) const;

  TransportQpShape shape_;
  TransportQpCost cost_;
  AdmmOptions options_;
  CondensedFactorCache* cache_ = nullptr;
  bool configured_ = false;
  int start_rung_ = 0;  // rung of options_.rho; every solve starts here
  int rung_ = 0;        // rung of the running iteration

  // Derived scalars of the current rung.
  double rho_in_ = 0.0;      // inequality-row step size
  double inv_rho_in_ = 0.0;  // hoisted reciprocal for the hot dual updates
  double rho_eq_ = 0.0;      // equality-row step size
  double diag_shift_ = 0.0;  // sigma (+ rho_in when nonnegative)

  // The tick-independent factorization (Thomas Schur scalars, Woodbury
  // capacitance inverse K⁻¹, Hessian diagonal ĉ) of each rung used so
  // far, indexed by rung − kRhoRungMin, and the current rung's entry.
  // Filled per solver so the cache mutex stays out of the iteration
  // loop. Owned via shared_ptr so fleets configured through a
  // CondensedFactorCache share one immutable instance instead of each
  // holding a (β2·N)² matrix.
  std::array<std::shared_ptr<const CondensedFactors>, kRhoRungs> rung_factors_;
  const CondensedFactors* factors_ = nullptr;

  // Arena (sized in configure, reused every solve). zt_ and ax_ only
  // carry the equality + cap sections: the non-negativity rows of A x̃
  // are x̃ itself (A_nn = I) and are consumed in-register by the fused
  // update sweep, never stored.
  linalg::Vector x_, u_;                            // n-sized
  linalg::Vector z_, y_;                            // rows-sized
  linalg::Vector zt_, ax_;                          // β2·(C+N)
  linalg::Vector cvec_, wvec_, capadd_;             // β2·N
  linalg::Vector pl_, caplo_, capup_;               // N
  linalg::Vector beq_;                              // C
  linalg::Vector ghat_;                             // β1·N tracking targets
  linalg::Vector qlin_;                             // β2·N compact linear term
  CondensedQpResult result_;
};

}  // namespace gridctl::solvers
