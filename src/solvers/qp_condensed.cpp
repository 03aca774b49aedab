#include "solvers/qp_condensed.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/cholesky.hpp"
#include "linalg/eigen.hpp"
#include "util/error.hpp"

namespace gridctl::solvers {

using linalg::Matrix;
using linalg::Vector;

void TransportQpShape::validate() const {
  require(portals > 0, "TransportQpShape: need at least one portal");
  require(idcs > 0, "TransportQpShape: need at least one IDC");
  require(control >= 1, "TransportQpShape: control horizon must be >= 1");
  require(prediction >= control,
          "TransportQpShape: prediction horizon must be >= control horizon");
}

namespace {

// The tick-independent factorization body, shared by local configure()
// and the process-wide CondensedFactorCache. `rho_in`, `rho_eq` and
// `diag_shift` are the scalars configure() derives from the ADMM
// options (diag_shift folds in the nonnegative-rows rho).
std::shared_ptr<const CondensedFactors> build_factors(
    const TransportQpShape& shape, const TransportQpCost& cost, double rho_in,
    double rho_eq, double diag_shift) {
  auto factors = std::make_shared<CondensedFactors>();
  const std::size_t nidc = shape.idcs;
  const std::size_t b1 = shape.prediction;
  const std::size_t b2 = shape.control;
  const double two_r = 2.0 * cost.r;

  // cnt_t = |{prediction steps tracked by control step t}|: one per step
  // except the last control step, which is held for the remaining
  // β1 − β2 + 1 outputs.
  factors->chat.assign(b2 * nidc, 0.0);
  for (std::size_t t = 0; t < b2; ++t) {
    const double cnt = (t + 1 < b2) ? 1.0 : static_cast<double>(b1 - b2 + 1);
    for (std::size_t j = 0; j < nidc; ++j) {
      factors->chat[t * nidc + j] =
          cnt * cost.q[j] * cost.slope[j] * cost.slope[j];
    }
  }

  // Block-Thomas Schur complements over the anchored-chain matrix T.
  // Every block lives in the algebra {a·I + b·J}, J = I_C ⊗ 1_N 1_Nᵀ,
  // J² = N·J, so S_t reduces to two scalars with the inverse
  // (a I + b J)⁻¹ = (1/a) I − b/(a(a+Nb)) J.
  factors->thomas_ip.assign(b2, 0.0);
  factors->thomas_iq.assign(b2, 0.0);
  {
    const double nd = static_cast<double>(nidc);
    double prev_ip = 0.0, prev_iq = 0.0;
    for (std::size_t t = 0; t < b2; ++t) {
      const double t_diag = (t + 1 < b2) ? 2.0 : 1.0;
      double p = two_r * t_diag + diag_shift;
      double q = rho_eq;
      if (t > 0) {
        p -= 4.0 * cost.r * cost.r * prev_ip;
        q -= 4.0 * cost.r * cost.r * prev_iq;
      }
      if (p <= 0.0 || p + nd * q <= 0.0 || !std::isfinite(p)) {
        throw NumericalError(
            "CondensedQpSolver: x-update system is not positive definite");
      }
      factors->thomas_ip[t] = 1.0 / p;
      factors->thomas_iq[t] = -q / (p * (p + nd * q));
      prev_ip = factors->thomas_ip[t];
      prev_iq = factors->thomas_iq[t];
    }
  }

  // Woodbury capacitance K = D̃⁻¹ + Wᵀ B⁻¹ W, assembled from the Jacobi
  // eigendecomposition T = Q Λ Qᵀ: in the rotated basis the blocks of B
  // are (d_k I + rho_eq J) with d_k = 2r λ_k + diag_shift, whose inverse
  // is (1/d_k) I − (φ_k/d_k) J, φ_k = rho_eq/(d_k + N rho_eq). Summing
  // the C identical portal blocks of Wᵀ·W gives, per (t,t') pair,
  //   C·u(t,t')·δ_jj' + C·v(t,t'),
  // u(t,t') = Σ_k Q_tk Q_t'k / d_k, v(t,t') = −Σ_k Q_tk Q_t'k φ_k / d_k.
  {
    Matrix tmat(b2, b2);
    for (std::size_t t = 0; t < b2; ++t) {
      tmat(t, t) = (t + 1 < b2) ? 2.0 : 1.0;
      if (t + 1 < b2) {
        tmat(t, t + 1) = -1.0;
        tmat(t + 1, t) = -1.0;
      }
    }
    const linalg::SymmetricEigen eig = linalg::symmetric_eigen(tmat);
    const double nd = static_cast<double>(nidc);
    Vector dk(b2), phik(b2);
    for (std::size_t k = 0; k < b2; ++k) {
      dk[k] = two_r * eig.values[k] + diag_shift;
      if (dk[k] <= 0.0) {
        throw NumericalError(
            "CondensedQpSolver: rotated x-update blocks are singular");
      }
      phik[k] = rho_eq / (dk[k] + nd * rho_eq);
    }
    Matrix ucoef(b2, b2), vcoef(b2, b2);
    for (std::size_t t = 0; t < b2; ++t) {
      for (std::size_t tp = 0; tp < b2; ++tp) {
        double usum = 0.0, vsum = 0.0;
        for (std::size_t k = 0; k < b2; ++k) {
          const double qq = eig.vectors(t, k) * eig.vectors(tp, k);
          usum += qq / dk[k];
          vsum -= qq * phik[k] / dk[k];
        }
        ucoef(t, tp) = usum;
        vcoef(t, tp) = vsum;
      }
    }
    const double cd = static_cast<double>(shape.portals);
    Matrix kmat(b2 * nidc, b2 * nidc);
    for (std::size_t t = 0; t < b2; ++t) {
      for (std::size_t tp = 0; tp < b2; ++tp) {
        for (std::size_t j = 0; j < nidc; ++j) {
          for (std::size_t jp = 0; jp < nidc; ++jp) {
            double entry = cd * vcoef(t, tp);
            if (j == jp) entry += cd * ucoef(t, tp);
            if (t == tp && j == jp) {
              entry += 1.0 / (rho_in + 2.0 * factors->chat[t * nidc + j]);
            }
            kmat(t * nidc + j, tp * nidc + jp) = entry;
          }
        }
      }
    }
    // K is factorized once and inverted against the identity: the
    // Cholesky constructor is also the SPD check. Forming K⁻¹ costs
    // O((β2·N)³) once; every iteration then pays one vectorizable
    // symmetric GEMV instead of two bandwidth-bound triangular solves.
    factors->kinv = linalg::Cholesky(kmat).solve(Matrix::identity(b2 * nidc));
  }
  return factors;
}

}  // namespace

const CondensedFactorCache::Entry* CondensedFactorCache::find_locked(
    const TransportQpShape& shape, const TransportQpCost& cost,
    const AdmmOptions& options) const {
  for (const Entry& entry : entries_) {
    // cost.y0 is deliberately absent from the key: the output offset
    // never enters the factorization, so fleets differing only in y0
    // still share one entry.
    if (entry.shape.portals == shape.portals &&
        entry.shape.idcs == shape.idcs &&
        entry.shape.prediction == shape.prediction &&
        entry.shape.control == shape.control &&
        entry.shape.nonnegative == shape.nonnegative &&
        entry.rho == options.rho &&
        entry.rho_eq_scale == options.rho_eq_scale &&
        entry.sigma == options.sigma && entry.cost.r == cost.r &&
        entry.cost.q == cost.q && entry.cost.slope == cost.slope) {
      return &entry;
    }
  }
  return nullptr;
}

std::shared_ptr<const CondensedFactors> CondensedFactorCache::get(
    const TransportQpShape& shape, const TransportQpCost& cost,
    const AdmmOptions& options) {
  util::MutexLock lock(mutex_);
  if (const Entry* entry = find_locked(shape, cost, options)) {
    ++hits_;
    return entry->factors;
  }
  ++misses_;
  const double rho_in = options.rho;
  const double rho_eq = options.rho * options.rho_eq_scale;
  const double diag_shift = options.sigma + (shape.nonnegative ? rho_in : 0.0);
  Entry entry{shape,         cost,
              options.rho,   options.rho_eq_scale,
              options.sigma, build_factors(shape, cost, rho_in, rho_eq,
                                           diag_shift)};
  entries_.push_back(entry);
  return entry.factors;
}

std::uint64_t CondensedFactorCache::hits() const {
  util::MutexLock lock(mutex_);
  return hits_;
}

std::uint64_t CondensedFactorCache::misses() const {
  util::MutexLock lock(mutex_);
  return misses_;
}

void CondensedQpSolver::configure(const TransportQpShape& shape,
                                  const TransportQpCost& cost,
                                  const AdmmOptions& options,
                                  CondensedFactorCache* cache) {
  shape.validate();
  const std::size_t nidc = shape.idcs;
  require(cost.q.size() == nidc && cost.slope.size() == nidc &&
              cost.y0.size() == nidc,
          "CondensedQpSolver: cost vector size mismatch");
  for (std::size_t j = 0; j < nidc; ++j) {
    require(cost.q[j] >= 0.0 && std::isfinite(cost.q[j]),
            "CondensedQpSolver: tracking weights must be non-negative");
    require(std::isfinite(cost.slope[j]) && std::isfinite(cost.y0[j]),
            "CondensedQpSolver: output map must be finite");
  }
  require(cost.r >= 0.0 && std::isfinite(cost.r),
          "CondensedQpSolver: move penalty must be non-negative");
  options.validate();

  shape_ = shape;
  cost_ = cost;
  options_ = options;
  cache_ = cache;
  start_rung_ = *rho_rung_of(options.rho);
  rung_factors_ = {};
  use_rung(start_rung_);

  const std::size_t b1 = shape.prediction;
  const std::size_t b2 = shape.control;
  const std::size_t n = shape.num_vars();
  const std::size_t rows = shape.num_rows();

  // Arena.
  x_.assign(n, 0.0);
  u_.assign(n, 0.0);
  z_.assign(rows, 0.0);
  y_.assign(rows, 0.0);
  zt_.assign(b2 * (shape.portals + nidc), 0.0);
  ax_.assign(b2 * (shape.portals + nidc), 0.0);
  cvec_.assign(b2 * nidc, 0.0);
  wvec_.assign(b2 * nidc, 0.0);
  capadd_.assign(b2 * nidc, 0.0);
  pl_.assign(nidc, 0.0);
  caplo_.assign(nidc, 0.0);
  capup_.assign(nidc, 0.0);
  beq_.assign(shape.portals, 0.0);
  ghat_.assign(b1 * nidc, 0.0);
  qlin_.assign(b2 * nidc, 0.0);
  result_.delta_u.assign(n, 0.0);
  result_.y.assign(rows, 0.0);
  result_.y1.assign(nidc, 0.0);
  configured_ = true;
}

void CondensedQpSolver::use_rung(int rung) {
  rung_ = rung;
  rho_in_ = rho_of_rung(rung);
  inv_rho_in_ = 1.0 / rho_in_;
  rho_eq_ = rho_in_ * options_.rho_eq_scale;
  diag_shift_ = options_.sigma + (shape_.nonnegative ? rho_in_ : 0.0);
  auto& slot = rung_factors_[static_cast<std::size_t>(rung - kRhoRungMin)];
  if (slot == nullptr) {
    if (cache_ != nullptr) {
      AdmmOptions rung_options = options_;
      rung_options.rho = rho_in_;
      slot = cache_->get(shape_, cost_, rung_options);
    } else {
      slot = build_factors(shape_, cost_, rho_in_, rho_eq_, diag_shift_);
    }
  }
  factors_ = slot.get();
}

void CondensedQpSolver::solve_b_in_place(double* x, std::size_t groups) const {
  const std::size_t b2 = shape_.control;
  const std::size_t nidc = shape_.idcs;
  const std::size_t blk = groups * nidc;
  const double two_r = 2.0 * cost_.r;
  // Forward sweep: y_t = rhs_t + 2r S_{t-1}⁻¹ y_{t-1}.
  for (std::size_t t = 1; t < b2; ++t) {
    const double* prev = x + (t - 1) * blk;
    double* cur = x + t * blk;
    const double ip = factors_->thomas_ip[t - 1];
    const double iq = factors_->thomas_iq[t - 1];
    for (std::size_t g = 0; g < groups; ++g) {
      const double* pv = prev + g * nidc;
      double* cv = cur + g * nidc;
      double s = 0.0;
      for (std::size_t j = 0; j < nidc; ++j) s += pv[j];
      const double add = iq * s;
      for (std::size_t j = 0; j < nidc; ++j) {
        cv[j] += two_r * (ip * pv[j] + add);
      }
    }
  }
  // Backward sweep: x_t = S_t⁻¹ (y_t + 2r x_{t+1}).
  for (std::size_t ti = b2; ti-- > 0;) {
    double* cur = x + ti * blk;
    if (ti + 1 < b2) {
      const double* next = x + (ti + 1) * blk;
      for (std::size_t k = 0; k < blk; ++k) cur[k] += two_r * next[k];
    }
    const double ip = factors_->thomas_ip[ti];
    const double iq = factors_->thomas_iq[ti];
    for (std::size_t g = 0; g < groups; ++g) {
      double* cv = cur + g * nidc;
      double s = 0.0;
      for (std::size_t j = 0; j < nidc; ++j) s += cv[j];
      const double add = iq * s;
      for (std::size_t j = 0; j < nidc; ++j) cv[j] = ip * cv[j] + add;
    }
  }
}

const CondensedQpResult& CondensedQpSolver::solve(
    const Vector& u_prev, const Vector& demand, const Vector& cap_lower,
    const Vector& cap_upper, const std::vector<Vector>& references,
    const Vector& warm_delta_u, const Vector& warm_dual,
    std::size_t max_iterations) {
  require(configured_, "CondensedQpSolver: configure() before solve()");
  const std::size_t cport = shape_.portals;
  const std::size_t nidc = shape_.idcs;
  const std::size_t b1 = shape_.prediction;
  const std::size_t b2 = shape_.control;
  const std::size_t m = shape_.num_inputs();
  const std::size_t n = shape_.num_vars();
  const std::size_t eq_rows = b2 * cport;
  const std::size_t cap_rows = b2 * nidc;
  const std::size_t rows = shape_.num_rows();
  require(u_prev.size() == m, "CondensedQpSolver: u_prev size mismatch");
  require(demand.size() == cport, "CondensedQpSolver: demand size mismatch");
  require(cap_lower.size() == nidc && cap_upper.size() == nidc,
          "CondensedQpSolver: cap size mismatch");
  require(!references.empty(), "CondensedQpSolver: no references");
  for (const Vector& r : references) {
    require(r.size() == nidc, "CondensedQpSolver: reference size mismatch");
  }

  // Per-tick condensed data. pl_j = Σ_i u_prev[i,j] is the previous
  // per-IDC load; all bounds shift by u_prev because the variables are
  // V_t = U_t − u_prev.
  std::fill(pl_.begin(), pl_.end(), 0.0);
  for (std::size_t i = 0; i < cport; ++i) {
    for (std::size_t j = 0; j < nidc; ++j) pl_[j] += u_prev[i * nidc + j];
  }
  for (std::size_t i = 0; i < cport; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < nidc; ++j) row_sum += u_prev[i * nidc + j];
    beq_[i] = demand[i] - row_sum;
  }
  for (std::size_t j = 0; j < nidc; ++j) {
    require(cap_lower[j] <= cap_upper[j],
            "CondensedQpSolver: cap lower > upper");
    caplo_[j] = cap_lower[j] - pl_[j];
    capup_[j] = cap_upper[j] - pl_[j];
  }
  for (std::size_t s = 0; s < b1; ++s) {
    const Vector& ref =
        s < references.size() ? references[s] : references.back();
    for (std::size_t j = 0; j < nidc; ++j) {
      ghat_[s * nidc + j] = ref[j] - cost_.slope[j] * pl_[j] - cost_.y0[j];
    }
  }
  // Compact linear term: q[(t,i,j)] = −2 q_j slope_j Σ_{s∈S_t} ĝ_{s,j}
  // (independent of the portal index i).
  for (std::size_t t = 0; t < b2; ++t) {
    for (std::size_t j = 0; j < nidc; ++j) {
      double gsum = 0.0;
      if (t + 1 < b2) {
        gsum = ghat_[t * nidc + j];
      } else {
        for (std::size_t s = b2 - 1; s < b1; ++s) gsum += ghat_[s * nidc + j];
      }
      qlin_[t * nidc + j] = -2.0 * cost_.q[j] * cost_.slope[j] * gsum;
    }
  }

  // Warm start: the cached stacked moves convert to V by prefix sums;
  // the condensed dual restores directly. Mirrors qp_admm's
  // z = clamp(A x) initialization.
  if (warm_delta_u.size() == n) {
    for (std::size_t k = 0; k < m; ++k) x_[k] = warm_delta_u[k];
    for (std::size_t t = 1; t < b2; ++t) {
      for (std::size_t k = 0; k < m; ++k) {
        x_[t * m + k] = x_[(t - 1) * m + k] + warm_delta_u[t * m + k];
      }
    }
  } else {
    std::fill(x_.begin(), x_.end(), 0.0);
  }
  if (warm_dual.size() == rows) {
    std::copy(warm_dual.begin(), warm_dual.end(), y_.begin());
  } else {
    std::fill(y_.begin(), y_.end(), 0.0);
  }

  // apply_a_head writes the equality and cap sections of A x in one
  // fused sweep per step block: each pass over x̂_t accumulates the
  // portal row sums (equality rows) and the per-IDC column sums (cap
  // rows) together, so x is read exactly once. The non-negativity rows
  // of A x are x itself and are never materialized. The hot loops below
  // index with explicit t/portal/IDC nesting rather than flat-row
  // modulus — an integer divide per element on a 100k-variable fleet
  // shape costs more than the arithmetic it feeds.
  const auto apply_a_head = [&](const Vector& x, Vector& out) {
    for (std::size_t t = 0; t < b2; ++t) {
      const double* xb = x.data() + t * m;
      double* eq = out.data() + t * cport;
      double* cap = out.data() + eq_rows + t * nidc;
      for (std::size_t j = 0; j < nidc; ++j) cap[j] = 0.0;
      for (std::size_t i = 0; i < cport; ++i) {
        const double* xr = xb + i * nidc;
        double s = 0.0;
        for (std::size_t j = 0; j < nidc; ++j) {
          s += xr[j];
          cap[j] += xr[j];
        }
        eq[i] = s;
      }
    }
  };

  // z = A x clamped to the row bounds; ax_ doubles as the running A x
  // head (maintained by convexity through the over-relaxed updates, so
  // the residual check never re-applies A).
  apply_a_head(x_, ax_);
  for (std::size_t t = 0; t < b2; ++t) {
    double* zeq = z_.data() + t * cport;
    for (std::size_t i = 0; i < cport; ++i) zeq[i] = beq_[i];
    const double* axcap = ax_.data() + eq_rows + t * nidc;
    double* zcap = z_.data() + eq_rows + t * nidc;
    for (std::size_t j = 0; j < nidc; ++j) {
      zcap[j] = std::clamp(axcap[j], caplo_[j], capup_[j]);
    }
  }
  if (shape_.nonnegative) {
    for (std::size_t t = 0; t < b2; ++t) {
      const double* xb = x_.data() + t * m;
      double* znn = z_.data() + eq_rows + cap_rows + t * m;
      for (std::size_t k = 0; k < m; ++k) {
        znn[k] = std::max(xb[k], -u_prev[k]);
      }
    }
  }

  use_rung(start_rung_);
  result_.status = QpStatus::kMaxIterations;
  result_.iterations = 0;
  result_.primal_residual = 0.0;
  result_.dual_residual = 0.0;

  const std::size_t max_iter =
      max_iterations > 0 ? max_iterations : options_.max_iterations;
  const double alpha = options_.alpha;
  const double sigma = options_.sigma;
  const double two_r = 2.0 * cost_.r;
  for (std::size_t iter = 1; iter <= max_iter; ++iter) {
    // rhs = sigma x − q + Aᵀ (rho∘z − y), assembled in one sweep per
    // step block: the cap-row addend is hoisted per (t, IDC), the
    // equality-row addend broadcasts over IDCs, and the non-negativity
    // rows contribute element-wise.
    for (std::size_t t = 0; t < b2; ++t) {
      const double* zcap = z_.data() + eq_rows + t * nidc;
      const double* ycap = y_.data() + eq_rows + t * nidc;
      double* ca = capadd_.data() + t * nidc;
      for (std::size_t j = 0; j < nidc; ++j) {
        ca[j] = rho_in_ * zcap[j] - ycap[j];
      }
    }
    for (std::size_t t = 0; t < b2; ++t) {
      const double* xb = x_.data() + t * m;
      double* rb = u_.data() + t * m;
      const double* ql = qlin_.data() + t * nidc;
      const double* ca = capadd_.data() + t * nidc;
      const double* znn =
          shape_.nonnegative ? z_.data() + eq_rows + cap_rows + t * m : nullptr;
      const double* ynn =
          shape_.nonnegative ? y_.data() + eq_rows + cap_rows + t * m : nullptr;
      for (std::size_t i = 0; i < cport; ++i) {
        const std::size_t eq_row = t * cport + i;
        const double eq_add = rho_eq_ * z_[eq_row] - y_[eq_row];
        const double* xr = xb + i * nidc;
        double* rr = rb + i * nidc;
        for (std::size_t j = 0; j < nidc; ++j) {
          rr[j] = sigma * xr[j] - ql[j] + eq_add;
        }
        for (std::size_t j = 0; j < nidc; ++j) rr[j] += ca[j];
        if (znn != nullptr) {
          const double* zr = znn + i * nidc;
          const double* yr = ynn + i * nidc;
          for (std::size_t j = 0; j < nidc; ++j) {
            rr[j] += rho_in_ * zr[j] - yr[j];
          }
        }
      }
      // Forward Thomas elimination rides the same ascending pass:
      // y_t = rhs_t + 2r S_{t-1}⁻¹ y_{t-1} with block t−1 complete and
      // both blocks cache-hot.
      if (t > 0) {
        const double* prev = u_.data() + (t - 1) * m;
        const double ip = factors_->thomas_ip[t - 1];
        const double iq = factors_->thomas_iq[t - 1];
        for (std::size_t g = 0; g < cport; ++g) {
          const double* pv = prev + g * nidc;
          double* cv = rb + g * nidc;
          double s = 0.0;
          for (std::size_t j = 0; j < nidc; ++j) s += pv[j];
          const double add = iq * s;
          for (std::size_t j = 0; j < nidc; ++j) {
            cv[j] += two_r * (ip * pv[j] + add);
          }
        }
      }
    }

    // x̃ = (B + W D̃ Wᵀ)⁻¹ rhs via Thomas + Woodbury: u = B⁻¹ rhs;
    // c = Wᵀu; w = K⁻¹c; x̃ = u − B⁻¹ W w (B⁻¹ of a portal-uniform
    // vector stays portal-uniform, so the correction solve runs on the
    // reduced β2·N system). The backward sweep accumulates the Woodbury
    // right-hand side Wᵀu as each block finishes.
    std::fill(cvec_.begin(), cvec_.end(), 0.0);
    for (std::size_t ti = b2; ti-- > 0;) {
      double* cur = u_.data() + ti * m;
      if (ti + 1 < b2) {
        const double* next = u_.data() + (ti + 1) * m;
        for (std::size_t k = 0; k < m; ++k) cur[k] += two_r * next[k];
      }
      const double ip = factors_->thomas_ip[ti];
      const double iq = factors_->thomas_iq[ti];
      for (std::size_t g = 0; g < cport; ++g) {
        double* cv = cur + g * nidc;
        double s = 0.0;
        for (std::size_t j = 0; j < nidc; ++j) s += cv[j];
        const double add = iq * s;
        for (std::size_t j = 0; j < nidc; ++j) cv[j] = ip * cv[j] + add;
      }
      double* cb = cvec_.data() + ti * nidc;
      for (std::size_t i = 0; i < cport; ++i) {
        for (std::size_t j = 0; j < nidc; ++j) cb[j] += cur[i * nidc + j];
      }
    }
    // w = K⁻¹ c as a symmetric GEMV in saxpy form (row r of K⁻¹ scaled
    // by c_r — contiguous, so the inner loop vectorizes, unlike the
    // data-dependent recurrences of a triangular solve).
    std::fill(wvec_.begin(), wvec_.end(), 0.0);
    {
      const std::size_t bn = b2 * nidc;
      const double* kinv = factors_->kinv.data();
      double* wv = wvec_.data();
      for (std::size_t r = 0; r < bn; ++r) {
        const double cr = cvec_[r];
        if (cr == 0.0) continue;
        const double* krow = kinv + r * bn;
        for (std::size_t c = 0; c < bn; ++c) wv[c] += krow[c] * cr;
      }
    }
    solve_b_in_place(wvec_.data(), 1);

    // One ascending pipeline per step block does the rest of the
    // iteration: x̃_t = u_t − W w_t (never stored — consumed in-register),
    // its row/column sums (the equality and cap rows of z̃), the
    // over-relaxed x update, the non-negativity z/y update (z̃ for those
    // rows IS x̃), the equality/cap z/y updates, and the running A x head
    // by linearity of A through the relaxation:
    //   A x⁺ = α (A x̃) + (1−α) (A x).
    // Residuals and tolerances match qp_admm's compute_residuals; the
    // dual-residual scan for block t−1 rides one block behind so its
    // x_{t−2..t} neighborhood is final and still cache-hot.
    const bool adapt = iter % kRhoAdaptInterval == 0;
    const bool check =
        adapt || iter % options_.check_interval == 0 || iter == max_iter;
    double primal = 0.0, norm_ax = 0.0, norm_z = 0.0;
    double dual = 0.0, norm_px = 0.0, norm_aty = 0.0;
    const auto dual_block = [&](std::size_t t) {
      const double t_diag = (t + 1 < b2) ? 2.0 : 1.0;
      const double* xb = x_.data() + t * m;
      const double* xprev = t > 0 ? x_.data() + (t - 1) * m : nullptr;
      const double* xnext = t + 1 < b2 ? x_.data() + (t + 1) * m : nullptr;
      const double* cb = ax_.data() + eq_rows + t * nidc;
      const double* ch = factors_->chat.data() + t * nidc;
      const double* ql = qlin_.data() + t * nidc;
      const double* ycap = y_.data() + eq_rows + t * nidc;
      const double* ynn = shape_.nonnegative
                              ? y_.data() + eq_rows + cap_rows + t * m
                              : nullptr;
      for (std::size_t i = 0; i < cport; ++i) {
        const double yeq = y_[t * cport + i];
        const std::size_t base = i * nidc;
        for (std::size_t j = 0; j < nidc; ++j) {
          const std::size_t k = base + j;
          double v = t_diag * xb[k];
          if (xprev != nullptr) v -= xprev[k];
          if (xnext != nullptr) v -= xnext[k];
          const double px = two_r * v + 2.0 * ch[j] * cb[j];
          double aty = yeq + ycap[j];
          if (ynn != nullptr) aty += ynn[k];
          dual = std::max(dual, std::abs(px + ql[j] + aty));
          norm_px = std::max(norm_px, std::abs(px));
          norm_aty = std::max(norm_aty, std::abs(aty));
        }
      }
    };
    for (std::size_t t = 0; t < b2; ++t) {
      const double* ub = u_.data() + t * m;
      const double* wb = wvec_.data() + t * nidc;
      double* xs = x_.data() + t * m;
      double* eq = zt_.data() + t * cport;
      double* cap = zt_.data() + eq_rows + t * nidc;
      double* zn = shape_.nonnegative
                       ? z_.data() + eq_rows + cap_rows + t * m
                       : nullptr;
      double* yn = shape_.nonnegative
                       ? y_.data() + eq_rows + cap_rows + t * m
                       : nullptr;
      for (std::size_t j = 0; j < nidc; ++j) cap[j] = 0.0;
      for (std::size_t i = 0; i < cport; ++i) {
        const double* ur = ub + i * nidc;
        double* xsr = xs + i * nidc;
        double* znr = zn != nullptr ? zn + i * nidc : nullptr;
        double* ynr = yn != nullptr ? yn + i * nidc : nullptr;
        const double* upr = u_prev.data() + i * nidc;
        double s = 0.0;
        for (std::size_t j = 0; j < nidc; ++j) {
          const double v = ur[j] - wb[j];
          s += v;
          cap[j] += v;
          const double xnew = alpha * v + (1.0 - alpha) * xsr[j];
          xsr[j] = xnew;
          if (znr != nullptr) {
            // Same z/y formulas as qp_admm with zt = x̃ for these rows.
            const double zr = alpha * v + (1.0 - alpha) * znr[j];
            const double znew = std::max(zr + ynr[j] * inv_rho_in_, -upr[j]);
            ynr[j] += rho_in_ * (zr - znew);
            znr[j] = znew;
            primal = std::max(primal, std::abs(xnew - znew));
            norm_ax = std::max(norm_ax, std::abs(xnew));
            norm_z = std::max(norm_z, std::abs(znew));
          }
        }
        eq[i] = s;
      }
      // Equality/cap z/y updates (identical formulas to qp_admm.cpp with
      // the per-section rho), the A x head recurrence, and — when
      // checking — the head rows' primal-residual terms.
      double* axeq = ax_.data() + t * cport;
      double* axcap = ax_.data() + eq_rows + t * nidc;
      double* zeq = z_.data() + t * cport;
      double* zcap = z_.data() + eq_rows + t * nidc;
      double* yeq = y_.data() + t * cport;
      double* ycap = y_.data() + eq_rows + t * nidc;
      for (std::size_t i = 0; i < cport; ++i) {
        const double zr = alpha * eq[i] + (1.0 - alpha) * zeq[i];
        // clamp(zr + y/rho, b, b) = b, so z collapses to the bound.
        yeq[i] += rho_eq_ * (zr - beq_[i]);
        zeq[i] = beq_[i];
        axeq[i] = alpha * eq[i] + (1.0 - alpha) * axeq[i];
      }
      for (std::size_t j = 0; j < nidc; ++j) {
        const double zr = alpha * cap[j] + (1.0 - alpha) * zcap[j];
        const double znew =
            std::clamp(zr + ycap[j] * inv_rho_in_, caplo_[j], capup_[j]);
        ycap[j] += rho_in_ * (zr - znew);
        zcap[j] = znew;
        axcap[j] = alpha * cap[j] + (1.0 - alpha) * axcap[j];
      }
      if (check) {
        for (std::size_t i = 0; i < cport; ++i) {
          primal = std::max(primal, std::abs(axeq[i] - zeq[i]));
          norm_ax = std::max(norm_ax, std::abs(axeq[i]));
          norm_z = std::max(norm_z, std::abs(zeq[i]));
        }
        for (std::size_t j = 0; j < nidc; ++j) {
          primal = std::max(primal, std::abs(axcap[j] - zcap[j]));
          norm_ax = std::max(norm_ax, std::abs(axcap[j]));
          norm_z = std::max(norm_z, std::abs(zcap[j]));
        }
        if (t > 0) dual_block(t - 1);
      }
    }

    if (check) {
      dual_block(b2 - 1);
      double norm_q = 0.0;
      for (const double v : qlin_) norm_q = std::max(norm_q, std::abs(v));
      const double eps_primal =
          options_.eps_abs + options_.eps_rel * std::max(norm_ax, norm_z);
      const double eps_dual =
          options_.eps_abs +
          options_.eps_rel * std::max({norm_px, norm_aty, norm_q});
      result_.iterations = iter;
      result_.primal_residual = primal;
      result_.dual_residual = dual;
      if (primal <= eps_primal && dual <= eps_dual) {
        result_.status = QpStatus::kOptimal;
        break;
      }
      if (adapt) {
        const int next = balanced_rho_rung(
            rung_, {primal, std::max(norm_ax, norm_z), dual,
                    std::max({norm_px, norm_aty, norm_q})});
        if (next != rung_) use_rung(next);
      }
    }
  }
  result_.rho_rung = rung_;

  // Primal infeasibility heuristic (same as qp_admm): residuals stalled
  // far from feasible relative to the bound magnitudes.
  if (result_.status != QpStatus::kOptimal) {
    double bound_scale = 1.0;
    for (const double b : beq_) {
      bound_scale = std::max(bound_scale, std::abs(b));
    }
    for (std::size_t j = 0; j < nidc; ++j) {
      if (std::isfinite(caplo_[j])) {
        bound_scale = std::max(bound_scale, std::abs(caplo_[j]));
      }
      if (std::isfinite(capup_[j])) {
        bound_scale = std::max(bound_scale, std::abs(capup_[j]));
      }
    }
    if (shape_.nonnegative) {
      for (std::size_t k = 0; k < m; ++k) {
        bound_scale = std::max(bound_scale, std::abs(u_prev[k]));
      }
    }
    apply_a_head(x_, ax_);
    double worst = 0.0;
    for (std::size_t t = 0; t < b2; ++t) {
      const double* aeq = ax_.data() + t * cport;
      for (std::size_t i = 0; i < cport; ++i) {
        worst = std::max(worst, std::abs(aeq[i] - beq_[i]));
      }
      const double* acap = ax_.data() + eq_rows + t * nidc;
      for (std::size_t j = 0; j < nidc; ++j) {
        if (std::isfinite(caplo_[j])) {
          worst = std::max(worst, caplo_[j] - acap[j]);
        }
        if (std::isfinite(capup_[j])) {
          worst = std::max(worst, acap[j] - capup_[j]);
        }
      }
    }
    if (shape_.nonnegative) {
      // The non-negativity rows of A x are x itself.
      for (std::size_t t = 0; t < b2; ++t) {
        const double* xb = x_.data() + t * m;
        for (std::size_t k = 0; k < m; ++k) {
          worst = std::max(worst, -u_prev[k] - xb[k]);
        }
      }
    }
    if (worst > 1e-3 * bound_scale) {
      result_.status = QpStatus::kInfeasible;
    }
  }

  // Map back to moves: ΔU_0 = V_0, ΔU_t = V_t − V_{t-1}.
  for (std::size_t k = 0; k < m; ++k) result_.delta_u[k] = x_[k];
  for (std::size_t t = 1; t < b2; ++t) {
    for (std::size_t k = 0; k < m; ++k) {
      result_.delta_u[t * m + k] = x_[t * m + k] - x_[(t - 1) * m + k];
    }
  }
  std::copy(y_.begin(), y_.end(), result_.y.begin());

  // First predicted output and the true least-squares objective (same
  // metric as solve_constrained_lsq reports, so backends compare). The
  // per-step column sums of the final iterate are already sitting in the
  // cap rows of ax_: kOptimal breaks right after an iteration that kept
  // the A x head current through the recurrence, and the non-optimal
  // paths run the infeasibility sweep's apply_a_head(x_) above.
  const double* csum = ax_.data() + eq_rows;
  for (std::size_t j = 0; j < nidc; ++j) {
    result_.y1[j] = cost_.slope[j] * (pl_[j] + csum[j]) + cost_.y0[j];
  }
  double objective = 0.0;
  for (std::size_t s = 0; s < b1; ++s) {
    const std::size_t t = std::min(s, b2 - 1);
    for (std::size_t j = 0; j < nidc; ++j) {
      const double resid =
          cost_.slope[j] * csum[t * nidc + j] - ghat_[s * nidc + j];
      objective += cost_.q[j] * resid * resid;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    objective += cost_.r * result_.delta_u[k] * result_.delta_u[k];
  }
  result_.objective = objective;
  return result_;
}

}  // namespace gridctl::solvers
