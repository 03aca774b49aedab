#include "solvers/qp_admm.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "linalg/cholesky.hpp"
#include "solvers/rho_ladder.hpp"
#include "util/error.hpp"

namespace gridctl::solvers {

using linalg::Matrix;
using linalg::Vector;

void QpProblem::validate() const {
  const std::size_t n = num_vars();
  const std::size_t m = num_constraints();
  require(p.rows() == n && p.cols() == n, "QpProblem: P must be n x n");
  if (m > 0) {
    require(a.rows() == m && a.cols() == n, "QpProblem: A must be m x n");
  }
  require(upper.size() == m, "QpProblem: bound size mismatch");
  for (std::size_t i = 0; i < m; ++i) {
    require(lower[i] <= upper[i], "QpProblem: lower > upper");
  }
}

double QpProblem::objective(const Vector& x) const {
  return 0.5 * linalg::quadratic_form(p, x) + linalg::dot(q, x);
}

double QpProblem::max_violation(const Vector& x) const {
  if (num_constraints() == 0) return 0.0;
  const Vector ax = a * x;
  double worst = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    if (std::isfinite(lower[i])) worst = std::max(worst, lower[i] - ax[i]);
    if (std::isfinite(upper[i])) worst = std::max(worst, ax[i] - upper[i]);
  }
  return worst;
}

void AdmmOptions::validate() const {
  require(rho > 0.0, "AdmmOptions: rho must be > 0 (got " +
                         std::to_string(rho) + ")");
  require(rho_rung_of(rho).has_value(),
          "AdmmOptions: rho must be a step-size ladder rung 10^(k/2), "
          "k in [-6, 6], e.g. 0.1 or 1 (got " +
              std::to_string(rho) + ")");
  require(rho_eq_scale > 0.0, "AdmmOptions: rho_eq_scale must be > 0 (got " +
                                  std::to_string(rho_eq_scale) + ")");
  require(sigma > 0.0, "AdmmOptions: sigma must be > 0 (got " +
                           std::to_string(sigma) + ")");
  require(alpha > 0.0 && alpha < 2.0,
          "AdmmOptions: alpha must lie in (0, 2) (got " +
              std::to_string(alpha) + ")");
  require(check_interval > 0, "AdmmOptions: check_interval must be >= 1");
}

namespace {

struct Residuals {
  double primal = 0.0;
  double dual = 0.0;
  double eps_primal = 0.0;
  double eps_dual = 0.0;
  RhoBalance balance;
};

// `at` is Aᵀ, built once per solve.
Residuals compute_residuals(const QpProblem& prob, const Matrix& at,
                            const Vector& x, const Vector& z, const Vector& y,
                            const AdmmOptions& opt) {
  Residuals res;
  const Vector ax = prob.num_constraints() ? prob.a * x : Vector{};
  const Vector px = prob.p * x;
  Vector aty(x.size(), 0.0);
  if (prob.num_constraints()) aty = at * y;
  res.primal = prob.num_constraints() ? linalg::norm_inf(linalg::sub(ax, z)) : 0.0;
  Vector dual_vec = px;
  for (std::size_t i = 0; i < dual_vec.size(); ++i) {
    dual_vec[i] += prob.q[i] + aty[i];
  }
  res.dual = linalg::norm_inf(dual_vec);
  const double scale_primal =
      std::max(prob.num_constraints() ? linalg::norm_inf(ax) : 0.0,
               linalg::norm_inf(z));
  const double scale_dual = std::max(
      {linalg::norm_inf(px), linalg::norm_inf(aty), linalg::norm_inf(prob.q)});
  res.eps_primal = opt.eps_abs + opt.eps_rel * scale_primal;
  res.eps_dual = opt.eps_abs + opt.eps_rel * scale_dual;
  res.balance = {res.primal, scale_primal, res.dual, scale_dual};
  return res;
}

}  // namespace

QpResult solve_qp_admm(const QpProblem& problem, const AdmmOptions& options,
                       const Vector& warm_x, const Vector& warm_y) {
  problem.validate();
  options.validate();
  const std::size_t n = problem.num_vars();
  const std::size_t m = problem.num_constraints();
  const Matrix at = m > 0 ? problem.a.transpose() : Matrix{};

  // KKT matrix [[P + sigma I, Aᵀ], [A, -diag(1/rho)]]; only the
  // -diag(1/rho) block depends on the rung, so a switch rewrites it and
  // re-factors.
  Matrix kkt(n + m, n + m);
  kkt.set_block(0, 0, problem.p);
  for (std::size_t i = 0; i < n; ++i) kkt(i, i) += options.sigma;
  if (m > 0) {
    kkt.set_block(0, n, at);
    kkt.set_block(n, 0, problem.a);
  }

  // Per-row step sizes: equality rows get a much larger rho (OSQP's
  // standard heuristic) so they are enforced tightly.
  Vector rho(m), rho_inv(m);
  int rung = *rho_rung_of(options.rho);
  const auto factor_rung = [&] {
    const double rho_base = rho_of_rung(rung);
    for (std::size_t i = 0; i < m; ++i) {
      const bool is_eq = problem.lower[i] == problem.upper[i];
      rho[i] = is_eq ? rho_base * options.rho_eq_scale : rho_base;
      rho_inv[i] = 1.0 / rho[i];
      kkt(n + i, n + i) = -rho_inv[i];
    }
    return linalg::Ldlt(kkt);
  };
  linalg::Ldlt kkt_factor = factor_rung();

  QpResult result;
  Vector x = warm_x.size() == n ? warm_x : Vector(n, 0.0);
  Vector y = warm_y.size() == m ? warm_y : Vector(m, 0.0);
  Vector z = m ? problem.a * x : Vector{};
  for (std::size_t i = 0; i < m; ++i) {
    z[i] = std::clamp(z[i], problem.lower[i], problem.upper[i]);
  }

  Vector rhs(n + m), sol;
  for (std::size_t iter = 1; iter <= options.max_iterations; ++iter) {
    // rhs = [sigma x - q; z - y/rho]
    for (std::size_t i = 0; i < n; ++i) rhs[i] = options.sigma * x[i] - problem.q[i];
    for (std::size_t i = 0; i < m; ++i) rhs[n + i] = z[i] - rho_inv[i] * y[i];
    sol = kkt_factor.solve(rhs);

    Vector x_tilde(sol.begin(), sol.begin() + static_cast<std::ptrdiff_t>(n));
    // nu (the KKT dual block) gives z_tilde = z + (nu - y)/rho.
    Vector z_tilde(m);
    for (std::size_t i = 0; i < m; ++i) {
      z_tilde[i] = z[i] + rho_inv[i] * (sol[n + i] - y[i]);
    }

    // Over-relaxed updates.
    Vector x_next(n), z_next(m), y_next(m);
    for (std::size_t i = 0; i < n; ++i) {
      x_next[i] = options.alpha * x_tilde[i] + (1.0 - options.alpha) * x[i];
    }
    for (std::size_t i = 0; i < m; ++i) {
      const double z_relaxed =
          options.alpha * z_tilde[i] + (1.0 - options.alpha) * z[i];
      z_next[i] = std::clamp(z_relaxed + rho_inv[i] * y[i], problem.lower[i],
                             problem.upper[i]);
      y_next[i] = y[i] + rho[i] * (z_relaxed - z_next[i]);
    }
    x = std::move(x_next);
    z = std::move(z_next);
    y = std::move(y_next);

    const bool adapt = iter % kRhoAdaptInterval == 0;
    if (adapt || iter % options.check_interval == 0 ||
        iter == options.max_iterations) {
      const Residuals res = compute_residuals(problem, at, x, z, y, options);
      result.iterations = iter;
      result.primal_residual = res.primal;
      result.dual_residual = res.dual;
      if (res.primal <= res.eps_primal && res.dual <= res.eps_dual) {
        result.status = QpStatus::kOptimal;
        break;
      }
      if (adapt) {
        const int next = balanced_rho_rung(rung, res.balance);
        if (next != rung) {
          rung = next;
          kkt_factor = factor_rung();
        }
      }
    }
  }

  // Primal infeasibility heuristic: residuals stalled far from feasible.
  if (result.status != QpStatus::kOptimal) {
    double bound_scale = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (std::isfinite(problem.upper[i])) {
        bound_scale = std::max(bound_scale, std::abs(problem.upper[i]));
      }
      if (std::isfinite(problem.lower[i])) {
        bound_scale = std::max(bound_scale, std::abs(problem.lower[i]));
      }
    }
    if (problem.max_violation(x) > 1e-3 * bound_scale) {
      result.status = QpStatus::kInfeasible;
    }
  }

  result.x = std::move(x);
  result.y = std::move(y);
  result.rho_rung = rung;
  result.objective = problem.objective(result.x);
  return result;
}

}  // namespace gridctl::solvers
