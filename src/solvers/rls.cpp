#include "solvers/rls.hpp"

#include "util/error.hpp"

namespace gridctl::solvers {

using linalg::Matrix;
using linalg::Vector;

RecursiveLeastSquares::RecursiveLeastSquares(std::size_t dimension,
                                             double forgetting,
                                             double initial_covariance)
    : dim_(dimension),
      forgetting_(forgetting),
      initial_covariance_(initial_covariance) {
  require(dimension > 0, "RLS: dimension must be positive");
  require(forgetting > 0.0 && forgetting <= 1.0,
          "RLS: forgetting factor must be in (0, 1]");
  require(initial_covariance > 0.0, "RLS: initial covariance must be positive");
  p_phi_.assign(dim_, 0.0);
  gain_.assign(dim_, 0.0);
  reset();
}

void RecursiveLeastSquares::reset() {
  theta_.assign(dim_, 0.0);
  p_ = Matrix::identity(dim_);
  p_ *= initial_covariance_;
  updates_ = 0;
}

void RecursiveLeastSquares::restore(const Vector& theta,
                                    const Matrix& covariance,
                                    std::size_t updates) {
  require(theta.size() == dim_, "RLS: restored theta dimension mismatch");
  require(covariance.rows() == dim_ && covariance.cols() == dim_,
          "RLS: restored covariance shape mismatch");
  theta_ = theta;
  p_ = covariance;
  updates_ = updates;
}

double RecursiveLeastSquares::predict(std::span<const double> phi) const {
  require(phi.size() == dim_, "RLS: regressor dimension mismatch");
  double sum = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) sum += phi[i] * theta_[i];
  return sum;
}

// Each line below keeps the operation order of the matrix/vector
// helpers it replaces (row-major GEMV, dot, scale, axpy, element-wise
// P - k(Pφ)ᵀ, then ·1/λ), so a fitted estimator's bits do not depend
// on whether it ran through temporaries or through the scratch.
double RecursiveLeastSquares::update(std::span<const double> phi, double y) {
  require(phi.size() == dim_, "RLS: regressor dimension mismatch");
  const double error = y - predict(phi);
  // Gain k = P phi / (lambda + phiᵀ P phi).
  for (std::size_t r = 0; r < dim_; ++r) {
    const double* row = p_.data() + r * dim_;
    double sum = 0.0;
    for (std::size_t c = 0; c < dim_; ++c) sum += row[c] * phi[c];
    p_phi_[r] = sum;
  }
  double phi_p_phi = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) phi_p_phi += phi[i] * p_phi_[i];
  const double denom = forgetting_ + phi_p_phi;
  const double inv_denom = 1.0 / denom;
  for (std::size_t i = 0; i < dim_; ++i) gain_[i] = p_phi_[i] * inv_denom;
  for (std::size_t i = 0; i < dim_; ++i) theta_[i] += error * gain_[i];
  // P <- (P - k phiᵀ P) / lambda, symmetrized against drift.
  const double inv_forgetting = 1.0 / forgetting_;
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = 0; j < dim_; ++j) {
      const double rank_one = gain_[i] * p_phi_[j];
      p_(i, j) = (p_(i, j) - rank_one) * inv_forgetting;
    }
  }
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = i + 1; j < dim_; ++j) {
      const double mean = 0.5 * (p_(i, j) + p_(j, i));
      p_(i, j) = mean;
      p_(j, i) = mean;
    }
  }
  ++updates_;
  return error;
}

}  // namespace gridctl::solvers
