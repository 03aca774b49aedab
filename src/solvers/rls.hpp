// Recursive Least Squares with exponential forgetting.
//
// Estimates theta in  y(k) = phi(k)ᵀ theta + e(k)  online. The workload
// predictor (paper Sec. III-D) uses this to fit the AR(p) coefficients
// of the arrival process; ref. [18] of the paper describes the same
// estimator in a utilization-control setting.
//
// `update` runs in member scratch (P·φ and the gain), so a fitted
// estimator performs no heap allocation per sample.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace gridctl::solvers {

class RecursiveLeastSquares {
 public:
  // `dimension` is the regressor length; `forgetting` in (0, 1] weights
  // past data by forgetting^age; `initial_covariance` scales the initial
  // P = c·I (large c = weak prior on theta = 0).
  explicit RecursiveLeastSquares(std::size_t dimension,
                                 double forgetting = 0.98,
                                 double initial_covariance = 1e6);

  // Incorporate one observation pair (phi, y). Returns the a-priori
  // prediction error y - phiᵀtheta (before the update).
  double update(std::span<const double> phi, double y);
  // Keeps braced-list calls such as update({x}, y) compiling: a span
  // does not bind to an initializer list.
  double update(const linalg::Vector& phi, double y) {
    return update(std::span<const double>(phi), y);
  }

  // Predicted output for a regressor.
  double predict(std::span<const double> phi) const;

  const linalg::Vector& theta() const { return theta_; }
  const linalg::Matrix& covariance() const { return p_; }
  std::size_t updates() const { return updates_; }

  // Reset the estimate and covariance (e.g., after a regime change).
  void reset();

  // Overwrite the full estimator state (checkpoint restore). The
  // restored estimator continues bit-identically to the snapshotted one.
  void restore(const linalg::Vector& theta, const linalg::Matrix& covariance,
               std::size_t updates);

 private:
  std::size_t dim_;
  double forgetting_;
  double initial_covariance_;
  linalg::Vector theta_;
  linalg::Matrix p_;
  std::size_t updates_ = 0;
  // update() scratch: P·φ and the gain k.
  linalg::Vector p_phi_;
  linalg::Vector gain_;
};

}  // namespace gridctl::solvers
