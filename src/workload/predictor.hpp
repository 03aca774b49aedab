// Online AR(p) workload predictor fitted by Recursive Least Squares —
// the paper's eq. (12)–(13) and Fig. 3.
//
//   mu(k) = sum_{s=1..p} alpha_s mu(k-s) + eps(k)
//
// `observe` feeds one sample per period. `predict_into` runs the fitted
// recursion once, feeding each prediction back in, and writes the
// 1..h-step predictions; `predict(s)` and `predict_trajectory(h)` are
// views of that same pass (the s-step prediction is the s-th value of
// it), so every entry point returns the same bits. Until p samples have
// been seen, predictions fall back to the last observation
// (persistence).
//
// The history is a fixed ring of p samples (stored twice, so the
// newest-first window is always contiguous) and the RLS update runs in
// its own scratch: after construction, `observe` and `predict_into`
// perform no heap allocation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "solvers/rls.hpp"

namespace gridctl::workload {

class ArPredictor {
 public:
  // Complete estimator state, for checkpoint/restore of long-running
  // controllers. A restored predictor continues bit-identically.
  struct State {
    linalg::Vector theta;          // RLS coefficient estimate
    linalg::Matrix covariance;     // RLS P matrix
    std::size_t updates = 0;       // RLS update count
    std::vector<double> history;   // most recent first, size <= order
  };

  // order: AR order p; forgetting: RLS forgetting factor.
  explicit ArPredictor(std::size_t order, double forgetting = 0.98);

  // Feed one observed sample. Returns the a-priori one-step prediction
  // error for this sample (0 while warming up).
  double observe(double sample);

  // Predict the sample `horizon` steps after the last observation
  // (horizon >= 1). Negative extrapolations clamp to zero: workloads
  // cannot be negative.
  double predict(std::size_t horizon = 1) const;

  // Predicted trajectory for horizons 1..h.
  std::vector<double> predict_trajectory(std::size_t h) const;

  // out[s-1] = predict(s) for s = 1..out.size(), in one pass.
  void predict_into(std::span<double> out) const;

  bool warmed_up() const { return count_ >= order_; }
  std::size_t order() const { return order_; }
  const linalg::Vector& coefficients() const { return rls_.theta(); }

  State snapshot() const;
  // Throws InvalidArgument on a history longer than the order, a
  // negative or non-finite sample, or RLS state of another order.
  void restore(const State& state);

 private:
  // The i-th most recent sample (i < count_).
  double recent(std::size_t i) const { return ring_[head_ + i]; }
  void push(double sample);

  std::size_t order_;
  solvers::RecursiveLeastSquares rls_;
  // Mirrored ring: each sample is stored at head_ and head_ + order_, so
  // ring_[head_ .. head_ + order_) is always the newest-first window.
  std::vector<double> ring_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;  // samples held, <= order_
};

// Prediction-quality summary used by the Fig. 3 benchmark and tests.
struct PredictionStats {
  double mae = 0.0;    // mean absolute error
  double mape = 0.0;   // mean absolute percentage error (on |y| > eps)
  double rmse = 0.0;
  double r_squared = 0.0;
};

// Run a predictor over `series` one step ahead, scoring predictions made
// after `warmup` samples.
PredictionStats evaluate_one_step(ArPredictor& predictor,
                                  const std::vector<double>& series,
                                  std::size_t warmup);

}  // namespace gridctl::workload
