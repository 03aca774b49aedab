#include "workload/predictor.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace gridctl::workload {

ArPredictor::ArPredictor(std::size_t order, double forgetting)
    : order_(order), rls_(order, forgetting), ring_(2 * order, 0.0) {
  require(order > 0, "ArPredictor: order must be positive");
}

void ArPredictor::push(double sample) {
  head_ = head_ == 0 ? order_ - 1 : head_ - 1;
  ring_[head_] = sample;
  ring_[head_ + order_] = sample;
  if (count_ < order_) ++count_;
}

double ArPredictor::observe(double sample) {
  double error = 0.0;
  if (warmed_up()) {
    error = rls_.update(
        std::span<const double>(ring_.data() + head_, order_), sample);
  }
  push(sample);
  return error;
}

void ArPredictor::predict_into(std::span<double> out) const {
  if (!warmed_up() || rls_.updates() == 0) {
    // Nothing seen yet, or the persistence fallback.
    const double value = count_ == 0 ? 0.0 : recent(0);
    for (double& v : out) v = value;
    return;
  }
  // Iterate the AR recursion, feeding predictions back in: the i-th
  // regressor entry of step s is out[s-1-i] while i < s, and the
  // (i-s)-th most recent sample after that. The sum runs in regressor
  // order like RecursiveLeastSquares::predict.
  const linalg::Vector& theta = rls_.theta();
  for (std::size_t s = 0; s < out.size(); ++s) {
    double sum = 0.0;
    for (std::size_t i = 0; i < order_; ++i) {
      const double regressor = i < s ? out[s - 1 - i] : recent(i - s);
      sum += regressor * theta[i];
    }
    out[s] = std::max(0.0, sum);
  }
}

double ArPredictor::predict(std::size_t horizon) const {
  require(horizon >= 1, "ArPredictor: horizon must be >= 1");
  return predict_trajectory(horizon).back();
}

std::vector<double> ArPredictor::predict_trajectory(std::size_t h) const {
  std::vector<double> out(h);
  predict_into(out);
  return out;
}

ArPredictor::State ArPredictor::snapshot() const {
  State state;
  state.theta = rls_.theta();
  state.covariance = rls_.covariance();
  state.updates = rls_.updates();
  state.history.assign(ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                       ring_.begin() +
                           static_cast<std::ptrdiff_t>(head_ + count_));
  return state;
}

void ArPredictor::restore(const State& state) {
  require(state.history.size() <= order_,
          "ArPredictor: restored history longer than the AR order");
  for (std::size_t k = 0; k < state.history.size(); ++k) {
    const double sample = state.history[k];
    if (!std::isfinite(sample) || sample < 0.0) {
      throw InvalidArgument(format(
          "ArPredictor: restored history[%zu] is %g (must be finite and >= 0)",
          k, sample));
    }
  }
  rls_.restore(state.theta, state.covariance, state.updates);
  // Oldest first, so the newest sample ends at head_.
  head_ = 0;
  count_ = 0;
  for (std::size_t k = state.history.size(); k-- > 0;) push(state.history[k]);
}

PredictionStats evaluate_one_step(ArPredictor& predictor,
                                  const std::vector<double>& series,
                                  std::size_t warmup) {
  require(warmup < series.size(), "evaluate_one_step: warmup too long");
  double abs_sum = 0.0, sq_sum = 0.0, pct_sum = 0.0;
  std::size_t count = 0, pct_count = 0;
  double y_sum = 0.0, y_sq_sum = 0.0;
  for (std::size_t k = 0; k < series.size(); ++k) {
    if (k >= warmup) {
      const double predicted = predictor.predict(1);
      const double actual = series[k];
      const double err = actual - predicted;
      abs_sum += std::abs(err);
      sq_sum += err * err;
      if (std::abs(actual) > 1e-9) {
        pct_sum += std::abs(err / actual);
        ++pct_count;
      }
      y_sum += actual;
      y_sq_sum += actual * actual;
      ++count;
    }
    predictor.observe(series[k]);
  }
  PredictionStats stats;
  if (count == 0) return stats;
  stats.mae = abs_sum / static_cast<double>(count);
  stats.rmse = std::sqrt(sq_sum / static_cast<double>(count));
  stats.mape = pct_count ? pct_sum / static_cast<double>(pct_count) : 0.0;
  const double mean = y_sum / static_cast<double>(count);
  const double total_ss = y_sq_sum - static_cast<double>(count) * mean * mean;
  stats.r_squared = total_ss > 0.0 ? 1.0 - sq_sum / total_ss : 0.0;
  return stats;
}

}  // namespace gridctl::workload
