// Bit-identity of the one-pass AR predictor. The oracle below is the
// earlier implementation kept test-local: a deque history that every
// predict(s) copies and re-iterates from scratch, and an RLS update that
// builds P·φ, the gain and the rank-1 correction as linalg temporaries.
// The production predictor and RLS must reproduce it to the last bit
// (EXPECT_EQ on doubles), through warm-up, clamping and a mid-series
// snapshot/restore.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <numbers>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "solvers/rls.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "workload/predictor.hpp"

namespace gridctl::workload {
namespace {

using linalg::Matrix;
using linalg::Vector;

class OracleRls {
 public:
  OracleRls(std::size_t dim, double forgetting)
      : dim_(dim), forgetting_(forgetting), theta_(dim, 0.0) {
    p_ = Matrix::identity(dim);
    p_ *= 1e6;
  }

  double predict(const Vector& phi) const { return linalg::dot(phi, theta_); }

  double update(const Vector& phi, double y) {
    const double error = y - predict(phi);
    const Vector p_phi = p_ * phi;
    const double denom = forgetting_ + linalg::dot(phi, p_phi);
    const Vector gain = linalg::scale(1.0 / denom, p_phi);
    linalg::axpy(error, gain, theta_);
    Matrix update(dim_, dim_);
    for (std::size_t i = 0; i < dim_; ++i) {
      for (std::size_t j = 0; j < dim_; ++j) update(i, j) = gain[i] * p_phi[j];
    }
    p_ -= update;
    p_ *= 1.0 / forgetting_;
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

  const Vector& theta() const { return theta_; }
  const Matrix& covariance() const { return p_; }
  std::size_t updates() const { return updates_; }

 private:
  std::size_t dim_;
  double forgetting_;
  Vector theta_;
  Matrix p_;
  std::size_t updates_ = 0;
};

class OraclePredictor {
 public:
  OraclePredictor(std::size_t order, double forgetting)
      : order_(order), rls_(order, forgetting) {}

  double observe(double sample) {
    double error = 0.0;
    if (history_.size() >= order_) {
      const Vector phi(history_.begin(),
                       history_.begin() + static_cast<std::ptrdiff_t>(order_));
      error = rls_.update(phi, sample);
    }
    history_.push_front(sample);
    if (history_.size() > order_) history_.pop_back();
    return error;
  }

  double predict(std::size_t horizon) const {
    if (history_.empty()) return 0.0;
    if (history_.size() < order_ || rls_.updates() == 0) {
      return history_.front();
    }
    std::deque<double> window = history_;
    double value = 0.0;
    for (std::size_t step = 0; step < horizon; ++step) {
      const Vector phi(window.begin(),
                       window.begin() + static_cast<std::ptrdiff_t>(order_));
      value = std::max(0.0, rls_.predict(phi));
      window.push_front(value);
      window.pop_back();
    }
    return value;
  }

  const OracleRls& rls() const { return rls_; }

 private:
  std::size_t order_;
  OracleRls rls_;
  std::deque<double> history_;
};

constexpr std::size_t kHorizon = 8;

// Diurnal demand with noise, bursts and sharp drops: the drops drive the
// AR extrapolation below zero, so the clamp is exercised.
std::vector<double> demand_series(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  std::vector<double> series(length);
  for (std::size_t k = 0; k < length; ++k) {
    const double phase =
        2.0 * std::numbers::pi * static_cast<double>(k) / 144.0;
    double value = 4000.0 + 2500.0 * std::sin(phase) + rng.normal(0.0, 300.0);
    if (rng.bernoulli(0.03)) value *= rng.uniform(1.5, 3.0);
    if (rng.bernoulli(0.04)) value = rng.uniform(0.0, 50.0);
    series[k] = std::max(0.0, value);
  }
  return series;
}

// Every prediction entry point against the oracle's restarted recursion.
void expect_same_predictions(const ArPredictor& predictor,
                             const OraclePredictor& oracle,
                             std::size_t& clamped) {
  std::vector<double> trajectory(kHorizon);
  predictor.predict_into(trajectory);
  const std::vector<double> by_value = predictor.predict_trajectory(kHorizon);
  for (std::size_t s = 1; s <= kHorizon; ++s) {
    const double expected = oracle.predict(s);
    EXPECT_EQ(trajectory[s - 1], expected) << "predict_into step " << s;
    EXPECT_EQ(by_value[s - 1], expected) << "predict_trajectory step " << s;
    EXPECT_EQ(predictor.predict(s), expected) << "predict(" << s << ")";
    clamped += expected == 0.0 && predictor.warmed_up() ? 1 : 0;
  }
}

void expect_same_estimator(const ArPredictor& predictor,
                           const OraclePredictor& oracle) {
  const ArPredictor::State state = predictor.snapshot();
  EXPECT_EQ(state.updates, oracle.rls().updates());
  EXPECT_EQ(state.theta, oracle.rls().theta());
  const Matrix& p = oracle.rls().covariance();
  ASSERT_EQ(state.covariance.rows(), p.rows());
  for (std::size_t i = 0; i < p.rows(); ++i) {
    for (std::size_t j = 0; j < p.cols(); ++j) {
      EXPECT_EQ(state.covariance(i, j), p(i, j)) << i << "," << j;
    }
  }
}

TEST(ArPredictorOracle, OnePassMatchesRestartedRecursionBitForBit) {
  std::size_t clamped = 0, persistence = 0;
  for (std::size_t order = 1; order <= 4; ++order) {
    for (double forgetting : {0.98, 1.0}) {
      for (std::uint64_t seed : {1u, 7919u}) {
        SCOPED_TRACE(testing::Message() << "order " << order << " forgetting "
                                        << forgetting << " seed " << seed);
        ArPredictor predictor(order, forgetting);
        OraclePredictor oracle(order, forgetting);
        // Before any sample: every horizon predicts zero.
        expect_same_predictions(predictor, oracle, clamped);
        for (double sample : demand_series(seed, 400)) {
          persistence += predictor.warmed_up() ? 0 : 1;
          ASSERT_EQ(predictor.observe(sample), oracle.observe(sample));
          expect_same_predictions(predictor, oracle, clamped);
          expect_same_estimator(predictor, oracle);
          if (testing::Test::HasFailure()) return;
        }
      }
    }
  }
  // The series reach the persistence fallback and the zero clamp.
  EXPECT_GT(persistence, 10u);
  EXPECT_GT(clamped, 50u);
}

TEST(ArPredictorOracle, RestoreMidSeriesContinuesBitForBit) {
  for (std::size_t order : {1u, 3u}) {
    // A snapshot during warm-up and one after it.
    for (std::size_t cut : {order - 1, std::size_t{150}}) {
      SCOPED_TRACE(testing::Message() << "order " << order << " cut " << cut);
      const std::vector<double> series = demand_series(46, 300);
      ArPredictor straight(order);
      OraclePredictor oracle(order, 0.98);
      for (std::size_t k = 0; k < cut; ++k) {
        straight.observe(series[k]);
        oracle.observe(series[k]);
      }
      ArPredictor resumed(order);
      resumed.observe(123.0);  // state the restore must overwrite
      resumed.restore(straight.snapshot());
      std::size_t clamped = 0;
      expect_same_predictions(resumed, oracle, clamped);
      for (std::size_t k = cut; k < series.size(); ++k) {
        ASSERT_EQ(resumed.observe(series[k]), oracle.observe(series[k]));
        expect_same_predictions(resumed, oracle, clamped);
        expect_same_estimator(resumed, oracle);
        if (testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(ArPredictorOracle, RestoreRejectsHostileHistory) {
  ArPredictor source(3);
  for (double sample : {10.0, 12.0, 11.0, 13.0, 12.5}) source.observe(sample);
  ArPredictor::State state = source.snapshot();
  state.history[1] = -4.0;
  ArPredictor target(3);
  try {
    target.restore(state);
    FAIL() << "a negative history sample was restored";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("history[1]"), std::string::npos)
        << e.what();
  }
  state.history[1] = std::nan("");
  EXPECT_THROW(target.restore(state), InvalidArgument);
  // A rejected restore leaves the predictor as it was.
  EXPECT_EQ(target.predict(1), 0.0);
}

}  // namespace
}  // namespace gridctl::workload
