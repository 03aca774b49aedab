// The adaptive step-size rule both ADMM paths share: the ladder and its
// snapping thresholds, the 5× switch tolerance, clamping at the ladder
// ends, and determinism of the decision.
#include "solvers/rho_ladder.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace gridctl::solvers {
namespace {

// A residual pair whose balancing candidate is ρ_current · factor:
// equal scales and a primal/dual ratio of factor².
RhoBalance balance_for(double factor) {
  return {factor * factor, 1.0, 1.0, 1.0};
}

TEST(RhoLadder, RungsArePowersOfRootTen) {
  for (int k = kRhoRungMin; k <= kRhoRungMax; ++k) {
    const double expected = std::pow(10.0, 0.5 * k);
    EXPECT_NEAR(rho_of_rung(k), expected, 1e-15 * expected) << "rung " << k;
    ASSERT_TRUE(rho_rung_of(rho_of_rung(k)).has_value());
    EXPECT_EQ(*rho_rung_of(rho_of_rung(k)), k);
    EXPECT_EQ(nearest_rho_rung(rho_of_rung(k)), k);
  }
  EXPECT_FALSE(rho_rung_of(0.2).has_value());
  EXPECT_FALSE(rho_rung_of(std::nextafter(0.1, 1.0)).has_value());
}

TEST(RhoLadder, EveryThresholdSplitsItsNeighbours) {
  for (std::size_t i = 0; i < kRhoThresholds.size(); ++i) {
    const double threshold = kRhoThresholds[i];
    const int lower = kRhoRungMin + static_cast<int>(i);
    // The geometric midpoint of the two rungs it separates.
    EXPECT_NEAR(threshold, std::sqrt(kRhoLadder[i] * kRhoLadder[i + 1]),
                1e-15 * threshold);
    EXPECT_EQ(nearest_rho_rung(threshold), lower + 1) << "threshold " << i;
    EXPECT_EQ(nearest_rho_rung(std::nextafter(threshold, 0.0)), lower)
        << "threshold " << i;
  }
}

TEST(RhoLadder, ClampsAtBothEnds) {
  EXPECT_EQ(nearest_rho_rung(0.0), kRhoRungMin);
  EXPECT_EQ(nearest_rho_rung(1e-300), kRhoRungMin);
  EXPECT_EQ(nearest_rho_rung(0.1 * kRhoLadder.front()), kRhoRungMin);
  EXPECT_EQ(nearest_rho_rung(10.0 * kRhoLadder.back()), kRhoRungMax);
  EXPECT_EQ(nearest_rho_rung(std::numeric_limits<double>::infinity()),
            kRhoRungMax);
  // The rule itself: a huge imbalance pins to the end rung and stays.
  EXPECT_EQ(balanced_rho_rung(0, balance_for(1e9)), kRhoRungMax);
  EXPECT_EQ(balanced_rho_rung(kRhoRungMax, balance_for(1e9)), kRhoRungMax);
  EXPECT_EQ(balanced_rho_rung(0, balance_for(1e-9)), kRhoRungMin);
  EXPECT_EQ(balanced_rho_rung(kRhoRungMin, balance_for(1e-9)), kRhoRungMin);
  // A zero dual residual is an infinite imbalance, not a NaN.
  EXPECT_EQ(balanced_rho_rung(0, {1.0, 1.0, 0.0, 1.0}), kRhoRungMax);
  EXPECT_EQ(balanced_rho_rung(0, {0.0, 1.0, 1.0, 1.0}), kRhoRungMin);
}

TEST(RhoLadder, SwitchesOnlyAtFiveFoldOrMore) {
  for (int from = kRhoRungMin; from <= kRhoRungMax; ++from) {
    for (int to = kRhoRungMin; to <= kRhoRungMax; ++to) {
      const double factor = rho_of_rung(to) / rho_of_rung(from);
      const bool far = factor >= kRhoSwitchFactor ||
                       factor <= 1.0 / kRhoSwitchFactor;
      // One rung is a √10 ≈ 3.2× step: below the tolerance; two are 10×.
      EXPECT_EQ(far, std::abs(to - from) >= 2) << from << " -> " << to;
      EXPECT_EQ(balanced_rho_rung(from, balance_for(factor)), far ? to : from)
          << from << " -> " << to;
    }
  }
  // Candidates between rungs: 4.9× snaps one rung up (√10) and stays;
  // 6× snaps two rungs up (10×) and switches.
  EXPECT_EQ(balanced_rho_rung(-2, balance_for(4.9)), -2);
  EXPECT_EQ(balanced_rho_rung(-2, balance_for(6.0)), 0);
  EXPECT_EQ(balanced_rho_rung(-2, balance_for(1.0 / 6.0)), -4);
}

TEST(RhoLadder, NormalizesByResidualScales) {
  // Equal raw residuals but a 100× larger primal scale: the normalized
  // primal residual is 100× smaller, so ρ falls by √100 = 10×.
  EXPECT_EQ(balanced_rho_rung(0, {1.0, 100.0, 1.0, 1.0}), -2);
  EXPECT_EQ(balanced_rho_rung(0, {1.0, 1.0, 1.0, 100.0}), 2);
  EXPECT_EQ(balanced_rho_rung(0, {3.0, 3.0, 7.0, 7.0}), 0);
}

TEST(RhoLadder, NonFiniteResidualsKeepTheRung) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(balanced_rho_rung(1, {nan, 1.0, 1.0, 1.0}), 1);
  EXPECT_EQ(balanced_rho_rung(1, {1.0, 1.0, nan, 1.0}), 1);
  EXPECT_EQ(balanced_rho_rung(1, {inf, inf, 1.0, 1.0}), 1);
}

TEST(RhoLadder, SameInputsSameRung) {
  const RhoBalance balance{0.37, 12.5, 4.1e-3, 0.9};
  const int first = balanced_rho_rung(-2, balance);
  for (int repeat = 0; repeat < 1000; ++repeat) {
    EXPECT_EQ(balanced_rho_rung(-2, balance), first);
  }
  for (int k = kRhoRungMin; k <= kRhoRungMax; ++k) {
    const int once = balanced_rho_rung(k, balance);
    EXPECT_EQ(balanced_rho_rung(k, balance), once);
    EXPECT_GE(once, kRhoRungMin);
    EXPECT_LE(once, kRhoRungMax);
  }
}

}  // namespace
}  // namespace gridctl::solvers
