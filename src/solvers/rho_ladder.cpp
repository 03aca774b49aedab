#include "solvers/rho_ladder.hpp"

#include <cmath>

namespace gridctl::solvers {

namespace {

// OSQP's DIVISION_TOL: keeps the normalizations finite when a scale or
// the dual residual is exactly zero.
constexpr double kDivisionGuard = 1e-30;

}  // namespace

std::optional<int> rho_rung_of(double rho) {
  for (std::size_t i = 0; i < kRhoRungs; ++i) {
    if (kRhoLadder[i] == rho) return static_cast<int>(i) + kRhoRungMin;
  }
  return std::nullopt;
}

int nearest_rho_rung(double candidate) {
  int rung = kRhoRungMin;
  for (const double threshold : kRhoThresholds) {
    if (candidate >= threshold) ++rung;
  }
  return rung;
}

int balanced_rho_rung(int current, const RhoBalance& balance) {
  const double primal = balance.primal / (balance.primal_scale + kDivisionGuard);
  const double dual = balance.dual / (balance.dual_scale + kDivisionGuard);
  const double rho = rho_of_rung(current);
  // sqrt is correctly rounded under IEEE 754, unlike log/pow.
  const double candidate = rho * std::sqrt(primal / (dual + kDivisionGuard));
  if (std::isnan(candidate)) return current;
  const int next = nearest_rho_rung(candidate);
  const double rho_next = rho_of_rung(next);
  if (rho_next >= kRhoSwitchFactor * rho || rho >= kRhoSwitchFactor * rho_next) {
    return next;
  }
  return current;
}

}  // namespace gridctl::solvers
