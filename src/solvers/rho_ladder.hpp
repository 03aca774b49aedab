// Adaptive ADMM step size on a fixed ladder of rungs.
//
// OSQP's residual-balancing rule (Stellato et al., 2020, Sec. 5.2)
// rescales ρ by the square root of the ratio of the normalized primal
// and dual residuals:
//
//   ρ⁺ = ρ · √( (r_prim / max(‖Ax‖∞, ‖z‖∞)) / (r_dual / max(‖Px‖∞, ‖Aᵀy‖∞, ‖q‖∞)) )
//
// Both ADMM paths (qp_admm, qp_condensed) call balanced_rho_rung() every
// kRhoAdaptInterval iterations. The candidate is snapped to the ladder
// ρ_k = 10^(k/2), k ∈ [−6, 6], by comparing it against precomputed
// geometric midpoints — no log/pow, so the chosen rung depends only on
// the iterates and IEEE arithmetic, never on the platform's libm. A
// switch happens only when the snapped rung is at least
// kRhoSwitchFactor away from the current one (OSQP's
// adaptive_rho_tolerance): with √10 spacing ρ moves two or more rungs
// at a time, never to a neighbouring rung.
#pragma once

#include <array>
#include <cstddef>
#include <optional>

namespace gridctl::solvers {

inline constexpr int kRhoRungMin = -6;
inline constexpr int kRhoRungMax = 6;
inline constexpr std::size_t kRhoRungs = kRhoRungMax - kRhoRungMin + 1;

// kRhoLadder[k − kRhoRungMin] = 10^(k/2), correctly rounded.
inline constexpr std::array<double, kRhoRungs> kRhoLadder = {
    0.001,  0.0031622776601683794, 0.01,  0.03162277660168379,
    0.1,    0.31622776601683794,   1.0,   3.1622776601683795,
    10.0,   31.622776601683793,    100.0, 316.22776601683796,
    1000.0};

// kRhoThresholds[i] = 10^((2(i + kRhoRungMin) + 1)/4), the geometric
// midpoint between ladder entries i and i + 1: a candidate at or above
// it snaps to the upper rung.
inline constexpr std::array<double, kRhoRungs - 1> kRhoThresholds = {
    0.0017782794100389228, 0.005623413251903491, 0.01778279410038923,
    0.05623413251903491,   0.1778279410038923,   0.5623413251903491,
    1.7782794100389228,    5.623413251903491,    17.78279410038923,
    56.23413251903491,     177.82794100389228,   562.341325190349};

// OSQP's adaptive_rho_tolerance.
inline constexpr double kRhoSwitchFactor = 5.0;

// Both ADMM paths re-balance ρ at every residual check whose iteration
// count is a multiple of this (a multiple of AdmmOptions' default
// check_interval, so the dense path gains no extra checks by default).
inline constexpr std::size_t kRhoAdaptInterval = 20;

// ρ on rung k (k in [kRhoRungMin, kRhoRungMax]).
inline double rho_of_rung(int rung) {
  return kRhoLadder[static_cast<std::size_t>(rung - kRhoRungMin)];
}

// The rung whose ladder value is exactly `rho`; nullopt off the ladder.
std::optional<int> rho_rung_of(double rho);

// The rung nearest to `candidate` in log scale, clamped to the ladder
// ends. NaN snaps to the bottom rung; callers screen it out first.
int nearest_rho_rung(double candidate);

// The residual-check quantities the rule reads (all ∞-norms).
struct RhoBalance {
  double primal = 0.0;        // ‖Ax − z‖
  double primal_scale = 0.0;  // max(‖Ax‖, ‖z‖)
  double dual = 0.0;          // ‖Px + q + Aᵀy‖
  double dual_scale = 0.0;    // max(‖Px‖, ‖Aᵀy‖, ‖q‖)
};

// The rung to continue on from `current` after a residual check: the
// snapped residual-balancing candidate when it is at least
// kRhoSwitchFactor away, `current` otherwise (also when any input is
// not finite).
int balanced_rho_rung(int current, const RhoBalance& balance);

}  // namespace gridctl::solvers
