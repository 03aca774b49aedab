// CondensedQpSolver vs the dense backends on the same transport MPC
// problems. The condensed solver mirrors qp_admm's iteration exactly
// through the problem structure, so converged solutions must agree with
// the dense ADMM (and the exact active-set) within solver tolerance,
// and failure semantics (iteration caps, infeasibility) must match.
#include "solvers/qp_condensed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "control/constraints.hpp"
#include "control/prediction.hpp"
#include "solvers/lsq.hpp"
#include "solvers/qp_admm.hpp"
#include "util/error.hpp"

namespace gridctl::solvers {
namespace {

using control::InputConstraints;
using control::MpcHorizons;
using control::MpcPlant;
using control::StackedPrediction;
using control::TransportConstraints;
using linalg::Matrix;
using linalg::Vector;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct TransportCase {
  std::size_t portals = 2;
  std::size_t idcs = 3;
  std::size_t prediction = 4;
  std::size_t control = 2;
  Vector slope, y0, q;
  double r = 0.1;
  Vector u_prev, demand, cap_lower, cap_upper;
  std::vector<Vector> references;
  bool nonnegative = true;
};

// Deterministic pseudo-random fill in [lo, hi].
double jitter(std::size_t k, double lo, double hi) {
  const double u = 0.5 + 0.5 * std::sin(2.7 * static_cast<double>(k + 1));
  return lo + (hi - lo) * u;
}

TransportCase make_case(std::size_t portals, std::size_t idcs,
                        std::size_t prediction, std::size_t control) {
  TransportCase c;
  c.portals = portals;
  c.idcs = idcs;
  c.prediction = prediction;
  c.control = control;
  c.slope.resize(idcs);
  c.y0.resize(idcs);
  c.q.assign(idcs, 1.0);
  for (std::size_t j = 0; j < idcs; ++j) {
    c.slope[j] = jitter(j, 0.2, 0.6);
    c.y0[j] = jitter(j + 7, 0.01, 0.05);
  }
  c.u_prev.resize(portals * idcs);
  for (std::size_t k = 0; k < c.u_prev.size(); ++k) {
    c.u_prev[k] = jitter(k + 13, 0.0, 2.0);
  }
  c.demand.resize(portals);
  for (std::size_t i = 0; i < portals; ++i) {
    c.demand[i] = jitter(i + 31, 1.0, 4.0) * static_cast<double>(idcs);
  }
  c.cap_lower.assign(idcs, 0.0);
  c.cap_upper.assign(idcs, 0.0);
  double total = 0.0;
  for (double d : c.demand) total += d;
  for (std::size_t j = 0; j < idcs; ++j) {
    // Jointly feasible caps with slack.
    c.cap_upper[j] = 2.0 * total / static_cast<double>(idcs);
  }
  c.references.resize(prediction);
  for (std::size_t s = 0; s < prediction; ++s) {
    c.references[s].resize(idcs);
    for (std::size_t j = 0; j < idcs; ++j) {
      c.references[s][j] =
          c.slope[j] * total / static_cast<double>(idcs) + c.y0[j] +
          0.1 * std::sin(static_cast<double>(s + j));
    }
  }
  return c;
}

// The dense problem the MPC's dense path builds for this case: stacked
// prediction + stacked constraints.
ConstrainedLsqProblem make_lsq(const TransportCase& c) {
  const std::size_t n = c.idcs;
  const std::size_t m = c.portals * n;
  MpcPlant plant;
  plant.c_u = Matrix(n, m);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < c.portals; ++i) {
      plant.c_u(j, i * n + j) = c.slope[j];
    }
  }
  plant.y0 = c.y0;
  MpcHorizons horizons{c.prediction, c.control};
  const StackedPrediction prediction =
      control::build_prediction(plant, horizons, {}, c.u_prev);

  ConstrainedLsqProblem lsq;
  lsq.f = prediction.theta;
  lsq.g.assign(n * c.prediction, 0.0);
  lsq.w.assign(n * c.prediction, 0.0);
  for (std::size_t s = 0; s < c.prediction; ++s) {
    const Vector& ref = s < c.references.size() ? c.references[s]
                                                : c.references.back();
    for (std::size_t j = 0; j < n; ++j) {
      lsq.g[s * n + j] = ref[j] - prediction.constant[s * n + j];
      lsq.w[s * n + j] = c.q[j];
    }
  }
  lsq.r.assign(m * c.control, c.r);

  TransportConstraints transport;
  transport.demand = c.demand;
  transport.cap_lower = c.cap_lower;
  transport.cap_upper = c.cap_upper;
  transport.nonnegative = c.nonnegative;
  const InputConstraints per_step = transport.materialize();
  const auto stacked =
      control::stack_constraints(per_step, c.u_prev, c.control);
  lsq.a_eq = stacked.a_eq;
  lsq.b_eq = stacked.b_eq;
  lsq.a_in = stacked.a_in;
  lsq.lower = stacked.lower;
  lsq.upper = stacked.upper;
  return lsq;
}

// Dense reference solve through the exact same pipeline the MPC's dense
// path uses: make_lsq + the LSQ entry.
ConstrainedLsqResult solve_dense(const TransportCase& c, LsqBackend backend,
                                 std::size_t max_iterations = 0) {
  return solve_constrained_lsq(make_lsq(c),
                               LsqSolveOptions{backend, max_iterations});
}

CondensedQpSolver make_solver(const TransportCase& c) {
  CondensedQpSolver solver;
  TransportQpShape shape;
  shape.portals = c.portals;
  shape.idcs = c.idcs;
  shape.prediction = c.prediction;
  shape.control = c.control;
  shape.nonnegative = c.nonnegative;
  TransportQpCost cost;
  cost.q = c.q;
  cost.slope = c.slope;
  cost.y0 = c.y0;
  cost.r = c.r;
  AdmmOptions admm;
  admm.eps_abs = 1e-6;
  admm.eps_rel = 1e-6;
  admm.check_interval = 1;
  solver.configure(shape, cost, admm);
  return solver;
}

void expect_agrees_with_dense(const TransportCase& c, double x_tol,
                              double obj_rel_tol) {
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& condensed =
      solver.solve(c.u_prev, c.demand, c.cap_lower, c.cap_upper,
                   c.references, {}, {});
  ASSERT_EQ(condensed.status, QpStatus::kOptimal);

  const auto dense = solve_dense(c, LsqBackend::kAdmm);
  ASSERT_EQ(dense.status, QpStatus::kOptimal);
  ASSERT_EQ(condensed.delta_u.size(), dense.x.size());
  for (std::size_t k = 0; k < dense.x.size(); ++k) {
    EXPECT_NEAR(condensed.delta_u[k], dense.x[k], x_tol) << "entry " << k;
  }
  EXPECT_NEAR(condensed.objective, dense.objective,
              obj_rel_tol * std::max(1.0, std::abs(dense.objective)));
}

TEST(CondensedQp, MatchesDenseAdmmSmall) {
  expect_agrees_with_dense(make_case(2, 3, 4, 2), 2e-3, 1e-4);
}

TEST(CondensedQp, MatchesDenseAdmmSinglePortal) {
  expect_agrees_with_dense(make_case(1, 4, 5, 3), 2e-3, 1e-4);
}

TEST(CondensedQp, MatchesDenseAdmmEqualHorizons) {
  expect_agrees_with_dense(make_case(3, 2, 3, 3), 2e-3, 1e-4);
}

TEST(CondensedQp, MatchesDenseAdmmWider) {
  expect_agrees_with_dense(make_case(4, 5, 6, 2), 2e-3, 1e-4);
}

TEST(CondensedQp, MatchesActiveSetObjective) {
  const TransportCase c = make_case(2, 3, 4, 2);
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& condensed =
      solver.solve(c.u_prev, c.demand, c.cap_lower, c.cap_upper,
                   c.references, {}, {});
  ASSERT_EQ(condensed.status, QpStatus::kOptimal);
  const auto exact = solve_dense(c, LsqBackend::kActiveSet);
  ASSERT_EQ(exact.status, QpStatus::kOptimal);
  EXPECT_NEAR(condensed.objective, exact.objective,
              1e-4 * std::max(1.0, std::abs(exact.objective)));
  for (std::size_t k = 0; k < exact.x.size(); ++k) {
    EXPECT_NEAR(condensed.delta_u[k], exact.x[k], 2e-3) << "entry " << k;
  }
}

TEST(CondensedQp, BindingCapsMatchDense) {
  TransportCase c = make_case(2, 3, 4, 2);
  // Tighten one cap so it binds at the optimum: the cheapest IDC (by
  // tracking pull) is capped well below its unconstrained share.
  double total = 0.0;
  for (double d : c.demand) total += d;
  c.cap_upper[0] = 0.15 * total;
  expect_agrees_with_dense(c, 2e-3, 1e-4);

  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& res = solver.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  ASSERT_EQ(res.status, QpStatus::kOptimal);
  // The applied first step respects the cap.
  double load0 = 0.0;
  for (std::size_t i = 0; i < c.portals; ++i) {
    load0 += c.u_prev[i * c.idcs] + res.delta_u[i * c.idcs];
  }
  EXPECT_LE(load0, c.cap_upper[0] + 1e-4);
}

TEST(CondensedQp, HoldsShortReferenceTrajectory) {
  TransportCase c = make_case(2, 3, 5, 2);
  c.references.resize(1);  // held across the horizon
  expect_agrees_with_dense(c, 2e-3, 1e-4);
}

TEST(CondensedQp, InfeasibleCapsReportedLikeDense) {
  TransportCase c = make_case(2, 3, 4, 2);
  double total = 0.0;
  for (double d : c.demand) total += d;
  for (std::size_t j = 0; j < c.idcs; ++j) {
    c.cap_upper[j] = 0.2 * total / static_cast<double>(c.idcs);
  }
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& res = solver.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  EXPECT_EQ(res.status, QpStatus::kInfeasible);
  const auto dense = solve_dense(c, LsqBackend::kAdmm);
  EXPECT_EQ(dense.status, QpStatus::kInfeasible);
}

TEST(CondensedQp, IterationCapFailsLikeDense) {
  // A starvation-level cap cannot converge. Cold-started from ΔU = 0 the
  // iterate still violates conservation (this u_prev does not sum to the
  // demand), so the mirrored stall heuristic reports kInfeasible — the
  // exact status the dense ADMM returns on the same problem and cap.
  const TransportCase c = make_case(2, 3, 4, 2);
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& res =
      solver.solve(c.u_prev, c.demand, c.cap_lower, c.cap_upper,
                   c.references, {}, {}, /*max_iterations=*/2);
  EXPECT_NE(res.status, QpStatus::kOptimal);
  EXPECT_LE(res.iterations, 2u);
  const auto dense = solve_dense(c, LsqBackend::kAdmm, /*max_iterations=*/2);
  EXPECT_EQ(res.status, dense.status);
}

TEST(CondensedQp, IterationCapFromFeasiblePointReturnsMaxIterations) {
  // Same starvation cap, but u_prev satisfies every constraint: the
  // stall heuristic has nothing to flag and the honest kMaxIterations
  // status comes back.
  TransportCase c = make_case(2, 3, 4, 2);
  for (std::size_t i = 0; i < c.portals; ++i) {
    for (std::size_t j = 0; j < c.idcs; ++j) {
      c.u_prev[i * c.idcs + j] = c.demand[i] / static_cast<double>(c.idcs);
    }
  }
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& res =
      solver.solve(c.u_prev, c.demand, c.cap_lower, c.cap_upper,
                   c.references, {}, {}, /*max_iterations=*/2);
  EXPECT_EQ(res.status, QpStatus::kMaxIterations);
  EXPECT_LE(res.iterations, 2u);
}

TEST(CondensedQp, WarmStartConvergesFaster) {
  const TransportCase c = make_case(3, 4, 5, 3);
  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& cold = solver.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  ASSERT_EQ(cold.status, QpStatus::kOptimal);
  const std::size_t cold_iterations = cold.iterations;
  const Vector warm_x = cold.delta_u;
  const Vector warm_y = cold.y;
  const CondensedQpResult& warm =
      solver.solve(c.u_prev, c.demand, c.cap_lower, c.cap_upper,
                   c.references, warm_x, warm_y);
  ASSERT_EQ(warm.status, QpStatus::kOptimal);
  // Restarting at the optimum must terminate (nearly) immediately.
  EXPECT_LE(warm.iterations, 2u);
  EXPECT_LT(warm.iterations, cold_iterations);
}

TEST(CondensedQp, UnboundedCapsWork) {
  TransportCase c = make_case(2, 3, 4, 2);
  c.cap_upper.assign(c.idcs, kInf);
  expect_agrees_with_dense(c, 2e-3, 1e-4);
}

TEST(CondensedQp, ZeroMovePenaltyWorks) {
  TransportCase c = make_case(2, 3, 4, 2);
  c.r = 0.0;
  expect_agrees_with_dense(c, 5e-3, 1e-4);
}

// The market_plane shape: a routed plane fleet whose five portals carry
// one eighth of the paper's Table-I demand (in 1000 req/s) on the
// paper's three IDCs, with caps sized for the whole fleet. The previous
// period served a per-portal demand that has since drifted by a few
// percent, all of it on IDC 0. A fixed rho = 0.1 takes over 2800
// iterations on both ADMM paths here.
TransportCase routed_fleet_case() {
  TransportCase c;
  c.portals = 5;
  c.idcs = 3;
  c.prediction = 8;
  c.control = 2;
  c.slope = {0.1425, 0.228, 0.16285714285714284};
  c.y0 = {0.075, 0.12, 0.085714285714285715};
  c.q = {1.0, 1.0, 1.0};
  c.r = 3.0;
  c.demand = {3.75, 1.875, 1.875, 2.5, 2.5};
  const Vector drift = {1.0, 1.08, 0.99, 1.02, 1.0};
  c.u_prev.assign(c.portals * c.idcs, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < c.portals; ++i) {
    c.u_prev[i * c.idcs] = c.demand[i] * drift[i];
    total += c.demand[i];
  }
  c.cap_lower = {0.0, 0.0, 0.0};
  c.cap_upper = {39.0, 49.0, 34.0};
  c.references = {{c.slope[0] * total + c.y0[0], c.y0[1], c.y0[2]}};
  return c;
}

TEST(CondensedQp, RoutedFleetConvergesFastOnBothAdmmPaths) {
  const TransportCase c = routed_fleet_case();
  const ConstrainedLsqProblem lsq = make_lsq(c);
  const auto exact = solve_constrained_lsq(lsq, LsqBackend::kActiveSet);
  ASSERT_EQ(exact.status, QpStatus::kOptimal);

  CondensedQpSolver solver = make_solver(c);
  const CondensedQpResult& condensed = solver.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  ASSERT_EQ(condensed.status, QpStatus::kOptimal);
  EXPECT_LE(condensed.iterations, 150u);
  EXPECT_GT(condensed.rho_rung, -2) << "rho should climb from 0.1";

  AdmmOptions admm;
  admm.eps_abs = 1e-6;
  admm.eps_rel = 1e-6;
  const QpResult dense = solve_qp_admm(to_qp(lsq), admm);
  ASSERT_EQ(dense.status, QpStatus::kOptimal);
  EXPECT_LE(dense.iterations, 150u);
  EXPECT_GT(dense.rho_rung, -2) << "rho should climb from 0.1";

  ASSERT_EQ(condensed.delta_u.size(), exact.x.size());
  ASSERT_EQ(dense.x.size(), exact.x.size());
  for (std::size_t k = 0; k < exact.x.size(); ++k) {
    EXPECT_NEAR(condensed.delta_u[k], exact.x[k], 1e-4) << "entry " << k;
    EXPECT_NEAR(dense.x[k], exact.x[k], 1e-4) << "entry " << k;
  }
  EXPECT_NEAR(condensed.objective, exact.objective, 1e-4 * exact.objective);
}

// Rung factors are built on first use only, come from the shared cache
// when one is given, and no step-size state crosses solves.
TEST(CondensedQp, RungFactorsLoadOnFirstUseOnly) {
  const TransportCase c = routed_fleet_case();
  TransportQpShape shape;
  shape.portals = c.portals;
  shape.idcs = c.idcs;
  shape.prediction = c.prediction;
  shape.control = c.control;
  TransportQpCost cost{c.q, c.slope, c.y0, c.r};
  AdmmOptions admm;
  admm.eps_abs = 1e-6;
  admm.eps_rel = 1e-6;
  admm.check_interval = 1;
  CondensedFactorCache cache;
  CondensedQpSolver first;
  first.configure(shape, cost, admm, &cache);
  EXPECT_EQ(cache.misses(), 1u);

  const CondensedQpResult once = first.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  ASSERT_EQ(once.status, QpStatus::kOptimal);
  // A lone solver misses once per rung it uses.
  const std::uint64_t used = cache.misses();
  EXPECT_GE(used, 2u);
  EXPECT_EQ(cache.hits(), 0u);

  // A repeat solve restarts on the configured rung: same iterates, no
  // new factors.
  const CondensedQpResult& again = first.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  EXPECT_EQ(again.iterations, once.iterations);
  EXPECT_EQ(again.rho_rung, once.rho_rung);
  EXPECT_EQ(again.delta_u, once.delta_u);
  EXPECT_EQ(cache.misses(), used);
  EXPECT_EQ(cache.hits(), 0u);

  // A second solver on the same cache hits on every rung it first uses,
  // and matches a solver that builds its factors locally bit for bit.
  CondensedQpSolver second;
  second.configure(shape, cost, admm, &cache);
  const CondensedQpResult& shared = second.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  EXPECT_EQ(cache.misses(), used);
  EXPECT_EQ(cache.hits(), used);
  CondensedQpSolver local = make_solver(c);
  const CondensedQpResult& own = local.solve(
      c.u_prev, c.demand, c.cap_lower, c.cap_upper, c.references, {}, {});
  EXPECT_EQ(shared.delta_u, own.delta_u);
  EXPECT_EQ(shared.y, own.y);
}

// AdmmOptions::validate guards both ADMM paths: each rejected field
// throws InvalidArgument naming the field from solve_qp_admm and from
// CondensedQpSolver::configure alike.
void expect_rejected(const AdmmOptions& options, const std::string& field) {
  QpProblem qp;
  qp.p = Matrix{{2.0}};
  qp.q = {-1.0};
  qp.a = Matrix{{1.0}};
  qp.lower = {0.0};
  qp.upper = {1.0};
  try {
    solve_qp_admm(qp, options);
    ADD_FAILURE() << "solve_qp_admm accepted bad " << field;
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << error.what();
  }
  const TransportCase c = make_case(2, 3, 4, 2);
  TransportQpShape shape;
  shape.portals = c.portals;
  shape.idcs = c.idcs;
  shape.prediction = c.prediction;
  shape.control = c.control;
  CondensedQpSolver solver;
  try {
    solver.configure(shape, TransportQpCost{c.q, c.slope, c.y0, c.r}, options);
    ADD_FAILURE() << "CondensedQpSolver::configure accepted bad " << field;
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << error.what();
  }
}

TEST(AdmmOptionsValidation, RejectsNonPositiveRho) {
  AdmmOptions options;
  options.rho = 0.0;
  expect_rejected(options, "rho must be > 0");
  options.rho = -1.0;
  expect_rejected(options, "rho must be > 0");
}

TEST(AdmmOptionsValidation, RejectsRhoOffTheLadder) {
  AdmmOptions options;
  options.rho = 0.2;
  expect_rejected(options, "ladder");
  options.rho = 1e4;
  expect_rejected(options, "ladder");
}

TEST(AdmmOptionsValidation, RejectsNonPositiveSigma) {
  AdmmOptions options;
  options.sigma = 0.0;
  expect_rejected(options, "sigma");
}

TEST(AdmmOptionsValidation, RejectsAlphaOutsideOpenInterval) {
  AdmmOptions options;
  options.alpha = 0.0;
  expect_rejected(options, "alpha");
  options.alpha = 2.0;
  expect_rejected(options, "alpha");
}

TEST(AdmmOptionsValidation, RejectsZeroCheckInterval) {
  AdmmOptions options;
  options.check_interval = 0;
  expect_rejected(options, "check_interval");
}

TEST(AdmmOptionsValidation, RejectsNonPositiveRhoEqScale) {
  AdmmOptions options;
  options.rho_eq_scale = 0.0;
  expect_rejected(options, "rho_eq_scale");
}

TEST(AdmmOptionsValidation, AcceptsEveryLadderRung) {
  for (const double rho : kRhoLadder) {
    AdmmOptions options;
    options.rho = rho;
    EXPECT_NO_THROW(options.validate()) << rho;
  }
}

TEST(CondensedQp, RejectsBadShapes) {
  CondensedQpSolver solver;
  TransportQpShape shape;
  shape.portals = 0;
  shape.idcs = 3;
  shape.prediction = 4;
  shape.control = 2;
  TransportQpCost cost;
  cost.q.assign(3, 1.0);
  cost.slope.assign(3, 0.5);
  cost.y0.assign(3, 0.0);
  EXPECT_THROW(solver.configure(shape, cost), InvalidArgument);
  shape.portals = 2;
  shape.control = 5;  // > prediction
  EXPECT_THROW(solver.configure(shape, cost), InvalidArgument);
}

TEST(CondensedQp, SolveBeforeConfigureThrows) {
  CondensedQpSolver solver;
  EXPECT_THROW(solver.solve({}, {}, {}, {}, {{}}, {}, {}), InvalidArgument);
}

}  // namespace
}  // namespace gridctl::solvers
