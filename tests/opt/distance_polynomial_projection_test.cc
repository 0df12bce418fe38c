// kNewton projects through the distance polynomial
// ||x - f(s)||^2 = ||x||^2 - 2 sum_r (x . a_r) s^r + q(s): its grid and its
// Newton solve are scalar work, and only the candidates it returns are
// scored by direct distances. These tests hold it to the exact quintic
// solver and to Golden Section Search on random curves of several degrees
// and dimensions, for rows inside, on and far outside [0,1]^d.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "curve/bezier.h"
#include "curve/simd_backend.h"
#include "opt/curve_projection.h"

namespace rpc::opt {
namespace {

using curve::BezierCurve;
using linalg::Matrix;
using linalg::Vector;

bool BitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

BezierCurve RandomCurve(int k, int d, Rng* rng) {
  Matrix control(d, k + 1);
  for (int i = 0; i < d; ++i) {
    for (int r = 0; r <= k; ++r) control(i, r) = rng->Uniform(0.0, 1.0);
  }
  return BezierCurve(std::move(control));
}

// Rows inside the unit box, on the curve, on the box's faces, and far
// outside it (|x| from 10 to 1e3 along random directions).
Matrix TestRows(const BezierCurve& curve, Rng* rng) {
  const int d = curve.dimension();
  constexpr int kPerKind = 12;
  Matrix rows(4 * kPerKind, d);
  int row = 0;
  for (int i = 0; i < kPerKind; ++i, ++row) {
    for (int j = 0; j < d; ++j) rows(row, j) = rng->Uniform(0.0, 1.0);
  }
  for (int i = 0; i < kPerKind; ++i, ++row) {
    const Vector on = curve.Evaluate(rng->Uniform(0.0, 1.0));
    for (int j = 0; j < d; ++j) rows(row, j) = on[j];
  }
  for (int i = 0; i < kPerKind; ++i, ++row) {
    for (int j = 0; j < d; ++j) rows(row, j) = rng->Uniform(0.0, 1.0);
    rows(row, i % d) = (i % 2 == 0) ? 0.0 : 1.0;
  }
  for (int i = 0; i < kPerKind; ++i, ++row) {
    const double radius = std::pow(10.0, 1.0 + 2.0 * i / (kPerKind - 1));
    double norm = 0.0;
    std::vector<double> direction(static_cast<size_t>(d));
    for (double& v : direction) {
      v = rng->Uniform(-1.0, 1.0);
      norm += v * v;
    }
    norm = std::sqrt(norm);
    for (int j = 0; j < d; ++j) {
      rows(row, j) = 0.5 + radius * direction[static_cast<size_t>(j)] / norm;
    }
  }
  return rows;
}

// Whether x has one clear global minimiser: on a dense sampling, the
// second-lowest local minimum of the distance lies clearly above the
// lowest, so the minimiser sits in a single basin.
bool UniqueMinimiser(const BezierCurve& curve, const double* x) {
  const int d = curve.dimension();
  curve::BezierEvalWorkspace eval;
  eval.Bind(curve);
  constexpr int kSamples = 4096;
  std::vector<double> dist(kSamples + 1);
  for (int i = 0; i <= kSamples; ++i) {
    dist[static_cast<size_t>(i)] =
        eval.SquaredDistance(x, static_cast<double>(i) / kSamples);
  }
  std::vector<double> minima;
  for (int i = 0; i <= kSamples; ++i) {
    const double v = dist[static_cast<size_t>(i)];
    if ((i == 0 || v <= dist[static_cast<size_t>(i - 1)]) &&
        (i == kSamples || v <= dist[static_cast<size_t>(i + 1)])) {
      minima.push_back(v);
    }
  }
  (void)d;
  if (minima.size() < 2) return true;
  std::sort(minima.begin(), minima.end());
  return minima[1] - minima[0] > 1e-6 * (1.0 + minima[0]);
}

ProjectionOptions WithMethod(ProjectionMethod method) {
  ProjectionOptions options;
  options.method = method;
  return options;
}

TEST(DistancePolynomialProjectionTest, MatchesExactRootsAndGoldenSection) {
  Rng rng(2024);
  int unique_rows = 0;
  for (const int k : {1, 2, 3, 5, 10}) {
    for (const int d : {1, 2, 4, 5, 32}) {
      for (int trial = 0; trial < 3; ++trial) {
        const BezierCurve curve = RandomCurve(k, d, &rng);
        const Matrix rows = TestRows(curve, &rng);
        ProjectionWorkspace newton, roots, golden;
        newton.Bind(curve, WithMethod(ProjectionMethod::kNewton));
        roots.Bind(curve, WithMethod(ProjectionMethod::kQuinticRoots));
        golden.Bind(curve, WithMethod(ProjectionMethod::kGoldenSection));
        for (int i = 0; i < rows.rows(); ++i) {
          const double* x = rows.RowPtr(i);
          const ProjectionResult got = newton.Project(x);
          const ProjectionResult exact = roots.Project(x);
          const ProjectionResult gss = golden.Project(x);
          // The sup tie-break may trade up to its 1e-9 relative slack for a
          // larger s: at a minimum on a domain end, Newton's bisection stops
          // tol inside the end, and that candidate wins the tie. Everywhere
          // else the distances agree to 1e-12.
          EXPECT_LE(got.squared_distance,
                    exact.squared_distance +
                        1e-9 * (1.0 + exact.squared_distance))
              << "k=" << k << " d=" << d << " row " << i;
          EXPECT_LE(got.squared_distance,
                    gss.squared_distance + 1e-9 * (1.0 + gss.squared_distance))
              << "k=" << k << " d=" << d << " row " << i;
          EXPECT_GE(got.s, 0.0);
          EXPECT_LE(got.s, 1.0);
          // The returned distance is a direct one at the returned s (the
          // end values sum in another fixed order, so allow a few ulps).
          const double direct = curve.SquaredDistanceAt(rows.Row(i), got.s);
          EXPECT_NEAR(got.squared_distance, direct, 1e-14 * (1.0 + direct))
              << "k=" << k << " d=" << d << " row " << i;
          if (exact.s > 1e-6 && exact.s < 1.0 - 1e-6 &&
              UniqueMinimiser(curve, x)) {
            ++unique_rows;
            EXPECT_LE(got.squared_distance,
                      exact.squared_distance +
                          1e-12 * (1.0 + exact.squared_distance))
                << "k=" << k << " d=" << d << " row " << i;
            EXPECT_LE(got.squared_distance,
                      gss.squared_distance +
                          1e-12 * (1.0 + gss.squared_distance))
                << "k=" << k << " d=" << d << " row " << i;
            EXPECT_NEAR(got.s, exact.s, 1e-8)
                << "k=" << k << " d=" << d << " row " << i;
          }
        }
      }
    }
  }
  // Most rows have a single clear interior minimiser, so the checks above
  // have teeth.
  EXPECT_GT(unique_rows, 5 * 5 * 3 * 48 / 2);
}

TEST(DistancePolynomialProjectionTest, EvaluationAccountingSumHolds) {
  Rng rng(7);
  for (const int k : {1, 3, 10}) {
    for (const int d : {1, 4, 32}) {
      const BezierCurve curve = RandomCurve(k, d, &rng);
      const Matrix rows = TestRows(curve, &rng);
      for (ProjectionMethod method :
           {ProjectionMethod::kNewton, ProjectionMethod::kQuinticRoots}) {
        ProjectionWorkspace workspace;
        const ProjectionOptions options = WithMethod(method);
        workspace.Bind(curve, options);
        std::int64_t total = 0;
        std::int64_t candidates = 0;
        for (int i = 0; i < rows.rows(); ++i) {
          total += workspace.Project(rows.RowPtr(i)).evaluations;
        }
        EXPECT_EQ(total, workspace.objective_evaluations() +
                             workspace.stationarity_evaluations())
            << "k=" << k << " d=" << d;
        if (method == ProjectionMethod::kNewton) {
          // g+1 grid values plus at least one refined candidate per row.
          candidates = workspace.objective_evaluations() -
                       static_cast<std::int64_t>(options.grid_points + 1) *
                           rows.rows();
          EXPECT_GE(candidates, rows.rows());
        }

        // Warm-start refinement shares the counters' meaning.
        workspace.ResetEvaluationCounts();
        total = 0;
        for (int i = 0; i < rows.rows(); ++i) {
          bool hit_edge = false;
          total += workspace.ProjectLocal(rows.RowPtr(i), 0.25, 0.75,
                                          &hit_edge)
                       .evaluations;
          total += workspace.ProjectSeeded(rows.RowPtr(i), 0.5, 0.0, 1.0)
                       .evaluations;
        }
        EXPECT_EQ(total, workspace.objective_evaluations() +
                             workspace.stationarity_evaluations())
            << "k=" << k << " d=" << d;
      }
    }
  }
}

TEST(DistancePolynomialProjectionTest, BlockIsBitIdenticalOnEveryBackend) {
  const curve::SimdBackendKind original = curve::ActiveSimdKind();
  Rng rng(99);
  for (const int k : {2, 3, 5}) {
    for (const int d : {1, 4, 5, 32}) {
      const BezierCurve curve = RandomCurve(k, d, &rng);
      Matrix rows = TestRows(curve, &rng);
      std::vector<double> reference_s, reference_sq;
      for (const curve::SimdOps* ops : curve::AvailableSimdBackends()) {
        ASSERT_TRUE(curve::SetSimdBackend(ops->kind));
        ProjectionWorkspace workspace;
        workspace.Bind(curve, ProjectionOptions());
        const int n = rows.rows();
        std::vector<double> s(static_cast<size_t>(n));
        std::vector<double> sq(static_cast<size_t>(n));
        workspace.ProjectBlock(rows.RowPtr(0), n, rows.cols(), s.data(),
                               sq.data());
        for (int i = 0; i < n; ++i) {
          const ProjectionResult single = workspace.Project(rows.RowPtr(i));
          EXPECT_TRUE(BitEqual(single.s, s[static_cast<size_t>(i)]))
              << ops->name << " k=" << k << " d=" << d << " row " << i;
          EXPECT_TRUE(
              BitEqual(single.squared_distance, sq[static_cast<size_t>(i)]))
              << ops->name << " k=" << k << " d=" << d << " row " << i;
        }
        if (reference_s.empty()) {
          reference_s = s;
          reference_sq = sq;
          continue;
        }
        for (int i = 0; i < n; ++i) {
          EXPECT_TRUE(BitEqual(s[static_cast<size_t>(i)],
                               reference_s[static_cast<size_t>(i)]))
              << ops->name << " vs scalar, k=" << k << " d=" << d << " row "
              << i;
          EXPECT_TRUE(BitEqual(sq[static_cast<size_t>(i)],
                               reference_sq[static_cast<size_t>(i)]))
              << ops->name << " vs scalar, k=" << k << " d=" << d << " row "
              << i;
        }
      }
    }
  }
  curve::SetSimdBackend(original);
}

TEST(DistancePolynomialProjectionTest, SymmetricArchKeepsTheSupTieBreak) {
  // An arch symmetric about x = 0.5: f(1 - s) mirrors f(s).
  const BezierCurve arch(Matrix{{0.0, 0.2, 0.8, 1.0}, {0.0, 1.0, 1.0, 0.0}});
  for (ProjectionMethod method :
       {ProjectionMethod::kNewton, ProjectionMethod::kQuinticRoots,
        ProjectionMethod::kGoldenSection}) {
    const ProjectionOptions options = WithMethod(method);
    // Below the arch: both end points are exactly sqrt(1.25) away.
    const ProjectionResult ends = ProjectOntoCurve(arch, Vector{0.5, -1.0},
                                                   options);
    EXPECT_EQ(ends.s, 1.0);
    EXPECT_EQ(ends.squared_distance, 1.25);
    // Inside the arch on its axis: two mirrored interior minima tie, and
    // the larger s wins.
    const ProjectionResult legs = ProjectOntoCurve(arch, Vector{0.5, 0.3},
                                                   options);
    EXPECT_GT(legs.s, 0.5);
    EXPECT_LT(legs.s, 1.0);
    // Far above the apex the minimiser is unique.
    const ProjectionResult apex = ProjectOntoCurve(arch, Vector{0.5, 5.0},
                                                   options);
    EXPECT_NEAR(apex.s, 0.5, 1e-6);
  }
  // The mirrored legs tie under every method alike.
  const ProjectionResult newton = ProjectOntoCurve(
      arch, Vector{0.5, 0.3}, WithMethod(ProjectionMethod::kNewton));
  const ProjectionResult exact = ProjectOntoCurve(
      arch, Vector{0.5, 0.3}, WithMethod(ProjectionMethod::kQuinticRoots));
  EXPECT_NEAR(newton.s, exact.s, 1e-8);
}

TEST(DistancePolynomialProjectionTest, PlateausKeepTheSupTieBreak) {
  // A constant curve: the distance is the same for every s, so every grid
  // point is a local minimum and the sup tie-break must pick s = 1.
  const Matrix constant{{0.3, 0.3, 0.3, 0.3}, {0.7, 0.7, 0.7, 0.7}};
  // A near-constant one: the control points differ by 1e-12, far below
  // the 1e-9 relative tie slack, and far above the scalar form's rounding
  // only for rows near the curve.
  Matrix near = constant;
  near(0, 1) += 1e-12;
  near(1, 2) -= 1e-12;
  for (const Matrix& control : {constant, near}) {
    const BezierCurve curve(control);
    for (const Vector& x :
         {Vector{0.3, 0.7}, Vector{0.0, 0.0}, Vector{1e3, -1e3}}) {
      const ProjectionResult newton =
          ProjectOntoCurve(curve, x, WithMethod(ProjectionMethod::kNewton));
      const ProjectionResult gss = ProjectOntoCurve(
          curve, x, WithMethod(ProjectionMethod::kGoldenSection));
      EXPECT_EQ(newton.s, 1.0);
      EXPECT_EQ(gss.s, 1.0);
      EXPECT_TRUE(BitEqual(newton.squared_distance, gss.squared_distance));
    }
  }
}

}  // namespace
}  // namespace rpc::opt
