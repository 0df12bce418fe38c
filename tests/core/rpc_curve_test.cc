#include "core/rpc_curve.h"

#include <cmath>

#include <gtest/gtest.h>

namespace rpc::core {
namespace {

using linalg::Matrix;
using linalg::Vector;
using order::Orientation;

TEST(RpcCurveTest, DiagonalCurveIsMonotoneAndEndsAtCorners) {
  const auto alpha = Orientation::FromSigns({1, -1});
  ASSERT_TRUE(alpha.ok());
  const RpcCurve curve = RpcCurve::Diagonal(*alpha);
  EXPECT_TRUE(ApproxEqual(curve.Evaluate(0.0), alpha->WorstCorner(), 1e-12));
  EXPECT_TRUE(ApproxEqual(curve.Evaluate(1.0), alpha->BestCorner(), 1e-12));
  EXPECT_TRUE(curve.CheckMonotonicity().strictly_monotone);
}

TEST(RpcCurveTest, FromControlPointsValidatesCorners) {
  const Orientation alpha = Orientation::AllBenefit(2);
  Matrix good{{0.0, 0.3, 0.7, 1.0}, {0.0, 0.2, 0.8, 1.0}};
  EXPECT_TRUE(RpcCurve::FromControlPoints(good, alpha).ok());
  Matrix bad_corner{{0.1, 0.3, 0.7, 1.0}, {0.0, 0.2, 0.8, 1.0}};
  EXPECT_FALSE(RpcCurve::FromControlPoints(bad_corner, alpha).ok());
}

TEST(RpcCurveTest, FromControlPointsRequiresInteriorControls) {
  const Orientation alpha = Orientation::AllBenefit(2);
  Matrix on_boundary{{0.0, 0.0, 0.7, 1.0}, {0.0, 0.2, 0.8, 1.0}};
  EXPECT_FALSE(RpcCurve::FromControlPoints(on_boundary, alpha).ok());
  Matrix outside{{0.0, -0.1, 0.7, 1.0}, {0.0, 0.2, 0.8, 1.0}};
  EXPECT_FALSE(RpcCurve::FromControlPoints(outside, alpha).ok());
}

TEST(RpcCurveTest, FromControlPointsChecksShapes) {
  const Orientation alpha = Orientation::AllBenefit(2);
  EXPECT_FALSE(RpcCurve::FromControlPoints(Matrix(2, 1), alpha).ok());
  EXPECT_FALSE(
      RpcCurve::FromControlPoints(Matrix(3, 4, 0.5), alpha).ok());
}

TEST(RpcCurveTest, UncheckedAllowsFreeEndpointsInsideCube) {
  const Orientation alpha = Orientation::AllBenefit(2);
  Matrix free_ends{{0.1, 0.3, 0.7, 0.9}, {0.2, 0.2, 0.8, 0.95}};
  EXPECT_TRUE(RpcCurve::FromControlPointsUnchecked(free_ends, alpha).ok());
  Matrix outside{{0.1, 0.3, 0.7, 1.2}, {0.2, 0.2, 0.8, 0.95}};
  EXPECT_FALSE(
      RpcCurve::FromControlPointsUnchecked(outside, alpha).ok());
}

// NaN compares false against both bounds, so a range test written as
// "v < 0 || v > 1" lets it through; the unchecked path is what
// PortableRpcModel::BuildCurve falls back to, so it must refuse NaN itself.
TEST(RpcCurveTest, UncheckedRejectsNonFiniteControlPoints) {
  const Orientation alpha = Orientation::AllBenefit(2);
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Matrix control{{0.0, 0.3, 0.7, 1.0}, {0.0, 0.2, 0.8, 1.0}};
    control(1, 2) = bad;
    EXPECT_FALSE(RpcCurve::FromControlPointsUnchecked(control, alpha).ok())
        << bad;
    EXPECT_FALSE(RpcCurve::FromControlPoints(control, alpha).ok()) << bad;
  }
}

TEST(RpcCurveTest, CostOrientedCurveDecreasesInCostCoordinates) {
  const auto alpha = Orientation::FromSigns({1, 1, -1, -1});
  ASSERT_TRUE(alpha.ok());
  const RpcCurve curve = RpcCurve::Diagonal(*alpha);
  const Vector start = curve.Evaluate(0.0);
  const Vector end = curve.Evaluate(1.0);
  EXPECT_LT(start[0], end[0]);  // benefit rises
  EXPECT_GT(start[2], end[2]);  // cost falls
}

TEST(RpcCurveTest, SampleRowsFollowS) {
  const Orientation alpha = Orientation::AllBenefit(2);
  const RpcCurve curve = RpcCurve::Diagonal(alpha);
  const Matrix samples = curve.Sample(4);
  ASSERT_EQ(samples.rows(), 5);
  EXPECT_TRUE(ApproxEqual(samples.Row(2), curve.Evaluate(0.5), 1e-12));
}

TEST(RpcCurveTest, DegreeFiveCurveAccepted) {
  const Orientation alpha = Orientation::AllBenefit(1);
  Matrix control(1, 6);
  control(0, 0) = 0.0;
  control(0, 5) = 1.0;
  for (int r = 1; r <= 4; ++r) control(0, r) = 0.2 * r;
  const auto curve = RpcCurve::FromControlPoints(control, alpha);
  ASSERT_TRUE(curve.ok());
  EXPECT_EQ(curve->degree(), 5);
}

}  // namespace
}  // namespace rpc::core
