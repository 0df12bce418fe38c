#include "core/rpc_curve.h"

#include <cmath>

#include "common/stringutil.h"

namespace rpc::core {

using linalg::Matrix;
using linalg::Vector;

Result<RpcCurve> RpcCurve::FromControlPoints(const Matrix& control_points,
                                             const order::Orientation& alpha,
                                             double corner_tol) {
  if (control_points.cols() < 2) {
    return Status::InvalidArgument(
        "RpcCurve: need at least 2 control points (end points)");
  }
  if (control_points.rows() != alpha.dimension()) {
    return Status::InvalidArgument("RpcCurve: alpha dimension mismatch");
  }
  const int last = control_points.cols() - 1;
  const Vector worst = alpha.WorstCorner();
  const Vector best = alpha.BestCorner();
  for (int j = 0; j < control_points.rows(); ++j) {
    if (std::fabs(control_points(j, 0) - worst[j]) > corner_tol ||
        std::fabs(control_points(j, last) - best[j]) > corner_tol) {
      return Status::InvalidArgument(StrFormat(
          "RpcCurve: end points off the alpha corners at attribute %d", j));
    }
    for (int r = 1; r < last; ++r) {
      const double v = control_points(j, r);
      if (!(v > 0.0 && v < 1.0)) {
        return Status::InvalidArgument(StrFormat(
            "RpcCurve: control point p%d[%d] = %g not in (0,1)", r, j, v));
      }
    }
  }
  return RpcCurve(curve::BezierCurve(control_points), alpha);
}

Result<RpcCurve> RpcCurve::FromControlPointsUnchecked(
    const Matrix& control_points, const order::Orientation& alpha) {
  if (control_points.cols() < 2) {
    return Status::InvalidArgument(
        "RpcCurve: need at least 2 control points (end points)");
  }
  if (control_points.rows() != alpha.dimension()) {
    return Status::InvalidArgument("RpcCurve: alpha dimension mismatch");
  }
  for (int j = 0; j < control_points.rows(); ++j) {
    for (int r = 0; r < control_points.cols(); ++r) {
      const double v = control_points(j, r);
      // Written so that NaN fails too: every comparison with NaN is false.
      if (!(v >= 0.0 && v <= 1.0)) {
        return Status::InvalidArgument(StrFormat(
            "RpcCurve: control point p%d[%d] = %g outside [0,1]", r, j, v));
      }
    }
  }
  return RpcCurve(curve::BezierCurve(control_points), alpha);
}

RpcCurve RpcCurve::Diagonal(const order::Orientation& alpha) {
  const Vector worst = alpha.WorstCorner();
  const Vector best = alpha.BestCorner();
  Matrix control(alpha.dimension(), 4);
  for (int j = 0; j < alpha.dimension(); ++j) {
    control(j, 0) = worst[j];
    control(j, 1) = worst[j] + (best[j] - worst[j]) / 3.0;
    control(j, 2) = worst[j] + 2.0 * (best[j] - worst[j]) / 3.0;
    control(j, 3) = best[j];
  }
  return RpcCurve(curve::BezierCurve(control), alpha);
}

order::CurveMonotonicityReport RpcCurve::CheckMonotonicity(int grid) const {
  return order::CheckCurveMonotonicity(curve_, alpha_, grid);
}

}  // namespace rpc::core
