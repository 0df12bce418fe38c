#include "opt/curve_projection.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

#include "curve/simd_backend.h"
#include "opt/batch_projection.h"
#include "opt/golden_section.h"
#include "opt/polynomial.h"

namespace rpc::opt {

using curve::BezierCurve;
using linalg::Matrix;
using linalg::Vector;

namespace {

// Relative slack when comparing candidate minima; within this the larger s
// wins (the sup tie-break of Eq. A-2).
constexpr double kTieRelTol = 1e-9;

// Interior grid cells ProjectLocal places across a warm-start bracket before
// refining the best one: two cells probe the bracket ends and its centre
// (the previous s* for an unclipped bracket) — enough to detect the
// minimiser escaping while keeping the warm path a handful of evaluations.
constexpr int kLocalGridCells = 2;

// Ulps of the largest magnitude in a scalar grid value xx - 2 p(s) + q(s)
// that the grid's local-minimum test forgives (see PrepareRow).
constexpr double kGridSlackUlps = 4.0;

// sum_i term(i) over [0, d) in a fixed order: four dim-strided lanes
// combined as ((l0 + l1) + (l2 + l3)) + tail. Plain C++ rather than a
// SimdOps kernel, so the value is the same whatever backend is active.
template <typename Term>
double FixedOrderSum(int d, Term term) {
  double lane0 = 0.0;
  double lane1 = 0.0;
  double lane2 = 0.0;
  double lane3 = 0.0;
  int i = 0;
  for (; i + 4 <= d; i += 4) {
    lane0 += term(i);
    lane1 += term(i + 1);
    lane2 += term(i + 2);
    lane3 += term(i + 3);
  }
  double tail = 0.0;
  for (; i < d; ++i) tail += term(i);
  return ((lane0 + lane1) + (lane2 + lane3)) + tail;
}

double Dot(const double* u, const double* v, int d) {
  return FixedOrderSum(d, [u, v](int i) { return u[i] * v[i]; });
}

double SquaredDistanceTo(const double* x, const double* f, int d) {
  return FixedOrderSum(d, [x, f](int i) {
    const double e = x[i] - f[i];
    return e * e;
  });
}

}  // namespace

// Function object handed to Golden Section Search; a named struct (instead
// of a capturing lambda wrapped in std::function) keeps the refinement loop
// allocation-free.
struct ProjectionObjective {
  ProjectionWorkspace* workspace;
  const double* x;
  double operator()(double s) const { return workspace->ObjectiveAt(x, s); }
};

void ProjectionWorkspace::BindShared(
    std::shared_ptr<const BezierCurve> curve,
    const ProjectionOptions& options) {
  assert(curve != nullptr);
  // Bind first: it must not observe the new shared_curve_ (it resets state
  // from scratch), and the old reference must survive until the rebind to
  // the new curve is complete in case both point into the same shard.
  std::shared_ptr<const BezierCurve> keep_alive = std::move(shared_curve_);
  Bind(*curve, options);
  shared_curve_ = std::move(curve);
}

void ProjectionWorkspace::Bind(const BezierCurve& curve,
                               const ProjectionOptions& options) {
  shared_curve_.reset();
  curve_ = &curve;
  options_ = options;
  eval_.Bind(curve);
  const int d = curve.dimension();
  const int g = std::max(options.grid_points, 2);
  grid_dist_.resize(static_cast<size_t>(g) + 1);
  grid_minima_.resize(static_cast<size_t>(g) + 1);
  // The grid points s_i = i/g, f(s_i), and q(s_i) = ||f(s_i)||^2.
  // eval_.Evaluate runs the exact per-coordinate operation sequence the
  // per-point SquaredDistance paths run inline (including the exact end
  // control points at s = 0 / s = 1), so the tile kernels' distances from
  // these shared values are bit-identical to the per-point path, and q is
  // taken at the very curve points the direct distances measure against.
  grid_s_.resize(static_cast<size_t>(g) + 1);
  grid_f_.resize((static_cast<size_t>(g) + 1) * static_cast<size_t>(d));
  grid_q_.resize(static_cast<size_t>(g) + 1);
  grid_q_max_ = 0.0;
  for (int i = 0; i <= g; ++i) {
    grid_s_[static_cast<size_t>(i)] = static_cast<double>(i) / g;
    double* f = grid_f_.data() + static_cast<size_t>(i) * d;
    eval_.Evaluate(grid_s_[static_cast<size_t>(i)], f);
    grid_q_[static_cast<size_t>(i)] = Dot(f, f, d);
    grid_q_max_ = std::max(grid_q_max_, grid_q_[static_cast<size_t>(i)]);
  }
  // q(s) = sum_m Q_m s^m with Q_m = sum_{i+j=m} a_i . a_j, so the curve
  // term of the stationarity polynomial is -q'(s)/2 = -sum_m (m/2) Q_m
  // s^(m-1), stored ascending.
  const int k = curve.degree();
  const double* a = eval_.power_coefficients();
  q_half_slope_.assign(static_cast<size_t>(2 * k), 0.0);
  for (int i = 0; i <= k; ++i) {
    for (int j = 0; j <= k; ++j) {
      if (i + j == 0) continue;
      const double dot = Dot(a + static_cast<size_t>(i) * d,
                             a + static_cast<size_t>(j) * d, d);
      q_half_slope_[static_cast<size_t>(i + j - 1)] -= 0.5 * (i + j) * dot;
    }
  }
  row_c_.resize(static_cast<size_t>(k) + 1);
  row_h_.resize(static_cast<size_t>(2 * k));
  if (UsesTileGrid(options.method)) {
    // Tile-path buffers; sized here so ProjectBlock allocates nothing.
    block_.Bind(d);
    grid_dist_block_.resize((static_cast<size_t>(g) + 1) *
                            RowBlock::kLaneStride);
    golden_xt_.resize(static_cast<size_t>(d) * RowBlock::kMaxRows);
    golden_s_.resize(RowBlock::kMaxRows);
    golden_dist_.resize(RowBlock::kMaxRows);
    block_results_.resize(RowBlock::kMaxRows);
    // One bracket per row is the common case; a capacity of two per row
    // keeps the task list allocation-free for every non-pathological block.
    golden_tasks_.reserve(static_cast<size_t>(RowBlock::kMaxRows) * 2);
  }
  ResetEvaluationCounts();
}

void ProjectionWorkspace::PrepareRow(const double* x) {
  const int k = curve_->degree();
  const int d = curve_->dimension();
  const double* a = eval_.power_coefficients();
  row_xx_ = Dot(x, x, d);
  double magnitude = 0.0;
  for (int r = 0; r <= k; ++r) {
    const double c = Dot(x, a + static_cast<size_t>(r) * d, d);
    row_c_[static_cast<size_t>(r)] = c;
    magnitude += std::fabs(c);
  }
  // h(s) = f'(s) . (x - f(s)) = sum_r r c_r s^(r-1) - q'(s)/2.
  for (int t = 0; t < 2 * k; ++t) {
    row_h_[static_cast<size_t>(t)] =
        q_half_slope_[static_cast<size_t>(t)] +
        (t < k ? (t + 1) * row_c_[static_cast<size_t>(t) + 1] : 0.0);
  }
  // Rounding allowance of the scalar grid values xx - 2 p(s) + q(s): a few
  // ulps of the largest magnitudes the sum passes through.
  row_slack_ = kGridSlackUlps * std::numeric_limits<double>::epsilon() *
               (row_xx_ + grid_q_max_ + 2.0 * magnitude);
}

void ProjectionWorkspace::ResetEvaluationCounts() {
  objective_evals_ = 0;
  stationarity_evals_ = 0;
  root_workspace_.ResetEvaluationCount();
}

double ProjectionWorkspace::ObjectiveAt(const double* x, double s) {
  ++objective_evals_;
  return eval_.SquaredDistance(x, s);
}

double ProjectionWorkspace::StationarityWithSlope(double s, double* slope) {
  // Horner on the prepared row's h and, alongside, on its derivative.
  ++stationarity_evals_;
  const int n = static_cast<int>(row_h_.size());
  if (n == 0) {
    *slope = 0.0;
    return 0.0;
  }
  double value = row_h_[static_cast<size_t>(n - 1)];
  double dvalue = 0.0;
  for (int j = n - 2; j >= 0; --j) {
    dvalue = dvalue * s + value;
    value = value * s + row_h_[static_cast<size_t>(j)];
  }
  *slope = dvalue;
  return value;
}

void ProjectionWorkspace::ConsiderCandidate(const double* x, double s,
                                            ProjectionResult* best) {
  ConsiderPrecomputed(s, ObjectiveAt(x, s), best);
  ++best->evaluations;
}

void ProjectionWorkspace::ConsiderPrecomputed(double s, double dist,
                                              ProjectionResult* best) {
  const double slack = kTieRelTol * (1.0 + best->squared_distance);
  if (dist < best->squared_distance - slack ||
      (dist <= best->squared_distance + slack && s > best->s)) {
    best->squared_distance = dist;
    best->s = s;
  }
}

ProjectionResult ProjectionWorkspace::ProjectViaGrid(const double* x,
                                                     bool refine) {
  const int g = std::max(options_.grid_points, 2);
  for (int i = 0; i <= g; ++i) {
    grid_dist_[static_cast<size_t>(i)] =
        ObjectiveAt(x, static_cast<double>(i) / g);
  }
  return FinishGridFromDists(x, grid_dist_.data(), /*stride=*/1, refine);
}

ProjectionResult ProjectionWorkspace::FinishGridFromDists(const double* x,
                                                          const double* gd,
                                                          int stride,
                                                          bool refine) {
  const int g = std::max(options_.grid_points, 2);
  ProjectionResult best;
  best.squared_distance = gd[0];
  best.s = 0.0;
  best.evaluations = g + 1;
  for (int i = 1; i <= g; ++i) {
    ConsiderPrecomputed(static_cast<double>(i) / g,
                        gd[static_cast<size_t>(i) * stride], &best);
  }
  if (!refine) return best;

  // Refine every grid-local minimum bracket with Golden Section Search and
  // keep the global best. Brackets at the boundary are included so that
  // projections landing on s = 0 or s = 1 are found.
  const ProjectionObjective objective{this, x};
  for (int i = 0; i <= g; ++i) {
    const bool left_ok =
        i == 0 || gd[static_cast<size_t>(i) * stride] <=
                      gd[static_cast<size_t>(i - 1) * stride];
    const bool right_ok =
        i == g || gd[static_cast<size_t>(i) * stride] <=
                      gd[static_cast<size_t>(i + 1) * stride];
    if (!left_ok || !right_ok) continue;
    const double lo = std::max(0.0, static_cast<double>(i - 1) / g);
    const double hi = std::min(1.0, static_cast<double>(i + 1) / g);
    const ScalarMinResult gss =
        GoldenSectionMinimizeWith(objective, lo, hi, options_.tol);
    best.evaluations += gss.evaluations;
    // gss.fx is the objective at gss.x, already evaluated (and counted)
    // inside the search — reuse it rather than paying a second evaluation.
    ConsiderPrecomputed(gss.x, gss.fx, &best);
  }
  return best;
}

// The grid scan runs on the distance polynomial, then safeguarded Newton
// refines every grid-local minimum on the row's stationarity polynomial h;
// each refined candidate is scored by its direct d-dimensional distance.
ProjectionResult ProjectionWorkspace::ProjectViaNewton(const double* x) {
  const int g = std::max(options_.grid_points, 2);
  const int k = curve_->degree();
  PrepareRow(x);
  // The end values are the direct distances to p_0 and p_k, the interior
  // ones xx - 2 sum_r c_r s^r + q(s), with the Horner passes run level by
  // level across the grid (one loop over independent lanes per level). All
  // g+1 count as objective evaluations, as the direct grid's did.
  double* __restrict gd = grid_dist_.data();
  const double* __restrict gs = grid_s_.data();
  const double* __restrict gq = grid_q_.data();
  const int d = curve_->dimension();
  gd[0] = SquaredDistanceTo(x, grid_f_.data(), d);
  gd[g] = SquaredDistanceTo(x, grid_f_.data() + static_cast<size_t>(g) * d, d);
  const double top = row_c_[static_cast<size_t>(k)];
  for (int i = 1; i < g; ++i) gd[i] = top;
  for (int r = k - 1; r >= 0; --r) {
    const double c = row_c_[static_cast<size_t>(r)];
    for (int i = 1; i < g; ++i) gd[i] = gd[i] * gs[i] + c;
  }
  const double xx = row_xx_;
  for (int i = 1; i < g; ++i) gd[i] = (xx - 2.0 * gd[i]) + gq[i];
  objective_evals_ += g + 1;

  ProjectionResult best;
  best.s = 0.0;
  best.squared_distance = gd[0];
  best.evaluations = g + 1;
  ConsiderPrecomputed(1.0, gd[g], &best);
  // A point is a local minimum unless a neighbour is lower by more than the
  // scalar form's rounding, so every bracket the exact values would give
  // (plateaus included) is refined. The minima are collected first, without
  // a data-dependent branch per grid point, then refined in ascending order.
  const double slack = row_slack_;
  int* __restrict minima = grid_minima_.data();
  int num_minima = 0;
  minima[num_minima] = 0;
  num_minima += gd[0] <= gd[1] + slack;
  for (int i = 1; i < g; ++i) {
    minima[num_minima] = i;
    num_minima += (gd[i] <= gd[i - 1] + slack) & (gd[i] <= gd[i + 1] + slack);
  }
  minima[num_minima] = g;
  num_minima += gd[g] <= gd[g - 1] + slack;
  for (int m = 0; m < num_minima; ++m) {
    const int i = minima[m];
    const double s = NewtonRefine(gs[std::max(i - 1, 0)],
                                  gs[std::min(i + 1, g)], &best);
    ConsiderCandidate(x, std::clamp(s, 0.0, 1.0), &best);
  }
  return best;
}

double ProjectionWorkspace::NewtonRefine(double lo, double hi,
                                         ProjectionResult* best) {
  // h is decreasing through a minimum: h(lo) >= 0 >= h(hi) is the usual
  // situation; when signs do not bracket (boundary minima) Newton from
  // the midpoint with clamping still behaves.
  double s = 0.5 * (lo + hi);
  for (int iter = 0; iter < 50; ++iter) {
    double slope = 0.0;
    const double value = StationarityWithSlope(s, &slope);
    ++best->evaluations;
    if (std::fabs(value) < options_.tol) break;
    // Shrink the safeguard bracket using the sign of h.
    if (value > 0.0) {
      lo = s;
    } else {
      hi = s;
    }
    double next = (slope < 0.0) ? s - value / slope : 0.5 * (lo + hi);
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::fabs(next - s) < options_.tol) {
      s = next;
      break;
    }
    s = next;
  }
  return s;
}

ProjectionResult ProjectionWorkspace::ProjectLocal(const double* x, double lo,
                                                   double hi,
                                                   bool* hit_edge) {
  assert(bound());
  *hit_edge = false;
  // Grid-only has no refinement stage to localise; a warm start degenerates
  // to the full grid argmin.
  if (options_.method == ProjectionMethod::kGridOnly) return Project(x);
  lo = std::clamp(lo, 0.0, 1.0);
  hi = std::clamp(hi, 0.0, 1.0);
  assert(hi > lo);

  // Interior grid over the bracket, argmin with the sup tie-break.
  const double width = hi - lo;
  ProjectionResult best;
  best.s = lo;
  best.squared_distance = ObjectiveAt(x, lo);
  best.evaluations = 1;
  int best_idx = 0;
  for (int j = 1; j <= kLocalGridCells; ++j) {
    const double s =
        (j == kLocalGridCells) ? hi : lo + width * j / kLocalGridCells;
    const double previous = best.s;
    ConsiderCandidate(x, s, &best);
    if (best.s != previous) best_idx = j;  // s ascends: a win moves best.s
  }
  // An argmin on a bracket edge that is not a domain boundary means the
  // true minimiser may sit outside the bracket: report and let the caller
  // run the global search instead of refining a likely-wrong cell.
  if ((best_idx == 0 && lo > 0.0) ||
      (best_idx == kLocalGridCells && hi < 1.0)) {
    *hit_edge = true;
    return best;
  }
  const double cell_lo =
      (best_idx == 0) ? lo : lo + width * (best_idx - 1) / kLocalGridCells;
  const double cell_hi = (best_idx == kLocalGridCells)
                             ? hi
                             : lo + width * (best_idx + 1) / kLocalGridCells;
  PrepareRow(x);
  const double s = NewtonRefine(cell_lo, cell_hi, &best);
  ConsiderCandidate(x, std::clamp(s, 0.0, 1.0), &best);
  return best;
}

ProjectionResult ProjectionWorkspace::ProjectSeeded(const double* x,
                                                    double seed, double lo,
                                                    double hi) {
  assert(bound());
  // Grid-only has no refinement stage; degenerate to the full grid argmin,
  // exactly like ProjectLocal.
  if (options_.method == ProjectionMethod::kGridOnly) return Project(x);
  lo = std::clamp(lo, 0.0, 1.0);
  hi = std::clamp(hi, 0.0, 1.0);
  assert(hi > lo);
  seed = std::clamp(seed, lo, hi);

  ProjectionResult best;
  best.s = seed;
  best.squared_distance = ObjectiveAt(x, seed);
  best.evaluations = 1;
  PrepareRow(x);
  const double s = NewtonRefine(lo, hi, &best);
  ConsiderCandidate(x, std::clamp(s, 0.0, 1.0), &best);
  return best;
}

ProjectionResult ProjectionWorkspace::ProjectViaPolynomialRoots(
    const double* x) {
  // The row's stationarity polynomial h is exactly Eq. 20's degree-2k-1
  // condition f'(s) . (x - f(s)) = 0.
  PrepareRow(x);
  ProjectionResult best;
  best.s = 0.0;
  best.squared_distance = ObjectiveAt(x, 0.0);
  best.evaluations = 1;
  ConsiderCandidate(x, 1.0, &best);
  const std::int64_t sturm_before = root_workspace_.polynomial_evaluations();
  const int num_roots = root_workspace_.RealRootsInInterval(
      row_h_.data(), static_cast<int>(row_h_.size()), 0.0, 1.0, options_.tol,
      roots_, PolynomialRootWorkspace::kMaxDegree);
  if (num_roots >= 0) {
    // The chain evaluations are evaluations of the stationarity polynomial:
    // account for them like kNewton's stationarity probes so the methods'
    // ProjectionResult::evaluations are comparable.
    const std::int64_t sturm =
        root_workspace_.polynomial_evaluations() - sturm_before;
    stationarity_evals_ += sturm;
    best.evaluations += static_cast<int>(sturm);
    for (int i = 0; i < num_roots; ++i) {
      ConsiderCandidate(x, roots_[i], &best);
    }
    return best;
  }
  // Degree beyond the fixed workspace capacity (k > 10): allocating
  // fallback, identical roots.
  const Polynomial stationarity{std::vector<double>(row_h_)};
  for (double root :
       stationarity.RealRootsInInterval(0.0, 1.0, options_.tol)) {
    ConsiderCandidate(x, root, &best);
  }
  return best;
}

ProjectionResult ProjectionWorkspace::Project(const double* x) {
  assert(bound());
  switch (options_.method) {
    case ProjectionMethod::kGoldenSection:
      return ProjectViaGrid(x, /*refine=*/true);
    case ProjectionMethod::kGridOnly:
      return ProjectViaGrid(x, /*refine=*/false);
    case ProjectionMethod::kQuinticRoots:
      return ProjectViaPolynomialRoots(x);
    case ProjectionMethod::kNewton:
      return ProjectViaNewton(x);
  }
  return ProjectViaGrid(x, /*refine=*/true);
}

void ProjectionWorkspace::ProjectPackedBlock(const RowBlock& block,
                                             const double* rows,
                                             int row_stride, double* s_out,
                                             double* squared_out) {
  assert(bound());
  const int count = block.rows();
  if (count == 0) return;
  assert(block.dim() == curve_->dimension());
  assert(UsesTileGrid(options_.method));
  const int g = std::max(options_.grid_points, 2);
  const int d = curve_->dimension();

  // Grid stage, one kernel sweep over the whole block per grid point: the
  // interior points use the fused reference ordering (the per-point hot
  // path's), the endpoints the sequential ordering (the per-point endpoint
  // branch's) — see SimdOps. Each row's g+1 distances land in a column of
  // grid_dist_block_ and are accounted exactly like g+1 ObjectiveAt calls.
  const curve::SimdOps& simd = curve::ActiveSimd();
  for (int i = 0; i <= g; ++i) {
    const double* f = grid_f_.data() + static_cast<size_t>(i) * d;
    double* dist =
        grid_dist_block_.data() + static_cast<size_t>(i) * RowBlock::kLaneStride;
    if (i == 0 || i == g) {
      simd.tile_squared_distances_seq(block.tile(), RowBlock::kLaneStride, d,
                                      count, f, dist);
    } else {
      simd.tile_squared_distances_fused(block.tile(), RowBlock::kLaneStride, d,
                                        count, f, dist);
    }
  }
  objective_evals_ += static_cast<std::int64_t>(g + 1) * count;

  // Blocks too small to fill vector lanes pay the lock-step driver's
  // per-round bookkeeping for nothing — single-row serving queries land
  // here — as does the scalar backend at any size.
  constexpr int kGoldenLockStepMinRows = 16;
  if (options_.method == ProjectionMethod::kGoldenSection &&
      simd.kind != curve::SimdBackendKind::kScalar &&
      count >= kGoldenLockStepMinRows) {
    // Grid scan per row first (refinement deferred), then every bracket of
    // every row refines in lock step through the batched per-lane-s kernel
    // — the refinement evaluations vectorise across tasks instead of
    // running one scalar search per row. The per-row driver (below) and
    // this one produce bit-identical results and counters, so the routing
    // is purely a speed choice.
    for (int i = 0; i < count; ++i) {
      const double* x = rows + static_cast<size_t>(i) * row_stride;
      block_results_[static_cast<size_t>(i)] = FinishGridFromDists(
          x, grid_dist_block_.data() + i, RowBlock::kLaneStride,
          /*refine=*/false);
    }
    RefineGoldenBlock(rows, row_stride, count, block_results_.data());
    for (int i = 0; i < count; ++i) {
      s_out[i] = block_results_[static_cast<size_t>(i)].s;
      if (squared_out != nullptr) {
        squared_out[i] = block_results_[static_cast<size_t>(i)].squared_distance;
      }
    }
    return;
  }

  // The refinement-free grid scan and the scalar backend's Golden Section
  // stay per row, fed by each row's column of kernel-computed grid
  // distances.
  const bool refine = options_.method == ProjectionMethod::kGoldenSection;
  for (int i = 0; i < count; ++i) {
    const double* x = rows + static_cast<size_t>(i) * row_stride;
    const ProjectionResult result =
        FinishGridFromDists(x, grid_dist_block_.data() + i,
                            RowBlock::kLaneStride, refine);
    s_out[i] = result.s;
    if (squared_out != nullptr) squared_out[i] = result.squared_distance;
  }
}

void ProjectionWorkspace::RefineGoldenBlock(const double* rows, int row_stride,
                                            int count,
                                            ProjectionResult* results) {
  const int g = std::max(options_.grid_points, 2);
  const int d = curve_->dimension();
  const double tol = options_.tol;
  constexpr int kMaxIterations = 200;  // GoldenSectionMinimizeWith's default
  const double kInvPhi = (std::sqrt(5.0) - 1.0) / 2.0;   // 1/phi
  const double kInvPhi2 = (3.0 - std::sqrt(5.0)) / 2.0;  // 1/phi^2

  // Bracket detection in the per-row path's order (rows ascending, grid
  // index ascending), so each row's refined candidates apply with exactly
  // FinishGridFromDists' tie-break sequence.
  golden_tasks_.clear();
  for (int r = 0; r < count; ++r) {
    const double* gd = grid_dist_block_.data() + r;
    for (int i = 0; i <= g; ++i) {
      const bool left_ok =
          i == 0 || gd[static_cast<size_t>(i) * RowBlock::kLaneStride] <=
                        gd[static_cast<size_t>(i - 1) * RowBlock::kLaneStride];
      const bool right_ok =
          i == g || gd[static_cast<size_t>(i) * RowBlock::kLaneStride] <=
                        gd[static_cast<size_t>(i + 1) * RowBlock::kLaneStride];
      if (!left_ok || !right_ok) continue;
      GoldenTask task;
      task.row = r;
      task.x = rows + static_cast<size_t>(r) * row_stride;
      task.a = std::max(0.0, static_cast<double>(i - 1) / g);
      task.b = std::min(1.0, static_cast<double>(i + 1) / g);
      golden_tasks_.push_back(task);
    }
  }

  // Waves of up to kMaxRows tasks share the task-major transpose buffer;
  // within a wave, every round advances each still-active search by one
  // evaluation and batches all of the round's probes into one kernel call.
  // Lanes of already-finished tasks keep their last probe: the kernel
  // still computes them (harmlessly — iteration counts across a wave
  // differ by at most a few rounds), the results are simply not consumed
  // and not counted.
  for (size_t wave = 0; wave < golden_tasks_.size();
       wave += RowBlock::kMaxRows) {
    const int t_count = static_cast<int>(
        std::min<size_t>(RowBlock::kMaxRows, golden_tasks_.size() - wave));
    GoldenTask* tasks = golden_tasks_.data() + wave;
    for (int t = 0; t < t_count; ++t) {
      const double* x = tasks[t].x;
      for (int j = 0; j < d; ++j) {
        golden_xt_[static_cast<size_t>(j) * RowBlock::kMaxRows + t] = x[j];
      }
    }
    int active = 0;
    for (int t = 0; t < t_count; ++t) {
      GoldenTask& task = tasks[t];
      task.h = task.b - task.a;
      task.evaluations = 0;
      task.iterations = 0;
      task.active = true;
      ++active;
      if (task.h <= tol) {
        task.stage = GoldenStage::kNarrow;
      } else {
        task.c = task.a + kInvPhi2 * task.h;
        task.d = task.a + kInvPhi * task.h;
        task.stage = GoldenStage::kInitC;
      }
      golden_s_[static_cast<size_t>(t)] = 0.5;  // benign until first probe
    }
    while (active > 0) {
      // Emit: pick each active task's next probe — applying the loop's
      // branch update exactly as GoldenSectionMinimizeWith does before its
      // evaluation — or finalise tasks whose loop has terminated.
      int emitted = 0;
      for (int t = 0; t < t_count; ++t) {
        GoldenTask& task = tasks[t];
        task.pending = false;
        if (!task.active) continue;
        switch (task.stage) {
          case GoldenStage::kNarrow:
            task.probe = 0.5 * (task.a + task.b);
            break;
          case GoldenStage::kInitC:
            task.probe = task.c;
            break;
          case GoldenStage::kInitD:
            task.probe = task.d;
            break;
          case GoldenStage::kDecide:
            if (task.iterations < kMaxIterations && task.h > tol) {
              if (task.fc < task.fd) {
                task.b = task.d;
                task.d = task.c;
                task.fd = task.fc;
                task.h = task.b - task.a;
                task.c = task.a + kInvPhi2 * task.h;
                task.probe = task.c;
                task.stage = GoldenStage::kEvalC;
              } else {
                task.a = task.c;
                task.c = task.d;
                task.fc = task.fd;
                task.h = task.b - task.a;
                task.d = task.a + kInvPhi * task.h;
                task.probe = task.d;
                task.stage = GoldenStage::kEvalD;
              }
            } else {
              task.result_x = task.fc < task.fd ? task.c : task.d;
              task.result_fx = task.fc < task.fd ? task.fc : task.fd;
              task.active = false;
              --active;
              continue;
            }
            break;
          case GoldenStage::kEvalC:
          case GoldenStage::kEvalD:
            break;  // unreachable: consume always advances to kDecide
        }
        golden_s_[static_cast<size_t>(t)] = task.probe;
        task.pending = true;
        ++emitted;
      }
      if (emitted == 0) break;  // every remaining task finalised this round

      eval_.SquaredDistancesMulti(golden_xt_.data(), RowBlock::kMaxRows,
                                  t_count, golden_s_.data(),
                                  golden_dist_.data());
      objective_evals_ += emitted;

      // Consume: write each pending probe's value into its search state.
      for (int t = 0; t < t_count; ++t) {
        GoldenTask& task = tasks[t];
        if (!task.pending) continue;
        double value = golden_dist_[static_cast<size_t>(t)];
        if (task.probe == 0.0 || task.probe == 1.0) {
          // The per-point path takes the exact-endpoint branch here; the
          // interior kernel value for this lane is discarded. (Brackets are
          // at least half a grid cell wide, so this effectively never
          // happens — it is kept for exact equivalence.)
          value = eval_.SquaredDistance(task.x, task.probe);
        }
        ++task.evaluations;
        switch (task.stage) {
          case GoldenStage::kNarrow:
            task.result_x = task.probe;
            task.result_fx = value;
            task.active = false;
            --active;
            break;
          case GoldenStage::kInitC:
            task.fc = value;
            task.stage = GoldenStage::kInitD;
            break;
          case GoldenStage::kInitD:
            task.fd = value;
            task.stage = GoldenStage::kDecide;
            break;
          case GoldenStage::kEvalC:
            task.fc = value;
            ++task.iterations;
            task.stage = GoldenStage::kDecide;
            break;
          case GoldenStage::kEvalD:
            task.fd = value;
            ++task.iterations;
            task.stage = GoldenStage::kDecide;
            break;
          case GoldenStage::kDecide:
            break;  // unreachable: kDecide never emits a probe
        }
      }
    }
  }

  // Apply every task's refined candidate in collection order: per row this
  // is ascending bracket order, the per-row path's exact sequence.
  for (const GoldenTask& task : golden_tasks_) {
    ProjectionResult& best = results[task.row];
    best.evaluations += task.evaluations;
    ConsiderPrecomputed(task.result_x, task.result_fx, &best);
  }
}

void ProjectionWorkspace::ProjectBlock(const double* rows, int count,
                                       int row_stride, double* s_out,
                                       double* squared_out) {
  assert(bound());
  // kNewton and kQuinticRoots do one d-dimensional sweep per row and then
  // scalar work, so they have nothing to share across rows and run the
  // per-row routine. For the tile methods, below a vector's worth of rows
  // the block path is pure overhead (packing plus one indirect kernel call
  // per grid point, each processing a near-empty tile). The per-row path
  // is bit-identical (see ProjectPackedBlock), so this is purely a speed
  // choice.
  constexpr int kBlockMinRows = 8;
  if (!UsesTileGrid(options_.method) || count < kBlockMinRows) {
    for (int i = 0; i < count; ++i) {
      const ProjectionResult result =
          Project(rows + static_cast<size_t>(i) * row_stride);
      s_out[i] = result.s;
      if (squared_out != nullptr) squared_out[i] = result.squared_distance;
    }
    return;
  }
  for (int begin = 0; begin < count; begin += RowBlock::kMaxRows) {
    const int chunk = std::min(RowBlock::kMaxRows, count - begin);
    const double* chunk_rows = rows + static_cast<size_t>(begin) * row_stride;
    block_.Pack(chunk_rows, chunk, row_stride);
    ProjectPackedBlock(block_, chunk_rows, row_stride, s_out + begin,
                       squared_out == nullptr ? nullptr : squared_out + begin);
  }
}

ProjectionResult ProjectOntoCurve(const BezierCurve& curve, const Vector& x,
                                  const ProjectionOptions& options) {
  assert(x.size() == curve.dimension());
  ProjectionWorkspace workspace;
  workspace.Bind(curve, options);
  return workspace.Project(x.data().data());
}

Vector ProjectRows(const BezierCurve& curve, const Matrix& data,
                   const ProjectionOptions& options,
                   double* total_squared_distance) {
  return ProjectRowsBatch(curve, data, options, /*pool=*/nullptr,
                          total_squared_distance);
}

}  // namespace rpc::opt
