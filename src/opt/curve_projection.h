#ifndef RPC_OPT_CURVE_PROJECTION_H_
#define RPC_OPT_CURVE_PROJECTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "curve/bezier.h"
#include "linalg/vector.h"
#include "opt/polynomial.h"
#include "opt/row_block.h"

namespace rpc::opt {

/// How the per-point projection index s_f(x) (Eq. A-2 / Eq. 20-22) is found.
enum class ProjectionMethod {
  /// Coarse grid to bracket local minima, Golden Section Search to refine —
  /// the method Algorithm 1 adopts, kept as its selectable reference.
  kGoldenSection,
  /// Solve the stationarity polynomial f'(s).(x - f(s)) = 0 exactly (degree
  /// 2k-1, the quintic of Eq. 20 for cubics) with Sturm root isolation,
  /// standing in for Jenkins-Traub [32].
  kQuinticRoots,
  /// Pure grid argmin; ablation baseline showing why refinement matters.
  kGridOnly,
  /// Same grid as kGoldenSection, then safeguarded Newton on the
  /// stationarity condition inside every grid-local minimum's bracket — the
  /// Gradient/Gauss-Newton family Pastva [20] used for Bezier fitting. Both
  /// run on the scalar distance polynomial (see ProjectionWorkspace), so a
  /// row costs one d-dimensional sweep plus a direct distance per
  /// candidate. Quadratic local convergence; the default.
  kNewton,
};

/// Whether `method` runs its grid stage on the SIMD tile kernels
/// (ProjectionWorkspace::ProjectPackedBlock): the Algorithm 1 reference and
/// its grid-only ablation. kNewton and kQuinticRoots project row by row
/// through the distance polynomial instead.
inline bool UsesTileGrid(ProjectionMethod method) {
  return method == ProjectionMethod::kGoldenSection ||
         method == ProjectionMethod::kGridOnly;
}

struct ProjectionOptions {
  ProjectionMethod method = ProjectionMethod::kNewton;
  /// Grid resolution for bracketing (kGoldenSection, kNewton) or the answer
  /// itself (kGridOnly).
  int grid_points = 32;
  /// Bracket-width tolerance for Golden Section refinement, stationarity and
  /// step tolerance for kNewton, and root tolerance for kQuinticRoots.
  double tol = 1e-10;
};

struct ProjectionResult {
  /// The projection index; ties between equally near curve points are broken
  /// toward the largest s (the `sup` in Hastie's Eq. A-2).
  double s = 0.0;
  double squared_distance = 0.0;
  /// Number of evaluations the solver performed for this point: every
  /// squared-distance evaluation plus, for kNewton, every stationarity
  /// evaluation and, for kQuinticRoots, every Horner evaluation of the
  /// stationarity polynomial's Sturm chain during root isolation and
  /// refinement (so method cost comparisons are honest). No evaluation is
  /// counted twice — reusing a precomputed grid value (e.g. the s = 1
  /// boundary probe) costs nothing here. The same definition holds for all
  /// four methods; ProjectionWorkspace's counters let tests assert it.
  int evaluations = 0;
};

/// Reusable per-worker engine for projecting many points onto one curve.
///
/// Bind() hoists all per-curve work out of the per-point loop: the Bezier
/// evaluation workspace, the curve values at the grid points, and the
/// *distance polynomial*. With power coefficients a_r (f(s) = sum_r a_r s^r)
///
///   ||x - f(s)||^2 = ||x||^2 - 2 sum_r (x . a_r) s^r + q(s),
///
/// where q(s) = ||f(s)||^2 is a degree-2k polynomial of the curve alone.
/// Bind stores q's derivative and q at the grid points, so a kNewton row
/// costs ||x||^2 and the k+1 dot products x . a_r, then a grid scan and a
/// Newton solve on the stationarity polynomial (Eq. 20) that do not grow
/// with d; only the two grid end values and each refined candidate are
/// direct d-dimensional distances. After the Bind, Project(),
/// ProjectBlock(), ProjectLocal() and ProjectSeeded() are
/// heap-allocation-free for every method — kQuinticRoots runs its Sturm
/// root isolation inside a fixed-capacity PolynomialRootWorkspace.
///
/// One workspace per thread: Project() mutates the scratch, so workspaces
/// must not be shared across concurrent callers (see ProjectRowsBatch).
class ProjectionWorkspace {
 public:
  ProjectionWorkspace() = default;
  ProjectionWorkspace(const ProjectionWorkspace&) = delete;
  ProjectionWorkspace& operator=(const ProjectionWorkspace&) = delete;

  /// Binds to a curve + options; the curve must outlive the binding.
  void Bind(const curve::BezierCurve& curve, const ProjectionOptions& options);

  /// Binds to an immutable shared curve, taking shared ownership: the
  /// workspace itself keeps the model alive for as long as it stays bound.
  /// This is the serving-tier contract — a shard can be evicted or swapped
  /// (copy-on-write) while a checked-out workspace is mid-query without the
  /// query ever seeing a torn or freed model. Rebinding (either overload)
  /// or destroying the workspace releases the reference.
  void BindShared(std::shared_ptr<const curve::BezierCurve> curve,
                  const ProjectionOptions& options);

  bool bound() const { return curve_ != nullptr; }

  /// Projects one point given as `dimension()` contiguous doubles.
  ProjectionResult Project(const double* x);

  /// Projects `count` row-major rows (row i at rows + i * row_stride);
  /// writes s_out[i] and, when non-null, squared_out[i]. The tile methods
  /// (UsesTileGrid) run the grid stage of RowBlock-sized sub-blocks through
  /// the active curve::SimdOps kernels; kNewton and kQuinticRoots have
  /// nothing to share across rows and run Project per row.
  ///
  /// Bit-identical to calling Project(row i) for every row, for every
  /// method and every backend (the SimdOps contract): the serial, batch,
  /// warm-start and serving paths may mix the two entry points freely.
  /// Evaluation accounting is preserved: the workspace counters and the
  /// implied per-row evaluations match the per-row path exactly.
  void ProjectBlock(const double* rows, int count, int row_stride,
                    double* s_out, double* squared_out);

  /// The ProjectBlock tile core of kGoldenSection and kGridOnly, for rows
  /// already packed into a caller-owned tile: `block` must hold the same
  /// `count <= RowBlock::kMaxRows` rows as the row-major `rows` pointer
  /// (refinement reads the row-major form). Exposed so batch-of-curves
  /// evaluation can pack a block once and score it against many bound
  /// workspaces (see ProjectRowsBatchMultiCurve).
  void ProjectPackedBlock(const RowBlock& block, const double* rows,
                          int row_stride, double* s_out, double* squared_out);

  /// Warm-start local refinement: finds the best candidate inside the
  /// bracket [lo, hi] (a sub-interval of [0, 1]) only, via a small interior
  /// grid plus safeguarded Newton on the stationarity polynomial (with
  /// bisection safeguards when a step leaves the bracket).
  /// Sets *hit_edge when the interior grid's argmin landed on a bracket
  /// edge that is not a domain boundary — the true minimiser may then lie
  /// outside the bracket and the caller (IncrementalProjector) must fall
  /// back to the global Project(). kGridOnly has no refinement stage, so
  /// this method delegates straight to Project() for it. Works after a Bind
  /// with any method. No global guarantees; same sup tie-break as Project
  /// within the bracket.
  ProjectionResult ProjectLocal(const double* x, double lo, double hi,
                                bool* hit_edge);

  /// Probe-free warm refinement for rows whose minimiser has stopped
  /// moving (IncrementalProjector's adaptive-bracket fast path): evaluates
  /// the seed s only, then runs the safeguarded Newton refinement over
  /// [lo, hi] directly — no interior bracket grid, so a settled row costs
  /// a couple of evaluations instead of ProjectLocal's probe. There is no
  /// edge detection; the caller must guard the result with the certified
  /// curve-movement distance bound and fall back to Project() when it
  /// fails. Same sup tie-break as ProjectLocal.
  ProjectionResult ProjectSeeded(const double* x, double seed, double lo,
                                 double hi);

  /// Evaluation accounting since the last Bind/ResetEvaluationCounts:
  /// squared-distance evaluations (a grid scan's g+1 values count alike,
  /// direct or from the distance polynomial) plus stationarity evaluations
  /// (one per Newton step, value and slope together; kQuinticRoots counts
  /// its Sturm-chain Horner evaluations). Tests assert that the sum matches
  /// the accumulated ProjectionResult::evaluations for every method.
  std::int64_t objective_evaluations() const { return objective_evals_; }
  std::int64_t stationarity_evaluations() const { return stationarity_evals_; }
  void ResetEvaluationCounts();

 private:
  friend struct ProjectionObjective;

  double ObjectiveAt(const double* x, double s);
  /// The prepared row's stationarity polynomial h(s) = f'(s).(x - f(s))
  /// and, through *slope, h'(s): one Horner pass, counted as one
  /// stationarity evaluation. Requires PrepareRow(x).
  double StationarityWithSlope(double s, double* slope);
  void ConsiderCandidate(const double* x, double s, ProjectionResult* best);
  /// Same comparison/tie-break as ConsiderCandidate for a value that was
  /// already evaluated (and counted) elsewhere; performs no evaluation.
  static void ConsiderPrecomputed(double s, double dist,
                                  ProjectionResult* best);

  /// The distance polynomial's per-row part: ||x||^2 and c_r = x . a_r (fixed-order dot
  /// products), the coefficients of the row's stationarity polynomial
  /// h(s) = sum_r r c_r s^(r-1) - q'(s)/2 into row_h_, and the rounding
  /// allowance of the row's scalar grid values.
  void PrepareRow(const double* x);

  ProjectionResult ProjectViaGrid(const double* x, bool refine);
  ProjectionResult ProjectViaNewton(const double* x);
  ProjectionResult ProjectViaPolynomialRoots(const double* x);
  /// Shared back half of the tile methods: given the g+1 grid distances
  /// for one point (entry i at gd[i * stride]), run the bracket detection
  /// and refinement exactly as ProjectViaGrid does. The per-point path
  /// passes grid_dist_ with stride 1; the block path passes a kernel-filled
  /// column of grid_dist_block_ with stride kLaneStride.
  ProjectionResult FinishGridFromDists(const double* x, const double* gd,
                                       int stride, bool refine);
  /// Lock-step Golden Section refinement, the kGoldenSection back half of
  /// ProjectPackedBlock: collects every grid-local-minimum bracket of the
  /// block's rows into tasks and advances all of their searches together —
  /// each round moves every active task's state machine by exactly one
  /// objective evaluation, and a single batched kernel sweep
  /// (SimdOps::power_squared_distances_multi) evaluates the whole round's
  /// probes at once, one task per SIMD lane. Per task the evaluation
  /// sequence, iteration count and result are GoldenSectionMinimizeWith's
  /// exactly, so the refined minimisers, tie-breaks and evaluation
  /// counters are bit-identical to the per-row path; only the interleaving
  /// of evaluations across rows differs. Applies each task's refined
  /// candidate to results[task.row] in the per-row path's bracket order.
  void RefineGoldenBlock(const double* rows, int row_stride, int count,
                         ProjectionResult* results);
  /// Safeguarded Newton on the prepared row's stationarity polynomial over
  /// [lo, hi], seeded at the midpoint; the shared refinement core of
  /// kNewton, ProjectLocal and ProjectSeeded. Requires PrepareRow(x).
  double NewtonRefine(double lo, double hi, ProjectionResult* best);

  const curve::BezierCurve* curve_ = nullptr;
  /// Non-null only after BindShared: co-owns the bound curve.
  std::shared_ptr<const curve::BezierCurve> shared_curve_;
  ProjectionOptions options_;
  curve::BezierEvalWorkspace eval_;

  // Distance polynomial, per Bind: the curve term -q'(s)/2 of the
  // stationarity polynomial (2k coefficients, ascending), the grid points
  // s_i = i/g, and q(s_i) = ||f(s_i)||^2 from the exact grid_f_ values.
  std::vector<double> q_half_slope_;
  std::vector<double> grid_s_;
  std::vector<double> grid_q_;
  double grid_q_max_ = 0.0;
  // Per-row scratch (PrepareRow): c_r = x . a_r (k+1 entries), ||x||^2,
  // h's 2k ascending coefficients and the grid's rounding allowance.
  std::vector<double> row_c_;
  double row_xx_ = 0.0;
  std::vector<double> row_h_;
  double row_slack_ = 0.0;

  // kQuinticRoots: the fixed-capacity Sturm scratch + root output buffer.
  PolynomialRootWorkspace root_workspace_;
  double roots_[PolynomialRootWorkspace::kMaxDegree];

  std::vector<double> grid_dist_;  // grid_points + 1 distances
  std::vector<int> grid_minima_;   // kNewton's grid-local minima, per row
  // f(s_i) at all grid points ((g+1) x d, per Bind): the tile kernels'
  // shared curve values and the source of grid_q_.
  std::vector<double> grid_f_;

  // Tile-path state of kGoldenSection / kGridOnly (sized per Bind, so the
  // block sweeps stay allocation-free): the SoA tile and the kernel-written
  // grid distances ((g+1) x kLaneStride; the column with stride
  // kLaneStride holds one row's grid).
  RowBlock block_;
  std::vector<double> grid_dist_block_;

  /// Where a lock-step Golden Section task is in its search (see
  /// RefineGoldenBlock): the initial probes (c then d), the per-iteration
  /// decide/evaluate split of GoldenSectionMinimizeWith's loop — the
  /// branch update happens when the round's probe is chosen, the write of
  /// fc/fd when its batched evaluation lands — and the degenerate
  /// already-narrow bracket that evaluates its midpoint once.
  enum class GoldenStage : unsigned char {
    kNarrow,
    kInitC,
    kInitD,
    kDecide,
    kEvalC,
    kEvalD,
  };
  /// One bracket's Golden Section Search, advanced in lock step with every
  /// other bracket of its block.
  struct GoldenTask {
    int row = 0;                  // block-local row index
    const double* x = nullptr;    // the row's coordinates (row-major)
    double a = 0.0, b = 0.0, h = 0.0;  // current bracket
    double c = 0.0, d = 0.0;      // interior probe parameters
    double fc = 0.0, fd = 0.0;    // objective at the probes
    double probe = 0.0;           // parameter evaluated this round
    double result_x = 0.0, result_fx = 0.0;
    int evaluations = 0;
    int iterations = 0;
    GoldenStage stage = GoldenStage::kInitC;
    bool pending = false;  // emitted a probe this round
    bool active = false;
  };
  // Lock-step refinement scratch (sized per Bind with the other block
  // buffers): the task list, the task-major transpose of one wave's rows
  // (column t = task t's coordinates, lane stride kMaxRows), the per-lane
  // probe parameters and kernel results, and the per-row result scratch.
  std::vector<GoldenTask> golden_tasks_;
  std::vector<double> golden_xt_;
  std::vector<double> golden_s_;
  std::vector<double> golden_dist_;
  std::vector<ProjectionResult> block_results_;

  std::int64_t objective_evals_ = 0;
  std::int64_t stationarity_evals_ = 0;
};

/// Projects x onto the curve over s in [0, 1]: the global minimiser of
/// ||x - f(s)||^2, with the sup tie-break. Convenience wrapper that builds
/// a ProjectionWorkspace per call; loops over many points should hold a
/// workspace (or use ProjectRowsBatch) instead.
ProjectionResult ProjectOntoCurve(const curve::BezierCurve& curve,
                                  const linalg::Vector& x,
                                  const ProjectionOptions& options = {});

/// Projects every row of `data` (n x d); returns the n projection indices
/// and accumulates the summed squared distance J (Eq. 19) when
/// `total_squared_distance` is non-null. Serial; equivalent to
/// ProjectRowsBatch with a null pool.
linalg::Vector ProjectRows(const curve::BezierCurve& curve,
                           const linalg::Matrix& data,
                           const ProjectionOptions& options = {},
                           double* total_squared_distance = nullptr);

}  // namespace rpc::opt

#endif  // RPC_OPT_CURVE_PROJECTION_H_
