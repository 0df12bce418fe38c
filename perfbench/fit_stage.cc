// Fit stage: cold core::RpcLearner::Fit on latent-curve data (Algorithm 1
// with default options, GSS projection, full re-projection; 4 restarts on
// nproc threads, or on one in the serial regime). Projection (opt) and
// normal-equation accumulation (core) do almost all of the work; serving,
// streaming and durability do none.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fit_workspace.h"
#include "core/rpc_learner.h"
#include "data/generators.h"
#include "data/normalizer.h"
#include "opt/batch_projection.h"
#include "opt/curve_projection.h"
#include "order/monotonicity.h"
#include "stages.h"

namespace perfbench {
namespace {

using rpc::ThreadPool;
using rpc::core::RpcFitResult;
using rpc::core::RpcLearner;
using rpc::core::RpcLearnOptions;
using rpc::linalg::Matrix;
using rpc::linalg::Vector;

// One generating curve per dimension for every seed. Drawing a new random
// curve per seed moved a single cold fit (n=100k, d=4) between 0.28 s and
// 1.27 s, far more than the changes the benchmark has to resolve; with the
// curve fixed, the seed still draws every latent position and noise value.
constexpr std::uint64_t kTruthCurveSeed = 99;
constexpr double kNoiseSigma = 0.04;
// Datasets the traced pass refits to compare counts with the timed pass.
constexpr int kTracedFits = 8;

RpcLearnOptions StageOptions(const Config& config) {
  RpcLearnOptions options;
  options.restarts = 4;
  options.num_threads = config.threads();
  return options;
}

// The fit's own J must be what an independent projection of the data onto
// the returned curve measures, and the curve must be strictly monotone
// (Proposition 1).
void CheckFit(const RpcFitResult& fit, const Matrix& x,
              const rpc::order::Orientation& alpha,
              const RpcLearnOptions& options, ThreadPool* pool,
              Report* report) {
  double j = 0.0;
  rpc::opt::ProjectRowsBatch(fit.curve.bezier(), x, options.projection, pool,
                             &j);
  report->Check(std::fabs(j - fit.final_j) <=
                    1e-9 * std::max(std::fabs(fit.final_j), 1e-300),
                "fit: reported J equals an independent projection J");
  report->Check(
      rpc::order::CheckCurveMonotonicity(fit.curve.bezier(), alpha)
          .strictly_monotone,
      "fit: fitted curve is strictly monotone");
}

template <typename F>
double MedianSeconds(int repeats, F&& body) {
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    body();
    seconds.push_back(SecondsSince(t0));
  }
  return Median(seconds);
}

// Layer probes on dataset 0 and the curve its timed fit returned.
void MeasureLayers(const Config& config, const FitInputs& inputs,
                   const RpcFitResult& fit0, Report* report) {
  const Matrix x = MakeFitDataset(inputs, 0);
  const int n = x.rows();
  const int d = x.cols();
  const rpc::curve::BezierCurve& curve = fit0.curve.bezier();
  const RpcLearnOptions defaults;
  const rpc::opt::ProjectionOptions& projection = defaults.projection;

  // Step 4: one serial sweep of every row onto the fitted curve.
  Vector batch_scores;
  double batch_j = 0.0;
  const double project_s = MedianSeconds(3, [&] {
    TraceScope scope(true, "opt.ProjectRowsBatch");
    batch_scores = rpc::opt::ProjectRowsBatch(curve, x, projection,
                                              /*pool=*/nullptr, &batch_j);
  });
  report->Metric("opt.project_rows_per_s", n / project_s, "rows/s");

  // Objective evaluations per row: an exact count, so two sweeps must agree.
  std::vector<double> block_scores(static_cast<size_t>(n));
  std::int64_t evals[2] = {0, 0};
  for (std::int64_t& count : evals) {
    rpc::opt::ProjectionWorkspace workspace;
    workspace.Bind(curve, projection);
    workspace.ProjectBlock(x.RowPtr(0), n, d, block_scores.data(), nullptr);
    count = workspace.objective_evaluations();
  }
  report->Check(evals[0] == evals[1],
                "fit: objective evaluations repeat exactly");
  bool same_scores = true;
  for (int i = 0; i < n; ++i) {
    same_scores = same_scores && block_scores[static_cast<size_t>(i)] ==
                                     batch_scores[i];
  }
  report->Check(same_scores,
                "fit: block projection is bit-identical to the batch engine");
  report->Metric("opt.evals_per_row", static_cast<double>(evals[0]) / n,
                 "evals/row");

  // Step 5: normal-equation accumulation and the control-point update.
  rpc::core::FitWorkspace workspace;
  workspace.Bind(n, d, curve.degree());
  const double accumulate_s = MedianSeconds(5, [&] {
    TraceScope scope(true, "core.AccumulateNormalEquations");
    workspace.AccumulateNormalEquations(x, batch_scores, /*pool=*/nullptr);
  });
  report->Metric("core.accumulate_rows_per_s", n / accumulate_s, "rows/s");

  rpc::core::ControlUpdateOptions update_options;
  update_options.richardson_steps = defaults.richardson_steps_per_iteration;
  std::vector<double> update_seconds;
  bool update_ok = true;
  for (int r = 0; r < 201; ++r) {
    Matrix control = curve.control_points();
    const auto t0 = Clock::now();
    update_ok =
        workspace.UpdateControlPoints(update_options, &control).ok() &&
        update_ok;
    update_seconds.push_back(SecondsSince(t0));
  }
  report->Check(update_ok, "fit: control-point update succeeds");
  const double update_s = Median(update_seconds);
  report->Metric("core.update_us", update_s * 1e6, "us");

  // The plain serial baseline: one restart on one thread. The same fit on
  // nproc threads must be bit-identical to it.
  RpcLearnOptions serial;
  serial.num_threads = 1;
  RpcLearnOptions parallel;
  parallel.num_threads = config.nproc;
  rpc::Result<RpcFitResult> serial_fit = rpc::Status::Internal("not run");
  const auto serial_start = Clock::now();
  {
    TraceScope scope(true, "core.RpcLearner.Fit.1t");
    serial.trace_id = scope.trace_id();
    serial_fit = RpcLearner(serial).Fit(x, inputs.alpha);
  }
  const double fit_1t_s = SecondsSince(serial_start);
  const auto parallel_fit = RpcLearner(parallel).Fit(x, inputs.alpha);
  report->Ops("fit.layers", 2, (serial_fit.ok() ? 0 : 1) +
                                   (parallel_fit.ok() ? 0 : 1));
  if (!serial_fit.ok() || !parallel_fit.ok()) {
    report->Check(false, "fit: one-restart fits succeed");
    return;
  }
  report->Check(serial_fit->iterations == parallel_fit->iterations &&
                    serial_fit->final_j == parallel_fit->final_j &&
                    rpc::linalg::ApproxEqual(
                        serial_fit->curve.control_points(),
                        parallel_fit->curve.control_points(), 0.0),
                "fit: 1 and nproc threads give bit-identical fits");
  const int iterations = serial_fit->iterations;
  report->Metric("core.iterations", iterations, "count");
  report->Metric("core.fit_1t_s", fit_1t_s, "s");
  // A fit projects once more than it updates (the pass that detects
  // convergence or rollback); the learner's own stage spans count both.
  int passes = 0;
  int updates = 0;
  for (const rpc::obs::SpanRecord& span :
       rpc::obs::CollectTrace(serial.trace_id)) {
    const std::string name = span.name;
    if (name == "fit.projection" || name == "fit.convergence") ++passes;
    if (name == "fit.update") ++updates;
  }
  if (updates != iterations) {
    report->Flag("fit: the learner's stage spans do not match its "
                 "iterations; coverage assumes iterations + 1 passes");
    passes = iterations + 1;
    updates = iterations;
  }
  const double coverage =
      (passes * (project_s + accumulate_s) + updates * update_s) / fit_1t_s;
  report->Metric("core.stage_coverage", coverage, "ratio");
  if (coverage < 0.95) {
    report->Flag("core.stage_coverage " + std::to_string(coverage) +
                 " < 0.95: the measured fit stages do not add up to the "
                 "one-thread fit");
  }
}

}  // namespace

Matrix FirstRows(const Matrix& rows, int count) {
  Matrix out(count, rows.cols());
  for (int i = 0; i < count; ++i) out.SetRow(i, rows.Row(i));
  return out;
}

Matrix LatentSample(int d, int n, std::uint64_t seed) {
  const rpc::curve::BezierCurve truth =
      rpc::data::GenerateLatentCurveData(
          rpc::order::Orientation::AllBenefit(d),
          {.n = 1, .noise_sigma = kNoiseSigma, .control_margin = 0.1,
           .seed = kTruthCurveSeed})
          .truth;
  rpc::Rng rng(seed);
  Matrix raw(n, d);
  for (int r = 0; r < n; ++r) {
    const Vector point = truth.Evaluate(rng.Uniform());
    for (int j = 0; j < d; ++j) {
      raw(r, j) = point[j] + rng.Gaussian(0.0, kNoiseSigma);
    }
  }
  return raw;
}

FitInputs MakeFitInputs(const Config& config) {
  const Regime& regime = config.regime;
  FitInputs inputs;
  inputs.alpha = rpc::order::Orientation::AllBenefit(kDim);
  inputs.rows = regime.fit_rows;
  for (int i = 0; i < regime.fit_datasets; ++i) {
    inputs.dataset_seeds.push_back(DeriveSeed(config.seed, 1000 + i));
  }
  return inputs;
}

Matrix MakeFitDataset(const FitInputs& inputs, int i) {
  const Matrix raw =
      LatentSample(inputs.alpha.dimension(), inputs.rows,
                   inputs.dataset_seeds[static_cast<size_t>(i)]);
  // Gaussian noise makes a constant column impossible, so Fit succeeds.
  return rpc::data::Normalizer::Fit(raw)->Transform(raw);
}

FitStage::FitStage(const Config& config, const FitInputs& inputs)
    : config_(config),
      inputs_(inputs),
      options_(StageOptions(config)),
      check_pool_(config.nproc),
      iterations_(inputs.dataset_seeds.size(), -1),
      explained_(inputs.dataset_seeds.size(), 0.0) {}

void FitStage::RunRound(int round, Report* report) {
  const RpcLearner learner(options_);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (size_t i = round; i < inputs_.dataset_seeds.size(); i += kRounds) {
    const Matrix x = MakeFitDataset(inputs_, static_cast<int>(i));
    const auto t0 = Clock::now();
    auto fit = learner.Fit(x, inputs_.alpha);
    const double seconds = SecondsSince(t0);
    ++attempted;
    if (!fit.ok()) {
      ++failed;
      report->Check(false, "fit: Fit failed: " + fit.status().ToString());
      continue;
    }
    seconds_.push_back(seconds);
    iterations_[i] = fit->iterations;
    explained_[i] = fit->explained_variance;
    CheckFit(*fit, x, inputs_.alpha, options_, &check_pool_, report);
    if (i == 0) first_fit_ = std::move(fit).value();
  }
  report->Ops("fit", attempted, failed);
}

void FitStage::Finish(Report* report) {
  // The median over datasets: a fit takes 2 to 4 outer iterations by its
  // data, so a mean would follow how many long ones a seed happens to draw.
  report->Metric("fit_s", Median(seconds_), "s");
  report->Metric("fit_explained_variance", Mean(explained_), "1");
  std::printf("# fit: %zu datasets, n=%d d=%d, mean %.4f s, iterations per "
              "dataset:",
              inputs_.dataset_seeds.size(), inputs_.rows,
              inputs_.alpha.dimension(), Mean(seconds_));
  for (const int count : iterations_) std::printf(" %d", count);
  std::printf("\n");

  if (!config_.trace || !first_fit_.has_value()) return;

  // Traced pass: the same fits under one trace id each; the learner's own
  // stage spans nest under it. Iteration counts must repeat exactly.
  rpc::obs::SetTracingEnabled(true);
  std::int64_t traced_failed = 0;
  const int traced =
      std::min(static_cast<int>(inputs_.dataset_seeds.size()), kTracedFits);
  for (int i = 0; i < traced; ++i) {
    const Matrix x = MakeFitDataset(inputs_, i);
    TraceScope scope(true, "core.RpcLearner.Fit");
    RpcLearnOptions traced_options = options_;
    traced_options.trace_id = scope.trace_id();
    const auto fit = RpcLearner(traced_options).Fit(x, inputs_.alpha);
    if (!fit.ok()) {
      ++traced_failed;
      continue;
    }
    report->Check(
        fit->iterations == iterations_[static_cast<size_t>(i)],
        "fit: traced and untraced fits repeat the same iteration count");
  }
  report->Ops("fit.traced", traced, traced_failed);
  MeasureLayers(config_, inputs_, *first_fit_, report);
  rpc::obs::SetTracingEnabled(false);
}

}  // namespace perfbench
