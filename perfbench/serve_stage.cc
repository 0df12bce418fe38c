// Serve stage: one serve::RankingService with num_threads = nproc (1 in the
// serial regime, which runs every query inline on its caller) holding
// the country (d=4) and journal (d=5) tables as point shards and a d=32
// bulk shard, driven by closed-loop callers in phases that never overlap
// (running bulk beside point traffic swung point throughput between 91k and
// 160k queries/s):
//   point  nproc/2 callers (1 when serial), batch=1 queries alternating
//          between the point shards — the single-segment path where
//          admission, queue and wake-up costs dominate;
//   bulk   1 caller scoring 4096 d=32 rows per query at kBatch priority —
//          the multi-segment, pool-parallel SIMD block path where
//          projection kernels dominate;
//   inline (traced runs) the point traffic on a num_threads=1 service with
//          one caller, the reference the point scaling is read against.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/rpc_ranker.h"
#include "curve/simd_backend.h"
#include "data/generators.h"
#include "data/normalizer.h"
#include "opt/curve_projection.h"
#include "stages.h"

namespace perfbench {
namespace {

using rpc::linalg::Matrix;
using rpc::serve::QueryOptions;
using rpc::serve::QueryPriority;
using rpc::serve::RankingService;

// Width of the bulk shard's rows.
constexpr int kBulkDim = 32;
// Untimed queries each caller sends before a timed phase opens.
constexpr int kWarmupQueries = 2000;
// Shares of --seconds the point and bulk phases run for, over all rounds;
// the fit and stream stages do a fixed amount of work.
constexpr double kPointShare = 0.6;
constexpr double kBulkShare = 0.1;
// Each round's timed phase is cut into this many equal windows.
constexpr int kWindowsPerRound = 8;

Windows MakeWindows(double window_s) {
  Windows w;
  w.window_s = window_s;
  w.completed.assign(kWindowsPerRound, 0);
  w.latency_us.assign(kWindowsPerRound, {});
  return w;
}

// Files one query under the window its completion falls in; queries
// completing after the phase ended count only in the totals.
void AddQuery(Windows* w, double at_s, bool ok, double us) {
  const size_t k = static_cast<size_t>(at_s / w->window_s);
  if (k >= w->completed.size()) return;
  w->latency_us[k].push_back(ok ? us : kFailedLatency);
  if (ok) ++w->completed[k];
}

// Sums the per-window tallies of the callers of one phase.
void MergeCallers(Windows* into, const Windows& other) {
  for (size_t k = 0; k < into->completed.size(); ++k) {
    into->completed[k] += other.completed[k];
    into->latency_us[k].insert(into->latency_us[k].end(),
                               other.latency_us[k].begin(),
                               other.latency_us[k].end());
  }
}

struct PointResult {
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t mismatches = 0;
  Windows windows;
  std::vector<double> admission_us;
  std::vector<double> execution_us;
};

// `callers` closed-loop threads, each sending batch=1 queries that
// alternate between the two point shards, for `seconds`, from a row the
// seed picks. Every answer is compared with the in-process score of its row.
PointResult RunPoint(const RankingService& service, const ServeInputs& in,
                     int callers, double seconds, std::uint64_t seed,
                     bool traced) {
  std::vector<PointResult> parts(static_cast<size_t>(callers));
  const double window_s = seconds / kWindowsPerRound;
  for (PointResult& part : parts) part.windows = MakeWindows(window_s);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  auto caller = [&](int c) {
    PinThisThread(c);
    PointResult& part = parts[static_cast<size_t>(c)];
    std::int64_t q = static_cast<std::int64_t>(DeriveSeed(seed, 30 + c) >> 2);
    auto one = [&](bool record) {
      const ServeShard& shard = in.point[q & 1];
      const size_t row = static_cast<size_t>((q >> 1) %
                                             static_cast<std::int64_t>(
                                                 shard.single_rows.size()));
      ++q;
      TraceScope scope(traced, "serve.Query.point");
      QueryOptions options;
      options.trace_id = scope.trace_id();
      const auto t0 = Clock::now();
      const auto result =
          service.Query(shard.id, shard.single_rows[row], options);
      const auto t1 = Clock::now();
      if (!record) return;
      AddQuery(&part.windows, Seconds(start, t1), result.ok(),
               Seconds(t0, t1) * 1e6);
      if (!result.ok()) {
        ++part.failed;
        return;
      }
      ++part.completed;
      part.admission_us.push_back(result->trace.admission_wait.count() / 1e3);
      part.execution_us.push_back(result->trace.execution_time.count() / 1e3);
      if (result->scores[0] != shard.expected[row]) ++part.mismatches;
    };
    for (int w = 0; w < kWarmupQueries; ++w) one(false);
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    while (SecondsSince(start) < seconds) one(true);
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) threads.emplace_back(caller, c);
  while (ready.load() < callers) std::this_thread::yield();
  start = Clock::now();
  go.store(true);
  for (std::thread& t : threads) t.join();

  PointResult total;
  total.windows = MakeWindows(window_s);
  for (PointResult& part : parts) {
    total.completed += part.completed;
    total.failed += part.failed;
    total.mismatches += part.mismatches;
    MergeCallers(&total.windows, part.windows);
    total.admission_us.insert(total.admission_us.end(),
                              part.admission_us.begin(),
                              part.admission_us.end());
    total.execution_us.insert(total.execution_us.end(),
                              part.execution_us.begin(),
                              part.execution_us.end());
  }
  return total;
}

struct BulkResult {
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t mismatches = 0;
  // One caller in a closed loop, so each query's rows over its latency is
  // the phase's throughput at that moment.
  std::vector<double> rows_per_s;
  std::vector<double> segments;
  std::vector<double> admission_us;
};

BulkResult RunBulk(const RankingService& service, const ServeShard& shard,
                   double seconds, bool traced) {
  BulkResult out;
  auto one = [&](bool record) {
    TraceScope scope(traced, "serve.Query.bulk");
    QueryOptions options;
    options.priority = QueryPriority::kBatch;
    options.trace_id = scope.trace_id();
    const auto t0 = Clock::now();
    const auto result = service.Query(shard.id, shard.pool, options);
    const double query_s = SecondsSince(t0);
    if (!record) return;
    if (!result.ok()) {
      ++out.failed;
      return;
    }
    ++out.completed;
    out.rows_per_s.push_back(shard.pool.rows() / query_s);
    out.segments.push_back(result->trace.segments);
    out.admission_us.push_back(result->trace.admission_wait.count() / 1e3);
    for (int i = 0; i < result->scores.size(); ++i) {
      if (result->scores[i] != shard.expected[static_cast<size_t>(i)]) {
        ++out.mismatches;
      }
    }
  };
  one(false);
  const auto start = Clock::now();
  while (SecondsSince(start) < seconds) one(true);
  return out;
}

// Every shard's whole pool, served in one query, must equal the portable
// model's own scoring bit for bit.
void VerifyShards(const RankingService& service, const ServeInputs& in,
                  const std::string& when, Report* report) {
  std::int64_t failed = 0;
  for (const ServeShard* shard : {&in.point[0], &in.point[1], &in.bulk}) {
    const auto result = service.Query(shard->id, shard->pool);
    bool same = result.ok();
    for (int i = 0; same && i < shard->pool.rows(); ++i) {
      same = result->scores[i] == shard->expected[static_cast<size_t>(i)];
    }
    if (!result.ok()) ++failed;
    report->Check(same, "serve: " + shard->id + " served scores equal "
                            "PortableRpcModel::Score " + when + " timing");
  }
  report->Ops("serve.verify", 3, failed);
}

ServeShard MakeShard(const std::string& id, const rpc::core::RpcRanker& fit,
                     Matrix pool) {
  ServeShard shard;
  shard.id = id;
  shard.model = fit.ToPortableModel();
  shard.pool = std::move(pool);
  for (int i = 0; i < shard.pool.rows(); ++i) {
    Matrix single(1, shard.pool.cols());
    single.SetRow(0, shard.pool.Row(i));
    shard.single_rows.push_back(std::move(single));
    const auto score = shard.model.Score(shard.pool.Row(i));
    shard.expected.push_back(score.ok() ? *score : -1.0);
  }
  return shard;
}

// ---- layer probes --------------------------------------------------------

struct Projected {
  Matrix normalized;
  rpc::curve::BezierCurve curve;
};

Projected Normalized(const ServeShard& shard) {
  const auto normalizer = rpc::data::Normalizer::FromBounds(shard.model.mins,
                                                            shard.model.maxs);
  const auto curve = shard.model.BuildCurve();
  return {normalizer->Transform(shard.pool), curve->bezier()};
}

// Per-row ProjectionWorkspace::Project over a point shard's pool: ns/row
// and objective evaluations per row (two counted passes must agree).
void PointProjection(const ServeShard& shard, double* ns_per_row,
                     double* evals_per_row, Report* report) {
  const Projected p = Normalized(shard);
  const int n = p.normalized.rows();
  rpc::opt::ProjectionWorkspace workspace;
  workspace.Bind(p.curve, rpc::opt::ProjectionOptions());
  std::int64_t counts[2];
  for (std::int64_t& count : counts) {
    workspace.ResetEvaluationCounts();
    for (int i = 0; i < n; ++i) workspace.Project(p.normalized.RowPtr(i));
    count = workspace.objective_evaluations();
  }
  report->Check(counts[0] == counts[1],
                "serve: point objective evaluations repeat exactly");
  *evals_per_row = static_cast<double>(counts[0]) / n;
  std::int64_t rows = 0;
  const auto start = Clock::now();
  double sink = 0.0;
  while (SecondsSince(start) < 0.2) {
    for (int i = 0; i < n; ++i) {
      sink += workspace.Project(p.normalized.RowPtr(i)).s;
    }
    rows += n;
  }
  *ns_per_row = SecondsSince(start) * 1e9 / static_cast<double>(rows);
  report->Check(std::isfinite(sink), "serve: point projections are finite");
}

// Seconds per ProjectBlock sweep of a shard's whole pool (median of
// `repeats`) under the active SIMD backend, writing the scores to *scores
// and the objective evaluations of the first and the last sweep to evals.
double BlockSweepSeconds(const Projected& p, int repeats,
                         std::vector<double>* scores, std::int64_t* evals) {
  rpc::opt::ProjectionWorkspace workspace;
  workspace.Bind(p.curve, rpc::opt::ProjectionOptions());
  const int n = p.normalized.rows();
  scores->assign(static_cast<size_t>(n), 0.0);
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    workspace.ResetEvaluationCounts();
    const auto t0 = Clock::now();
    workspace.ProjectBlock(p.normalized.RowPtr(0), n, p.normalized.cols(),
                           scores->data(), nullptr);
    seconds.push_back(SecondsSince(t0));
    evals[r == 0 ? 0 : 1] = workspace.objective_evaluations();
  }
  return Median(seconds);
}

struct BlockProbe {
  double rows_per_s = 0.0;
  double evals_per_row = 0.0;
  // Scalar-backend sweep time over active-backend sweep time.
  double simd_speedup = 1.0;
};

// The block sweep of a shard's pool under the active backend and under
// curve::SetSimdBackend(kScalar), which must agree bit for bit.
BlockProbe ProbeBlock(const ServeShard& shard, int repeats, Report* report) {
  const Projected p = Normalized(shard);
  const int n = p.normalized.rows();
  std::vector<double> active_scores, scalar_scores;
  std::int64_t active_evals[2], scalar_evals[2];
  const double active_s =
      BlockSweepSeconds(p, repeats, &active_scores, active_evals);
  report->Check(active_evals[0] == active_evals[1],
                "serve: " + shard.id +
                    " block objective evaluations repeat exactly");
  BlockProbe probe;
  probe.rows_per_s = n / active_s;
  probe.evals_per_row = static_cast<double>(active_evals[0]) / n;
  const rpc::curve::SimdBackendKind active = rpc::curve::ActiveSimdKind();
  if (active != rpc::curve::SimdBackendKind::kScalar &&
      rpc::curve::SetSimdBackend(rpc::curve::SimdBackendKind::kScalar)) {
    const double scalar_s =
        BlockSweepSeconds(p, repeats, &scalar_scores, scalar_evals);
    rpc::curve::SetSimdBackend(active);
    report->Check(scalar_scores == active_scores &&
                      scalar_evals[0] == active_evals[0],
                  "serve: " + shard.id +
                      " active SIMD backend is bit-identical to scalar");
    probe.simd_speedup = scalar_s / active_s;
  }
  return probe;
}

void MeasureProbes(const ServeInputs& in, Report* report) {
  // The point shards are d=4 (countries) and d=5 (journals).
  for (int k = 0; k < 2; ++k) {
    double ns = 0.0, evals = 0.0;
    PointProjection(in.point[k], &ns, &evals, report);
    const std::string suffix = k == 0 ? "_d4" : "_d5";
    report->Metric("opt.point_project_ns" + suffix, ns, "ns");
    report->Metric("opt.evals_per_row" + suffix, evals, "evals/row");
  }

  const BlockProbe bulk = ProbeBlock(in.bulk, 5, report);
  report->Metric("opt.bulk_project_rows_per_s_d32", bulk.rows_per_s,
                 "rows/s");
  report->Metric("opt.evals_per_row_d32", bulk.evals_per_row, "evals/row");
  report->Metric("curve.simd_speedup_d32", bulk.simd_speedup, "x");
  // The country pool is a few hundred rows, so its sweep repeats more.
  report->Metric("curve.simd_speedup_d4",
                 ProbeBlock(in.point[0], 101, report).simd_speedup, "x");

  const int n = in.bulk.pool.rows();
  const auto normalizer = rpc::data::Normalizer::FromBounds(
      in.bulk.model.mins, in.bulk.model.maxs);
  std::vector<double> seconds;
  for (int r = 0; r < 21; ++r) {
    const auto t0 = Clock::now();
    const Matrix normalized = normalizer->Transform(in.bulk.pool);
    seconds.push_back(SecondsSince(t0));
    report->Check(normalized.rows() == n, "serve: normalizer keeps the rows");
  }
  report->Metric("data.normalize_ns_per_row", Median(seconds) * 1e9 / n,
                 "ns");
}

// Closed-loop point callers: half the CPUs, so callers and pool workers
// fit the cores; one on an inline service.
int Callers(const Config& config) {
  return config.regime.serial ? 1 : std::max(1, config.nproc / 2);
}

// Queries block for admission and carry no deadline, so the service must
// neither shed nor expire one; a refused query also fails its Query call
// and counts there.
void CheckNothingRefused(const RankingService& service,
                         const rpc::serve::ServiceStats& before,
                         Report* report) {
  const rpc::serve::ServiceStats after = service.stats();
  report->Check(after.rejected == before.rejected &&
                    after.deadline_expired == before.deadline_expired,
                "serve: no query was rejected or expired");
}

}  // namespace

std::unique_ptr<ServeInputs> MakeServeInputs(const Config& config,
                                             Report* report) {
  auto in = std::make_unique<ServeInputs>();
  rpc::core::RpcLearnOptions options;
  options.num_threads = 1;
  // A few d=32 datasets never meet the tolerance and would run to the
  // default 300-iteration cap.
  options.max_iterations = 50;
  // Each shard is fitted on set-up data and queried with rows drawn from
  // the run seed.
  auto fit = [&](const std::string& id, const Matrix& train,
                 const rpc::order::Orientation& alpha, Matrix pool,
                 ServeShard* out) {
    const auto ranker = rpc::core::RpcRanker::Fit(train, alpha, options);
    report->Ops("serve.setup_fit", 1, ranker.ok() ? 0 : 1);
    report->Check(ranker.ok(), "serve: shard " + id + " fits");
    if (ranker.ok()) *out = MakeShard(id, *ranker, std::move(pool));
  };
  auto countries = [](std::uint64_t seed) {
    return rpc::data::GenerateCountryData(171, seed, true)
        .FilterCompleteRows()
        .values();
  };
  auto journals = [](std::uint64_t seed) {
    return rpc::data::GenerateJournalData(451, 58, seed, true)
        .FilterCompleteRows()
        .values();
  };
  fit("countries", countries(DeriveSeed(kSetupSeed, 11)),
      *rpc::order::Orientation::FromSigns({+1, +1, -1, -1}),
      countries(DeriveSeed(config.seed, 11)), &in->point[0]);
  fit("journals", journals(DeriveSeed(kSetupSeed, 12)),
      rpc::order::Orientation::AllBenefit(5),
      journals(DeriveSeed(config.seed, 12)), &in->point[1]);
  const int bulk_rows = config.regime.bulk_rows;
  fit("bulk", LatentSample(kBulkDim, bulk_rows, DeriveSeed(kSetupSeed, 13)),
      rpc::order::Orientation::AllBenefit(kBulkDim),
      LatentSample(kBulkDim, bulk_rows, DeriveSeed(config.seed, 13)),
      &in->bulk);

  RankingService::Options service_options;
  service_options.num_threads = config.threads();
  in->service = std::make_unique<RankingService>(service_options);
  for (const ServeShard* shard : {&in->point[0], &in->point[1], &in->bulk}) {
    const rpc::Status registered =
        in->service->RegisterDataset(shard->id, shard->model);
    report->Ops("serve.register", 1, registered.ok() ? 0 : 1);
    report->Check(registered.ok(), "serve: shard " + shard->id + " registers");
  }
  return in;
}

void Windows::Append(const Windows& other) {
  window_s = other.window_s;
  completed.insert(completed.end(), other.completed.begin(),
                   other.completed.end());
  latency_us.insert(latency_us.end(), other.latency_us.begin(),
                    other.latency_us.end());
}

double Windows::Rate() const {
  std::int64_t total = 0;
  for (const std::int64_t count : completed) total += count;
  return total / (window_s * static_cast<double>(completed.size()));
}

double Windows::Latency(double q) const {
  std::vector<double> all;
  for (const std::vector<double>& samples : latency_us) {
    all.insert(all.end(), samples.begin(), samples.end());
  }
  return Quantile(&all, q);
}

ServeStage::ServeStage(const Config& config, ServeInputs* inputs)
    : config_(config), in_(inputs) {}

void ServeStage::RunRound(int round, Report* report) {
  const RankingService& service = *in_->service;
  if (round == 0) VerifyShards(service, *in_, "before", report);
  const auto stats_before = service.stats();
  const PointResult point = RunPoint(
      service, *in_, Callers(config_), Budget(config_, kPointShare) / kRounds,
      DeriveSeed(config_.seed, round), false);
  const BulkResult bulk = RunBulk(
      service, in_->bulk, Budget(config_, kBulkShare) / kRounds, false);
  CheckNothingRefused(service, stats_before, report);
  report->Ops("serve.point", point.completed + point.failed, point.failed);
  report->Ops("serve.bulk", bulk.completed + bulk.failed, bulk.failed);
  report->Check(point.mismatches == 0 && bulk.mismatches == 0,
                "serve: every timed answer equals PortableRpcModel::Score");
  point_.Append(point.windows);
  bulk_rows_per_s_.insert(bulk_rows_per_s_.end(), bulk.rows_per_s.begin(),
                          bulk.rows_per_s.end());
}

void ServeStage::Finish(Report* report) {
  const RankingService& service = *in_->service;
  VerifyShards(service, *in_, "after", report);
  // Point figures pool every query of the run; bulk is the median query.
  const double point_qps = point_.Rate();
  report->Metric("point_qps", point_qps, "1/s");
  report->Metric("point_p50_us", point_.Latency(0.50), "us");
  report->Metric("point_p99_us", point_.Latency(0.99), "us");
  report->Metric("bulk_rows_per_s", Median(bulk_rows_per_s_), "rows/s");
  std::printf("# serve: point %d closed-loop callers, bulk batches of %d "
              "rows; point queries/s per window:",
              Callers(config_), in_->bulk.pool.rows());
  for (const std::int64_t count : point_.completed) {
    std::printf(" %.0f", count / point_.window_s);
  }
  std::printf("\n#   point p99 us per window:");
  for (std::vector<double> samples : point_.latency_us) {
    std::printf(" %.1f", Quantile(&samples, 0.99));
  }
  std::printf("\n");

  if (!config_.trace) return;

  rpc::obs::SetTracingEnabled(true);
  const auto traced_before = service.stats();
  const PointResult traced_point =
      RunPoint(service, *in_, Callers(config_), Budget(config_, kPointShare),
               DeriveSeed(config_.seed, 0), true);
  const BulkResult traced_bulk =
      RunBulk(service, in_->bulk, Budget(config_, kBulkShare), true);
  CheckNothingRefused(service, traced_before, report);
  report->Ops("serve.traced.point",
              traced_point.completed + traced_point.failed,
              traced_point.failed);
  report->Ops("serve.traced.bulk", traced_bulk.completed + traced_bulk.failed,
              traced_bulk.failed);
  report->Check(traced_point.mismatches == 0 && traced_bulk.mismatches == 0,
                "serve: every traced answer equals PortableRpcModel::Score");
  rpc::obs::SetTracingEnabled(false);

  std::vector<double> admission_us = traced_point.admission_us;
  std::vector<double> execution_us = traced_point.execution_us;
  std::vector<double> bulk_admission_us = traced_bulk.admission_us;
  report->Metric("obs.trace_overhead_pct",
                 (point_qps - traced_point.windows.Rate()) /
                     point_qps * 100.0,
                 "%");
  report->Metric("serve.admission_wait_p50_us",
                 Quantile(&admission_us, 0.50), "us");
  report->Metric("serve.admission_wait_p99_us",
                 Quantile(&admission_us, 0.99), "us");
  report->Metric("serve.execution_p50_us", Quantile(&execution_us, 0.50),
                 "us");
  report->Metric("serve.bulk_segments_per_query", Mean(traced_bulk.segments),
                 "count");
  report->Metric("serve.bulk_admission_wait_p50_us",
                 Quantile(&bulk_admission_us, 0.50), "us");

  // Inline reference: the same point traffic, executed on the caller.
  RankingService::Options inline_options;
  inline_options.num_threads = 1;
  RankingService inline_service(inline_options);
  for (const ServeShard* shard : {&in_->point[0], &in_->point[1]}) {
    report->Check(inline_service.RegisterDataset(shard->id, shard->model).ok(),
                  "serve: inline service registers " + shard->id);
  }
  const PointResult inline_point =
      RunPoint(inline_service, *in_, 1, Budget(config_, 0.1),
               DeriveSeed(config_.seed, 0), false);
  report->Ops("serve.inline", inline_point.completed + inline_point.failed,
              inline_point.failed);
  report->Check(inline_point.mismatches == 0,
                "serve: every inline answer equals PortableRpcModel::Score");
  const double inline_qps = inline_point.windows.Rate();
  report->Metric("serve.inline_point_qps", inline_qps, "1/s");
  report->Metric("serve.point_scaling", point_qps / inline_qps, "x");

  MeasureProbes(*in_, report);
}

}  // namespace perfbench
