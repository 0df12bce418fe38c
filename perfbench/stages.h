// The three stages every run executes — cold fit, serving, streaming with
// durability and replication — and the inputs each is set up with.
//
// A run interleaves the stages in rounds (fit, serve, stream; fit, serve,
// stream; ...) so that every stage samples the whole run: on a shared
// virtual machine, neighbours slow this one in episodes of seconds that
// halve serving throughput, and a stage measured in one stretch would
// inherit whichever episode it met.
#ifndef PERFBENCH_STAGES_H_
#define PERFBENCH_STAGES_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/model_io.h"
#include "core/rpc_learner.h"
#include "harness.h"
#include "linalg/matrix.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"
#include "stream/streaming_ranker.h"

namespace perfbench {

/// Rounds a run interleaves its stages in.
inline constexpr int kRounds = 8;

// ------------------------------------------------------------------ fit --

/// The first `count` rows of `rows`.
rpc::linalg::Matrix FirstRows(const rpc::linalg::Matrix& rows, int count);

/// n rows x d columns of latent-curve data (Eq. 11, noise 0.04): a fixed
/// strictly monotone generating curve per dimension, with every latent
/// position and noise value drawn from `seed`.
rpc::linalg::Matrix LatentSample(int d, int n, std::uint64_t seed);

/// Datasets are drawn on demand, each from its own derived seed, so the
/// stage never holds more than one dataset in memory.
struct FitInputs {
  rpc::order::Orientation alpha = rpc::order::Orientation::AllBenefit(1);
  std::vector<std::uint64_t> dataset_seeds;
  int rows = 0;
};

FitInputs MakeFitInputs(const Config& config);

/// Dataset i, min-max normalised into [0,1]^d.
rpc::linalg::Matrix MakeFitDataset(const FitInputs& inputs, int i);

class FitStage {
 public:
  FitStage(const Config& config, const FitInputs& inputs);

  /// Cold-fits this round's share of the datasets (dataset i runs in round
  /// i % kRounds) and checks every fit.
  void RunRound(int round, Report* report);
  /// Reports the stage's end-to-end metrics; under --trace 1 also runs the
  /// traced pass and the layer probes.
  void Finish(Report* report);

 private:
  const Config& config_;
  const FitInputs& inputs_;
  rpc::core::RpcLearnOptions options_;
  rpc::ThreadPool check_pool_;
  std::vector<double> seconds_;
  std::vector<int> iterations_;
  std::vector<double> explained_;
  std::optional<rpc::core::RpcFitResult> first_fit_;
};

// ---------------------------------------------------------------- serve --

struct ServeShard {
  std::string id;
  rpc::core::PortableRpcModel model;
  /// Query rows in raw data space: all of them for verification, and one
  /// 1 x d matrix per row for batch=1 traffic.
  rpc::linalg::Matrix pool;
  std::vector<rpc::linalg::Matrix> single_rows;
  /// model.Score of every pool row: what the service must return.
  std::vector<double> expected;
};

struct ServeInputs {
  ServeShard point[2];
  ServeShard bulk;
  /// The service under test, num_threads = Config::threads().
  std::unique_ptr<rpc::serve::RankingService> service;
};

std::unique_ptr<ServeInputs> MakeServeInputs(const Config& config,
                                             Report* report);

/// Per-window tallies of the timed point phase. The figures pool every
/// window; the per-window tallies go into the run's log.
struct Windows {
  std::vector<std::int64_t> completed;
  std::vector<std::vector<double>> latency_us;
  double window_s = 0.0;

  void Append(const Windows& other);
  /// Completed queries per second over every window.
  double Rate() const;
  /// Latency quantile q over every query; a failed query is an infinite
  /// latency.
  double Latency(double q) const;
};

class ServeStage {
 public:
  ServeStage(const Config& config, ServeInputs* inputs);

  /// A quarter of the point phase, then of the bulk phase.
  void RunRound(int round, Report* report);
  void Finish(Report* report);

 private:
  const Config& config_;
  ServeInputs* in_;
  Windows point_;
  std::vector<double> bulk_rows_per_s_;  // one per bulk query
};

// --------------------------------------------------------------- stream --

/// A started durable streaming ranker, serving through its own service, and
/// the fixed row sequence the stage appends. Destruction stops the ranker
/// and removes its directory.
struct StreamInputs {
  std::string dir;
  rpc::order::Orientation alpha = rpc::order::Orientation::AllBenefit(1);
  /// Every raw row the stage uses, in order: the initial rows first.
  rpc::linalg::Matrix rows;
  int next_row = 0;
  rpc::linalg::Matrix probe;
  rpc::stream::StreamingRankerOptions options;
  std::unique_ptr<rpc::serve::RankingService> service;
  std::unique_ptr<rpc::stream::StreamingRanker> ranker;

  StreamInputs() = default;
  StreamInputs(const StreamInputs&) = delete;
  StreamInputs& operator=(const StreamInputs&) = delete;
  ~StreamInputs();
};

inline constexpr const char* kStreamDataset = "stream";

/// Builds the ranker in `dir` (created fresh) and Start()s it on the
/// initial rows.
std::unique_ptr<StreamInputs> MakeStreamInputs(const Config& config,
                                               const std::string& dir,
                                               Report* report);

/// One read beside the ingest.
struct Read {
  double at_s;  // completion time, seconds since the ingest started
  double us;    // kFailedLatency for a failed read
  double admission_us;
};

/// Everything one stream pass measured.
struct StreamPass {
  double ingest_s = 0.0;
  std::vector<double> block_rows_per_s;
  std::vector<double> block_read_p99_us;
  std::vector<double> flush_s;
  std::vector<double> append_us;  // failed appends as kFailedLatency
  std::vector<Read> reads;
  std::int64_t refreshes = 0;
  double refresh_busy_s = 0.0;
  std::vector<double> refresh_s;
  std::vector<double> refit_s;
  std::vector<double> recover_s;
  std::vector<double> replay_per_s;
  std::vector<double> snapshot_load_s;
  std::vector<double> failover_s;
  std::vector<double> promote_s;
  std::vector<double> catchup_per_s;
};

class StreamStage {
 public:
  /// Round 0 runs on the set-up's ranker; later rounds start fresh ones.
  StreamStage(const Config& config, std::unique_ptr<StreamInputs> setup);

  /// One stream pass on its own ranker.
  void RunRound(int round, Report* report);
  void Finish(Report* report);

 private:
  const Config& config_;
  std::unique_ptr<StreamInputs> setup_;
  std::vector<StreamPass> passes_;
};

/// Recursively removes `dir`, ignoring errors.
void RemoveTree(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_STAGES_H_
