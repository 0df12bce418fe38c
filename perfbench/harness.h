// Shared plumbing of the repository benchmark: run configuration, the
// per-run report (metrics, operation accounting, correctness checks), the
// workload regimes, latency percentiles and trace scopes.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Width of the fit and stream rows: the paper's d=4 latent-curve data.
inline constexpr int kDim = 4;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double SecondsSince(Clock::time_point from) {
  return Seconds(from, Clock::now());
}

/// What one workload runs. Every run executes the same three stages (cold
/// fit, serving, streaming with durability and replication) on inputs of
/// the same shapes; a regime fixes how many threads the fit and serve
/// stages use and how much work each stage does.
struct Regime {
  // Fit and serve on one thread instead of nproc: fits run their restarts
  // in turn, and the service runs every query inline on its caller.
  bool serial = false;
  // Fit stage: `fit_datasets` latent-curve datasets of fit_rows x kDim.
  int fit_rows = 100000;
  int fit_datasets = 32;
  // Serve stage: the bulk shard is fitted on bulk_rows rows, and each bulk
  // query scores as many.
  int bulk_rows = 4096;
  // Stream stage.
  int stream_initial_rows = 20000;
  // One stream pass (a run makes one per round).
  int stream_appends = 3000;
  int refresh_every_rows = 750;
  int forced_refreshes = 3;
  int refresh_batch_rows = 200;
  int recoveries = 2;
  int failovers = 2;
  int failover_lag_rows = 200;
};

/// The regime of a workload name; false when the name is unknown.
bool LookupRegime(const std::string& workload, bool tiny, Regime* regime);

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  /// Smoke-test scale: every stage runs at a tiny size.
  bool tiny = false;
  /// Scratch directory inside the checkout (durability dirs, trace dumps).
  std::string work_dir;
  std::string commit = "unknown";
  int nproc = 1;
  Regime regime;

  /// Threads of the fit stage's learner and of the serve stage's service.
  int threads() const { return regime.serial ? 1 : nproc; }
};

/// Metrics, operation accounting and correctness verdicts of one run.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  /// Adds `attempted` operations of `phase`, `failed` of which failed.
  void Ops(const std::string& phase, std::int64_t attempted,
           std::int64_t failed) {
    Counts& c = ops_[phase];
    c.attempted += attempted;
    c.failed += failed;
  }

  /// A correctness check; any failed check makes the run exit non-zero.
  void Check(bool ok, const std::string& what);
  bool correct() const { return failed_checks_.empty(); }

  /// A fingerprint field, already JSON-encoded.
  void Info(const std::string& key, const std::string& json_value) {
    info_[key] = json_value;
  }

  /// Human-readable warning carried into the detail line (e.g. a stage
  /// coverage below the "stages add up" threshold).
  void Flag(const std::string& text) { flags_.push_back(text); }

  /// The detail line: fingerprint, per-phase accounting, checks and flags.
  std::string DetailJson() const;
  /// The result line: verdict, operation totals and every metric measured
  /// (run.py keeps the ones BENCHMARK.json names for the run's mode).
  std::string ResultJson() const;

 private:
  struct Measured {
    double value;
    std::string unit;
  };
  struct Counts {
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
  };
  std::map<std::string, Measured> metrics_;
  std::map<std::string, Counts> ops_;
  std::map<std::string, std::string> info_;
  std::vector<std::string> failed_checks_;
  std::vector<std::string> flags_;
  int checks_ = 0;
};

/// `text` as a JSON string literal.
std::string JsonString(const std::string& text);

/// Nearest-rank quantile of `samples` (sorted in place); NaN when empty.
/// Failed operations are recorded as +infinity, so they count against
/// every latency limit.
double Quantile(std::vector<double>* samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// One span around a call into a layer, under a fresh trace id, when the
/// run is traced (`trace_id()` then also goes into the library's own
/// trace-context options); a no-op otherwise.
class TraceScope {
 public:
  TraceScope(bool traced, const char* name)
      : id_(traced ? rpc::obs::NewTraceId() : 0), span_(id_, name) {}
  rpc::obs::TraceId trace_id() const { return id_; }

 private:
  rpc::obs::TraceId id_;
  rpc::obs::Span span_;
};

/// Pins the calling thread to CPU `cpu % nproc`; load threads are pinned so
/// that run-to-run thread placement does not move the figures. Threads the
/// pinned thread creates inherit the pin, so the library's pools are always
/// created from an unpinned thread.
void PinThisThread(int cpu);
/// Lets the calling thread run on every CPU the process may use again.
void UnpinThisThread();

/// Commits everything the filesystem holding `dir` has pending, including
/// the discards of deleted files that a discard-mounted filesystem runs at
/// the next journal commit, so a timed phase never pays for an earlier
/// phase's writes or deletions.
void QuiesceDisk(const std::string& dir);

/// Deterministic per-purpose seeds derived from the run seed, so every
/// input of a run follows from --seed alone.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t purpose);

/// The seed the set-up data (the served shards' training rows and the
/// stream's initial rows) is drawn from instead of --seed: the set-up fits'
/// iteration counts follow their data, and drawn per run they spread set-up
/// time by a quarter. --seed draws everything the timed stages consume.
inline constexpr std::uint64_t kSetupSeed = 20160516;

/// Elapsed-time budget of one measured phase: `share` of --seconds.
inline double Budget(const Config& config, double share) {
  return config.seconds * share;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
