// Stream stage: one stream::StreamingRanker with durability on and serving
// attached — the only stage that exercises the stream, durable and replica
// layers, and it uses serve differently (copy-on-write swaps under
// readers). The ranker runs in its serial mode (num_threads = 1) so the
// work is identical in every run: with two workers the refresh count of
// one fixed ingest varied between 7 and 21.
//   ingest    a fixed row sequence appended under refit_on_row_delta, one
//             batch=1 reader querying throughout, ended by Flush (the
//             durable ack);
//   refresh   timed ForceRefresh() calls after fixed append batches;
//   recover   Recover() plus the first query on fresh copies of a crash
//             image (the live directory copied while the ranker runs);
//   failover  a standby caught up over the loopback link, left a fixed lag
//             behind, its feed killed, then Promote() plus the first query.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/rpc_learner.h"
#include "data/normalizer.h"
#include "durable/event_log.h"
#include "durable/snapshot.h"
#include "replica/replication.h"
#include "replica/transport.h"
#include "stages.h"

namespace perfbench {
namespace {

using rpc::linalg::Matrix;
using rpc::serve::RankingService;
using rpc::stream::StreamingRanker;
using rpc::stream::StreamingRankerOptions;

// Timed records of the durable sync probe.
constexpr int kSyncProbeRecords = 2000;

std::unique_ptr<RankingService> InlineService() {
  RankingService::Options options;
  options.num_threads = 1;
  return std::make_unique<RankingService>(options);
}

bool CopyTree(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive,
                        ec);
  return !ec;
}

// A copy of `from` made of hard links. Recovery only reads the files it
// finds and replaces files through rename, so every recovery gets a fresh
// directory without copying the image's data, or later deleting it (a
// discard per freed extent on a discard-mounted filesystem).
bool LinkTree(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive |
                            std::filesystem::copy_options::create_hard_links,
                        ec);
  return !ec;
}

// What a model scores for the probe rows.
std::vector<double> ModelScores(const rpc::core::PortableRpcModel& model,
                                const Matrix& probe) {
  std::vector<double> scores;
  for (int i = 0; i < probe.rows(); ++i) {
    const auto score = model.Score(probe.Row(i));
    scores.push_back(score.ok() ? *score : -1.0);
  }
  return scores;
}

bool SameScores(const rpc::Result<rpc::serve::RankedBatch>& served,
                const std::vector<double>& expected) {
  if (!served.ok() ||
      served->scores.size() != static_cast<int>(expected.size())) {
    return false;
  }
  for (int i = 0; i < served->scores.size(); ++i) {
    if (served->scores[i] != expected[static_cast<size_t>(i)]) return false;
  }
  return true;
}

// The service must serve exactly what the ranker's snapshot scores.
void CheckServedEqualsSnapshot(StreamInputs* in, const std::string& when,
                               Report* report) {
  const auto expected = ModelScores(in->ranker->snapshot().model, in->probe);
  const auto served = in->service->Query(kStreamDataset, in->probe);
  report->Ops("stream.verify", 1, served.ok() ? 0 : 1);
  report->Check(SameScores(served, expected),
                "stream: served scores equal snapshot scoring " + when);
}

// Appends one row, timing the call; failures count as missed latency.
void TimedAppend(StreamInputs* in, bool traced, std::vector<double>* us,
                 std::int64_t* failed) {
  TraceScope scope(traced, "stream.Append");
  const auto t0 = Clock::now();
  const auto id = in->ranker->Append(in->rows.Row(in->next_row++));
  const double elapsed = SecondsSince(t0) * 1e6;
  if (!id.ok()) ++*failed;
  if (us != nullptr) us->push_back(id.ok() ? elapsed : kFailedLatency);
}

// The ingest runs in blocks of refresh_every_rows appends, each ended by a
// Flush (the durable ack), so every block carries one policy refresh. The
// median of the blocks' reader p99 is the read latency, which keeps one
// stalled block from setting the run's figure.
void RunIngest(const Regime& regime, StreamInputs* in, bool traced,
               StreamPass* out, Report* report) {
  StreamingRanker& ranker = *in->ranker;
  const rpc::stream::StreamStats before = ranker.stats();
  const size_t history_before = ranker.RefreshSecondsHistory().size();
  QuiesceDisk(in->dir);

  // One reader sending batch=1 probe queries beside the writes and the
  // publishes they trigger.
  std::atomic<bool> reading{true};
  std::atomic<bool> reader_ready{false};
  std::int64_t read_failed = 0;
  const auto start = Clock::now();
  std::thread reader([&] {
    PinThisThread(1);
    std::vector<Matrix> singles;
    for (int i = 0; i < in->probe.rows(); ++i) {
      singles.emplace_back(1, in->probe.cols());
      singles.back().SetRow(0, in->probe.Row(i));
    }
    reader_ready.store(true);
    for (size_t q = 0; reading.load(std::memory_order_relaxed); ++q) {
      TraceScope scope(traced, "serve.Query.read");
      rpc::serve::QueryOptions options;
      options.trace_id = scope.trace_id();
      const auto t0 = Clock::now();
      const auto result = in->service->Query(
          kStreamDataset, singles[q % singles.size()], options);
      const auto t1 = Clock::now();
      if (!result.ok()) ++read_failed;
      out->reads.push_back(
          {Seconds(start, t1),
           result.ok() ? Seconds(t0, t1) * 1e6 : kFailedLatency,
           result.ok() ? result->trace.admission_wait.count() / 1e3 : 0.0});
    }
  });
  while (!reader_ready.load()) std::this_thread::yield();

  std::int64_t append_failed = 0;
  std::int64_t flush_failed = 0;
  const int block_rows = regime.refresh_every_rows;
  const int blocks = regime.stream_appends / block_rows;
  std::vector<double> block_ends_s;
  for (int b = 0; b < blocks; ++b) {
    const auto block_start = Clock::now();
    for (int a = 0; a < block_rows; ++a) {
      TimedAppend(in, traced, &out->append_us, &append_failed);
    }
    const auto flush_start = Clock::now();
    {
      TraceScope scope(traced, "stream.Flush");
      if (!ranker.Flush().ok()) ++flush_failed;
    }
    out->flush_s.push_back(SecondsSince(flush_start));
    out->block_rows_per_s.push_back(block_rows / SecondsSince(block_start));
    block_ends_s.push_back(SecondsSince(start));
  }
  out->ingest_s = SecondsSince(start);
  reading.store(false);
  reader.join();

  std::vector<std::vector<double>> block_reads(static_cast<size_t>(blocks));
  size_t b = 0;
  for (const Read& read : out->reads) {
    while (b < block_ends_s.size() && read.at_s > block_ends_s[b]) ++b;
    if (b < block_reads.size()) block_reads[b].push_back(read.us);
  }
  for (std::vector<double>& reads : block_reads) {
    if (!reads.empty()) {
      out->block_read_p99_us.push_back(Quantile(&reads, 0.99));
    }
  }

  const rpc::stream::StreamStats after = ranker.stats();
  out->refreshes = after.refreshes - before.refreshes;
  const std::vector<double> history = ranker.RefreshSecondsHistory();
  for (size_t i = history_before; i < history.size(); ++i) {
    out->refresh_busy_s += history[i];
  }
  const std::int64_t refresh_trouble =
      (after.skipped_refreshes - before.skipped_refreshes) +
      (after.failed_refreshes - before.failed_refreshes) +
      (after.publish_failures - before.publish_failures);
  report->Ops("stream.append", blocks * block_rows, append_failed);
  report->Ops("stream.flush", blocks, flush_failed);
  report->Ops("stream.read", static_cast<std::int64_t>(out->reads.size()),
              read_failed);
  report->Ops("stream.refresh", out->refreshes + refresh_trouble,
              refresh_trouble);
  report->Ops("stream.durable", after.wal_records - before.wal_records,
              after.durable_errors - before.durable_errors);
  report->Check(out->refreshes == blocks,
                "stream: one row-delta refresh published per block");
  CheckServedEqualsSnapshot(in, "after ingest", report);
}

// A warm Refit by hand on exactly the state ForceRefresh is about to
// refresh (all rows so far, the snapshot's live bounds, remapped control
// points and warm scores); returns its seconds and its control points.
double RefitByHand(StreamInputs* in, const StreamingRanker::Snapshot& state,
                   bool traced, Matrix* control, Report* report) {
  const auto normalizer =
      rpc::data::Normalizer::FromBounds(state.live_mins, state.live_maxs);
  if (!normalizer.ok()) {
    report->Check(false, "stream: live bounds form a normalizer");
    return 0.0;
  }
  const Matrix normalized =
      normalizer->Transform(FirstRows(in->rows, in->next_row));
  rpc::core::RpcWarmStartState seed;
  seed.control_points = rpc::stream::RemapControlPoints(
      state.model.control_points, state.model.mins, state.model.maxs,
      normalizer->mins(), normalizer->maxs());
  seed.scores = state.scores;
  TraceScope scope(traced, "core.RpcLearner.Refit");
  rpc::core::RpcLearnOptions options = in->ranker->warm_options();
  options.trace_id = scope.trace_id();
  const auto t0 = Clock::now();
  const auto refit = rpc::core::RpcLearner(options).Refit(
      normalized, in->alpha, seed);
  const double seconds = SecondsSince(t0);
  report->Check(refit.ok(), "stream: hand refit succeeds");
  if (refit.ok()) *control = refit->curve.control_points();
  return seconds;
}

void RunRefreshes(const Regime& regime, StreamInputs* in, bool traced,
                  StreamPass* out, Report* report) {
  StreamingRanker& ranker = *in->ranker;
  std::int64_t failed = 0;
  for (int f = 0; f < regime.forced_refreshes; ++f) {
    std::int64_t append_failed = 0;
    for (int a = 0; a < regime.refresh_batch_rows; ++a) {
      TimedAppend(in, false, nullptr, &append_failed);
    }
    report->Ops("stream.append", regime.refresh_batch_rows, append_failed);
    report->Check(ranker.Flush().ok(), "stream: flush before refresh");
    Matrix hand_control;
    out->refit_s.push_back(
        RefitByHand(in, ranker.snapshot(), traced, &hand_control, report));
    rpc::Status refreshed;
    const auto t0 = Clock::now();
    {
      TraceScope scope(traced, "stream.ForceRefresh");
      refreshed = ranker.ForceRefresh();
    }
    out->refresh_s.push_back(SecondsSince(t0));
    if (!refreshed.ok()) ++failed;
    CheckServedEqualsSnapshot(in, "after a forced refresh", report);
    report->Check(rpc::linalg::ApproxEqual(
                      hand_control, ranker.snapshot().model.control_points,
                      0.0),
                  "stream: a refresh equals Refit by hand on its state");
  }
  report->Ops("stream.force_refresh", regime.forced_refreshes, failed);
}

void RunRecoveries(const Regime& regime, StreamInputs* in, bool traced,
                   StreamPass* out, Report* report) {
  StreamingRanker& ranker = *in->ranker;
  report->Check(ranker.Flush().ok(), "stream: flush before the crash image");
  const std::string expected_model = ranker.snapshot().model.Serialize();
  const auto expected = ModelScores(ranker.snapshot().model, in->probe);
  // kill -9: freeze the directory while the ranker is still live.
  const std::string image = in->dir + "/crash-image";
  report->Check(CopyTree(in->options.durability.dir, image),
                "stream: crash image copied");
  // Every copy is made, and committed, before the first timed recovery, so
  // no recovery pays for another's copy or deletion.
  std::vector<std::string> copies;
  for (int m = 0; m < regime.recoveries; ++m) {
    copies.push_back(in->dir + "/recover-" + std::to_string(m));
    report->Check(LinkTree(image, copies.back()),
                  "stream: crash image linked");
  }
  std::vector<std::uint64_t> replayed;
  QuiesceDisk(in->dir);
  std::int64_t failed = 0;
  for (const std::string& copy : copies) {
    if (traced) {
      const auto t0 = Clock::now();
      const auto loaded = rpc::durable::LoadLatestSnapshot(copy);
      out->snapshot_load_s.push_back(SecondsSince(t0));
      report->Check(loaded.ok(), "stream: crash image holds a snapshot");
    }
    StreamingRankerOptions options = in->options;
    options.durability.dir = copy;
    auto service = InlineService();
    StreamingRanker recovered(service.get(), kStreamDataset, options);
    rpc::Status status;
    const auto t0 = Clock::now();
    {
      TraceScope scope(traced, "stream.Recover");
      status = recovered.Recover();
    }
    const double recover_only = SecondsSince(t0);
    const auto served = service->Query(kStreamDataset, in->probe);
    out->recover_s.push_back(SecondsSince(t0));
    if (!status.ok()) ++failed;
    replayed.push_back(recovered.recovery_info().replayed_records);
    out->replay_per_s.push_back(replayed.back() / recover_only);
    report->Check(status.ok() &&
                      recovered.snapshot().model.Serialize() ==
                          expected_model &&
                      SameScores(served, expected),
                  "stream: recovered model and probe scores equal the "
                  "pre-crash ranker's");
  }
  // A recovery that wrote into a linked file would change what the next
  // one replays.
  report->Check(replayed.empty() ||
                    std::count(replayed.begin(), replayed.end(),
                               replayed[0]) ==
                        static_cast<std::ptrdiff_t>(replayed.size()),
                "stream: every recovery of the image replays the same log");
  for (const std::string& copy : copies) RemoveTree(copy);
  RemoveTree(image);
  report->Ops("stream.recover", regime.recoveries, failed);
}

// One failover: a fresh standby catches up, is left `failover_lag_rows`
// behind, loses its feed and is promoted.
void RunFailover(const Regime& regime, StreamInputs* in, int m, bool traced,
                 StreamPass* out, Report* report) {
  StreamingRanker& primary = *in->ranker;
  const int d = in->rows.cols();
  const std::string standby_dir = in->dir + "/standby-" + std::to_string(m);
  QuiesceDisk(in->dir);
  std::int64_t failed = 0;

  rpc::replica::LinkPair pair = rpc::replica::MakeLoopbackPair();
  rpc::replica::ReplicationSourceOptions source_options;
  source_options.dir = in->options.durability.dir;
  source_options.d = d;
  rpc::replica::ReplicationSource source(
      pair.primary.get(), [&primary] { return primary.wal_synced_seq(); },
      source_options);
  // Closing the standby end closes the pair, which ends Serve().
  struct Feed {
    rpc::replica::LinkPair* pair;
    std::thread thread;
    void Kill() {
      pair->standby->Close();
      if (thread.joinable()) thread.join();
    }
    ~Feed() { Kill(); }
  } feed{&pair, std::thread([&source] { (void)source.Serve(); })};

  StreamingRankerOptions options = in->options;
  options.durability.dir = standby_dir;
  auto service = InlineService();
  StreamingRanker standby(service.get(), kStreamDataset, options);
  rpc::replica::ReplicaApplierOptions applier_options;
  applier_options.dir = standby_dir;
  applier_options.d = d;
  applier_options.retry.initial_backoff_seconds = 0.0005;
  applier_options.retry.max_backoff_seconds = 0.005;
  rpc::replica::ReplicaApplier applier(&standby, pair.standby.get(),
                                       applier_options);
  bool ok = applier.Init().ok();
  while (ok && !applier.has_state()) ok = applier.PumpOnce().ok();
  const std::uint64_t tip = primary.wal_synced_seq();
  const std::uint64_t base = applier.durable_seq();
  const auto catchup_start = Clock::now();
  if (ok) {
    TraceScope scope(traced, "replica.CatchUpTo");
    ok = applier.CatchUpTo(tip).ok();
  }
  const double catchup_s = SecondsSince(catchup_start);
  if (tip > base) out->catchup_per_s.push_back((tip - base) / catchup_s);
  if (!ok) ++failed;
  report->Check(ok && standby.snapshot().model.Serialize() ==
                          primary.snapshot().model.Serialize(),
                "stream: standby equals the primary at the acked offset");
  const auto expected = ModelScores(primary.snapshot().model, in->probe);

  // The primary runs ahead by a fixed lag, then its feed dies.
  std::int64_t append_failed = 0;
  for (int a = 0; a < regime.failover_lag_rows; ++a) {
    TimedAppend(in, false, nullptr, &append_failed);
  }
  report->Ops("stream.append", regime.failover_lag_rows, append_failed);
  report->Check(primary.Flush().ok(), "stream: primary flush before failover");
  feed.Kill();

  rpc::Status promoted;
  const auto t0 = Clock::now();
  {
    TraceScope scope(traced, "replica.Promote");
    promoted = applier.Promote();
  }
  out->promote_s.push_back(SecondsSince(t0));
  const auto served = service->Query(kStreamDataset, in->probe);
  out->failover_s.push_back(SecondsSince(t0));
  if (!promoted.ok()) ++failed;
  report->Check(promoted.ok() && SameScores(served, expected),
                "stream: promoted standby scores the probe like the primary "
                "at the acked offset");
  report->Ops("stream.failover", 1, failed);
  standby.Stop();
}

// The ranker runs serially on the calling thread, pinned beside its
// reader for the whole pass. Failover feeds only per-layer figures, so
// passes after the first skip it (`failovers` = 0).
void RunPass(const Config& config, StreamInputs* in, bool traced,
             int failovers, StreamPass* out, Report* report) {
  const Regime& regime = config.regime;
  PinThisThread(0);
  const auto t0 = Clock::now();
  RunIngest(regime, in, traced, out, report);
  const auto t1 = Clock::now();
  RunRefreshes(regime, in, traced, out, report);
  const auto t2 = Clock::now();
  RunRecoveries(regime, in, traced, out, report);
  const auto t3 = Clock::now();
  for (int m = 0; m < failovers; ++m) {
    RunFailover(regime, in, m, traced, out, report);
  }
  // Standby directories go only after the last timed promotion.
  for (int m = 0; m < failovers; ++m) {
    RemoveTree(in->dir + "/standby-" + std::to_string(m));
  }
  UnpinThisThread();
  std::printf("# stream phase wall seconds: ingest %.1f, refresh %.1f, "
              "recover %.1f, failover %.1f\n",
              Seconds(t0, t1), Seconds(t1, t2), Seconds(t2, t3),
              SecondsSince(t3));
}

// EventLog::Append + Sync of append-sized records, in the filesystem the
// ranker's log lives in.
void MeasureSync(const Config& config, const std::string& dir, int d,
                 Report* report) {
  RemoveTree(dir);
  std::filesystem::create_directories(dir);
  auto log = rpc::durable::EventLog::Open(dir, d, 1, {});
  report->Check(log.ok(), "stream: sync probe log opens");
  if (!log.ok()) return;
  const std::string payload(sizeof(std::int64_t) + sizeof(double) * d, 'x');
  std::vector<double> us;
  std::int64_t failed = 0;
  const int records = config.tiny ? 50 : kSyncProbeRecords;
  for (int i = 0; i < records; ++i) {
    const auto t0 = Clock::now();
    (*log)->Append(rpc::durable::RecordType::kAppend, payload);
    const bool ok = (*log)->Sync().ok();
    us.push_back(ok ? SecondsSince(t0) * 1e6 : kFailedLatency);
    if (!ok) ++failed;
  }
  report->Ops("durable.sync_probe", records, failed);
  report->Metric("durable.sync_p50_us", Quantile(&us, 0.50), "us");
  report->Metric("durable.sync_p99_us", Quantile(&us, 0.99), "us");
  log->reset();
  RemoveTree(dir);
}

}  // namespace

StreamInputs::~StreamInputs() {
  if (ranker != nullptr) ranker->Stop();
  ranker.reset();
  service.reset();
  RemoveTree(dir);
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::unique_ptr<StreamInputs> MakeStreamInputs(const Config& config,
                                               const std::string& dir,
                                               Report* report) {
  const Regime& regime = config.regime;
  const int d = kDim;
  auto in = std::make_unique<StreamInputs>();
  in->dir = dir;
  RemoveTree(dir);
  std::filesystem::create_directories(dir + "/primary");
  in->alpha = rpc::order::Orientation::AllBenefit(d);
  // The ranker starts on set-up rows; the rows it is fed come from the
  // run seed.
  const int initial = regime.stream_initial_rows;
  const int fed = regime.stream_appends +
                  regime.forced_refreshes * regime.refresh_batch_rows +
                  regime.failovers * regime.failover_lag_rows;
  const Matrix start_rows =
      LatentSample(d, initial, DeriveSeed(kSetupSeed, 21));
  const Matrix fed_rows = LatentSample(d, fed, DeriveSeed(config.seed, 21));
  in->rows = Matrix(initial + fed, d);
  for (int i = 0; i < initial; ++i) in->rows.SetRow(i, start_rows.Row(i));
  for (int i = 0; i < fed; ++i) in->rows.SetRow(initial + i, fed_rows.Row(i));
  in->probe = LatentSample(d, 256, DeriveSeed(config.seed, 22));
  StreamingRankerOptions& options = in->options;
  options.num_threads = 1;
  options.learner.num_threads = 1;
  // Refresh on the row delta only, so the refresh count of an ingest is a
  // function of its length.
  options.drift.refit_on_row_delta = regime.refresh_every_rows;
  options.drift.refit_on_normalizer_drift = 0.0;
  options.drift.refit_period_events = 0;
  options.durability.dir = dir + "/primary";
  // Keep every snapshot of a run: deleting one costs a synchronous discard
  // at the next journal commit on a discard-mounted filesystem (60-360 ms
  // per milestone on an ext4 virtual disk), which would make the ingest and
  // durable timings measure the disk's trim rather than the code. The
  // longer milestone cadence bounds the directory each crash image copies.
  options.durability.snapshot_every_events = 6000;
  options.durability.keep_snapshots = 64;
  in->service = InlineService();
  in->ranker = std::make_unique<StreamingRanker>(in->service.get(),
                                                 kStreamDataset, options);
  const rpc::Status started = in->ranker->Start(start_rows, in->alpha);
  in->next_row = initial;
  report->Ops("stream.start", 1, started.ok() ? 0 : 1);
  report->Check(started.ok(), "stream: ranker starts");
  return in;
}

StreamStage::StreamStage(const Config& config,
                         std::unique_ptr<StreamInputs> setup)
    : config_(config), setup_(std::move(setup)) {}

void StreamStage::RunRound(int round, Report* report) {
  std::unique_ptr<StreamInputs> in =
      round == 0 ? std::move(setup_)
                 : MakeStreamInputs(config_,
                                    config_.work_dir + "/stream-round-" +
                                        std::to_string(round),
                                    report);
  passes_.emplace_back();
  RunPass(config_, in.get(), false, round == 0 ? config_.regime.failovers : 0,
          &passes_.back(), report);
}

void StreamStage::Finish(Report* report) {
  // The ingest rate is every round's appends over the time from each
  // block's first Append to its acking Flush. Refresh and recovery are the
  // medians of every round's repetitions.
  std::vector<double> ingest, refresh, recover;
  double ingest_seconds = 0.0;
  for (const StreamPass& pass : passes_) {
    for (const double rate : pass.block_rows_per_s) {
      ingest_seconds += config_.regime.refresh_every_rows / rate;
    }
    ingest.insert(ingest.end(), pass.block_rows_per_s.begin(),
                  pass.block_rows_per_s.end());
    refresh.insert(refresh.end(), pass.refresh_s.begin(),
                   pass.refresh_s.end());
    recover.insert(recover.end(), pass.recover_s.begin(),
                   pass.recover_s.end());
  }
  const auto print = [](const char* label, const std::vector<double>& values,
                        double scale) {
    std::printf("#   %s:", label);
    for (const double v : values) std::printf(" %.4g", v * scale);
    std::printf("\n");
  };
  std::printf("# stream: %zu rounds of %d appends in %zu flushed blocks, "
              "%lld refreshes each:\n",
              passes_.size(), config_.regime.stream_appends,
              passes_[0].block_rows_per_s.size(),
              static_cast<long long>(passes_[0].refreshes));
  print("ingest rows/s per block", ingest, 1.0);
  print("refresh ms", refresh, 1e3);
  print("recover ms", recover, 1e3);
  report->Metric("ingest_rows_per_s",
                 static_cast<double>(ingest.size()) *
                     config_.regime.refresh_every_rows / ingest_seconds,
                 "rows/s");
  report->Metric("refresh_s", Median(refresh), "s");
  report->Metric("recover_s", Median(recover), "s");

  if (!config_.trace) return;

  // Traced pass: a fresh ranker fed the same rows, every call spanned.
  rpc::obs::SetTracingEnabled(true);
  StreamPass traced;
  {
    auto fresh = MakeStreamInputs(
        config_, config_.work_dir + "/stream-traced", report);
    RunPass(config_, fresh.get(), true, config_.regime.failovers, &traced,
            report);
  }
  rpc::obs::SetTracingEnabled(false);
  report->Check(traced.refreshes == passes_[0].refreshes,
                "stream: the refresh count repeats exactly");
  report->Metric("stream.append_p50_us", Quantile(&traced.append_us, 0.50),
                 "us");
  report->Metric("stream.append_p99_us", Quantile(&traced.append_us, 0.99),
                 "us");
  report->Metric("stream.flush_s", Median(traced.flush_s), "s");
  report->Metric("stream.refreshes", static_cast<double>(traced.refreshes),
                 "count");
  report->Metric("stream.refresh_share",
                 traced.refresh_busy_s / traced.ingest_s, "ratio");
  std::vector<double> admission_us;
  for (const Read& read : traced.reads) {
    admission_us.push_back(read.admission_us);
  }
  report->Metric("stream.read_admission_wait_p99_us",
                 Quantile(&admission_us, 0.99), "us");
  const double refit_s = Median(traced.refit_s);
  report->Metric("core.refit_s", refit_s, "s");
  report->Metric("stream.refresh_overhead_s",
                 Median(traced.refresh_s) - refit_s, "s");
  report->Metric("durable.snapshot_load_s", Median(traced.snapshot_load_s),
                 "s");
  report->Metric("durable.replay_records_per_s", Median(traced.replay_per_s),
                 "records/s");
  report->Metric("replica.catchup_records_per_s",
                 Median(traced.catchup_per_s), "records/s");
  report->Metric("replica.promote_s", Median(traced.promote_s), "s");
  // Reader p99 and failover time read as end-to-end figures, but on a
  // shared virtual disk their run-to-run spread (17-55%) exceeded any bound
  // the benchmark may set: failover is one synchronous discard when the
  // promotion replaces the epoch file, and the reader's p99 is a
  // microsecond tail.
  report->Metric("stream.read_p99_us", Median(traced.block_read_p99_us),
                 "us");
  report->Metric("replica.failover_s", Median(traced.failover_s), "s");
  MeasureSync(config_, config_.work_dir + "/sync-probe", kDim, report);
}

}  // namespace perfbench
