// The caller path of serve::RankingService: a query whose caller finds the
// admission queue empty runs its segment 0 on its own thread, and falls back
// to the queue when segments are already waiting ("queue_busy") or every
// workspace of the shard is checked out ("no_workspace"). Whichever thread
// runs a segment, the scores are bit-identical to PortableRpcModel::Score.
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/model_io.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"

namespace rpc::serve {
namespace {

using linalg::Matrix;
using linalg::Vector;

// The synthetic monotone model family of ranking_service_test.cc: no
// fitting, so the tests spend their time on the serving path.
core::PortableRpcModel MonotoneModel(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix control(d, 4);
  for (int i = 0; i < d; ++i) {
    control(i, 0) = 0.0;
    control(i, 1) = rng.Uniform(0.1, 0.45);
    control(i, 2) = rng.Uniform(0.55, 0.9);
    control(i, 3) = 1.0;
  }
  core::PortableRpcModel model;
  model.alpha = order::Orientation::AllBenefit(d);
  model.mins = Vector(d, 0.0);
  model.maxs = Vector(d, 1.0);
  model.control_points = control;
  return model;
}

Matrix RandomRows(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) rows(i, j) = rng.Uniform(-0.1, 1.1);
  }
  return rows;
}

std::vector<double> ExpectedScores(const core::PortableRpcModel& model,
                                   const Matrix& rows) {
  std::vector<double> expected;
  for (int i = 0; i < rows.rows(); ++i) {
    const auto score = model.Score(rows.Row(i));
    EXPECT_TRUE(score.ok());
    expected.push_back(score.ok() ? *score : 0.0);
  }
  return expected;
}

Matrix OneRow(const Matrix& rows, int i) {
  Matrix one(1, rows.cols());
  for (int j = 0; j < rows.cols(); ++j) one(0, j) = rows(i, j);
  return one;
}

// (a) On an idle service the caller runs the query's first segment itself:
// a 1-row query never enters the queue, and a 4-segment query queues only
// segments 1..3 (three workers hold at most three of the four workspaces,
// so the caller always finds one free).
TEST(CallerRunsTest, IdleServiceRunsSegmentZeroOnTheCaller) {
  RankingService::Options options;
  options.num_threads = 4;
  options.segment_rows = 16;
  RankingService service(options);
  const core::PortableRpcModel model = MonotoneModel(3, 1);
  ASSERT_TRUE(service.RegisterDataset("d", model).ok());
  const Matrix rows = RandomRows(64, 3, 2);
  const std::vector<double> expected = ExpectedScores(model, rows);

  const ServiceStats before = service.stats();
  const auto one = service.Query("d", OneRow(rows, 5));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->scores[0], expected[5]);
  ServiceStats after = service.stats();
  EXPECT_EQ(after.caller_segments - before.caller_segments, 1);
  EXPECT_EQ(after.segments - before.segments, 1);
  EXPECT_EQ(after.peak_queue_depth, 0);  // nothing was ever queued

  const auto bulk = service.Query("d", rows);
  ASSERT_TRUE(bulk.ok());
  EXPECT_EQ(bulk->trace.segments, 4);
  for (int i = 0; i < rows.rows(); ++i) {
    EXPECT_EQ(bulk->scores[i], expected[static_cast<size_t>(i)]) << i;
  }
  const ServiceStats last = service.stats();
  EXPECT_EQ(last.caller_segments - after.caller_segments, 1);
  EXPECT_EQ(last.segments - after.segments, 4);
  EXPECT_EQ(last.caller_fallback_queue_busy, 0);
  EXPECT_EQ(last.caller_fallback_no_workspace, 0);
}

// (b) One workspace per shard and eight callers: callers routinely find the
// workspace taken and queue their segment instead of waiting for it. Every
// answer is still complete and bit-identical, whichever thread ran it.
TEST(CallerRunsTest, CallersWithoutAWorkspaceQueueTheirSegment) {
  RankingService::Options options;
  options.num_threads = 4;
  options.workspaces_per_shard = 1;
  options.segment_rows = 16;  // the 64-row query has 4 segments
  RankingService service(options);
  const core::PortableRpcModel model = MonotoneModel(4, 3);
  ASSERT_TRUE(service.RegisterDataset("d", model).ok());
  const Matrix rows = RandomRows(64, 4, 4);
  const std::vector<double> expected = ExpectedScores(model, rows);

  constexpr int kCallers = 8;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  for (int round = 0;
       round < 50 && service.stats().caller_fallback_no_workspace == 0;
       ++round) {
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (int q = 0; q < 50; ++q) {
          if (c == 0) {
            const auto batch = service.Query("d", rows);
            if (!batch.ok()) {
              ++failures;
              continue;
            }
            for (int i = 0; i < rows.rows(); ++i) {
              if (batch->scores[i] != expected[static_cast<size_t>(i)]) {
                ++mismatches;
              }
            }
          } else {
            const int i = (c * 50 + q) % rows.rows();
            const auto batch = service.Query("d", OneRow(rows, i));
            if (!batch.ok()) {
              ++failures;
            } else if (batch->scores[0] != expected[static_cast<size_t>(i)]) {
              ++mismatches;
            }
          }
        }
      });
    }
    for (std::thread& t : callers) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.caller_fallback_no_workspace, 1);
  EXPECT_GE(stats.caller_segments, 1);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.latency.total(), stats.queries);
}

// (c) While another caller's one-row-per-segment query keeps the queue
// non-empty, a new query must not overtake the waiting segments: it takes
// the queue path, counted as the "queue_busy" fallback, and still answers.
TEST(CallerRunsTest, BusyQueueSendsTheQueryThroughTheQueue) {
  RankingService::Options options;
  options.num_threads = 2;
  options.queue_capacity = 4;
  options.segment_rows = 1;
  RankingService service(options);
  const core::PortableRpcModel model = MonotoneModel(2, 5);
  ASSERT_TRUE(service.RegisterDataset("d", model).ok());
  const Matrix big = RandomRows(20000, 2, 6);
  const Matrix probe = RandomRows(1, 2, 7);
  const double expected = ExpectedScores(model, probe)[0];

  QueryOptions interactive;
  interactive.priority = QueryPriority::kInteractive;
  int answered = 0;
  for (int round = 0;
       round < 20 && service.stats().caller_fallback_queue_busy == 0;
       ++round) {
    std::atomic<bool> saturator_done{false};
    std::thread saturator([&] {
      QueryOptions batch_opts;
      batch_opts.priority = QueryPriority::kBatch;
      EXPECT_TRUE(service.Query("d", big, batch_opts).ok());
      saturator_done = true;
    });
    while (!saturator_done.load() &&
           service.stats().caller_fallback_queue_busy == 0) {
      const auto batch = service.Query("d", probe, interactive);
      ASSERT_TRUE(batch.ok());
      EXPECT_EQ(batch->scores[0], expected);
      ++answered;
    }
    saturator.join();
  }
  EXPECT_GE(answered, 1);
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.caller_fallback_queue_busy, 1);
  EXPECT_EQ(stats.shed_by_priority[static_cast<size_t>(
                QueryPriority::kInteractive)],
            0);
}

}  // namespace
}  // namespace rpc::serve
