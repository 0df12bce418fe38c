// Serving-tier throughput: queries/s and rows/s of serve::RankingService
// across shard counts x batch sizes x d, for a single-thread service (the
// regression-gated configuration) and a full-pool service driven by
// concurrent callers.
//
// Before any timing, every (shards, d) configuration is verified: served
// scores must be bit-identical to PortableRpcModel::Score — the same
// normalise + project arithmetic RpcRanker runs in process — for every
// shard. Any mismatch fails the run.
//
//   build/bench_serving_throughput [--quick]
//
// Full runs rewrite BENCH_serving_throughput.json (one JSON row per grid
// cell, the committed perf record the CI regression gate compares against);
// --quick runs a key-identical subset with a shorter timing window and
// write BENCH_serving_throughput.quick.json instead, so CI smokes never
// clobber the curated baselines.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/model_io.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"

#include "bench_util.h"

namespace {

using rpc::Rng;
using rpc::linalg::Matrix;
using rpc::linalg::Vector;
using rpc::serve::RankingService;

// Synthetic all-benefit portable model over a random strictly monotone
// cubic — the serving tier never fits, so neither does its bench. Keep in
// sync with the copy in tests/serve/ranking_service_test.cc.
rpc::core::PortableRpcModel MonotoneModel(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix control(d, 4);
  for (int i = 0; i < d; ++i) {
    control(i, 0) = 0.0;
    control(i, 1) = rng.Uniform(0.1, 0.45);
    control(i, 2) = rng.Uniform(0.55, 0.9);
    control(i, 3) = 1.0;
  }
  rpc::core::PortableRpcModel model;
  model.alpha = rpc::order::Orientation::AllBenefit(d);
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

struct Measurement {
  double queries_per_sec = 0.0;
  double rows_per_sec = 0.0;
};

// `callers` threads issue synchronous queries round-robin over the shards
// until `min_seconds` of wall time has elapsed; returns aggregate rates.
Measurement MeasureThroughput(const RankingService& service, int shards,
                              const std::vector<Matrix>& batches,
                              int callers, double min_seconds) {
  // Warm-up: touch every shard once so workspaces/pages are resident.
  for (int s = 0; s < shards; ++s) {
    (void)service.Query("ds" + std::to_string(s),
                             batches[static_cast<size_t>(s)]);
  }
  std::atomic<std::int64_t> total_queries{0};
  std::atomic<std::int64_t> total_rows{0};
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  auto drive = [&](int caller) {
    std::int64_t queries = 0;
    std::int64_t rows = 0;
    // Each caller walks the shards from its own offset so shards stay
    // uniformly loaded for every caller count.
    for (int q = caller; elapsed() < min_seconds; ++q) {
      const int s = q % shards;
      const auto batch = service.Query("ds" + std::to_string(s),
                                            batches[static_cast<size_t>(s)]);
      if (!batch.ok()) continue;  // unreachable: ids are registered
      ++queries;
      rows += batch->scores.size();
    }
    total_queries += queries;
    total_rows += rows;
  };
  if (callers <= 1) {
    drive(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(callers));
    for (int c = 0; c < callers; ++c) threads.emplace_back(drive, c);
    for (auto& t : threads) t.join();
  }
  const double seconds = elapsed();
  Measurement m;
  m.queries_per_sec = static_cast<double>(total_queries.load()) / seconds;
  m.rows_per_sec = static_cast<double>(total_rows.load()) / seconds;
  return m;
}

void EmitJson(std::FILE* sink, int shards, int batch, int d, int threads,
              int callers, const Measurement& m) {
  const std::string line =
      std::string("{\"bench\":\"serving_throughput\",\"variant\":\"serve\"") +
      ",\"shards\":" + std::to_string(shards) +
      ",\"batch\":" + std::to_string(batch) + ",\"d\":" + std::to_string(d) +
      ",\"threads\":" + std::to_string(threads) +
      ",\"callers\":" + std::to_string(callers) +
      ",\"queries_per_sec\":" + std::to_string(m.queries_per_sec) +
      ",\"rows_per_sec\":" + std::to_string(m.rows_per_sec) + "}";
  std::printf("%s\n", line.c_str());
  if (sink != nullptr) std::fprintf(sink, "%s\n", line.c_str());
}

// Served scores must equal the portable model's own (RpcRanker-equivalent)
// scoring bit for bit on every shard; returns the number of mismatches.
int VerifyBitIdentity(const RankingService& service, int shards,
                      const std::vector<rpc::core::PortableRpcModel>& models,
                      const std::vector<Matrix>& batches) {
  int mismatches = 0;
  for (int s = 0; s < shards; ++s) {
    const Matrix& rows = batches[static_cast<size_t>(s)];
    const auto batch = service.Query("ds" + std::to_string(s), rows);
    if (!batch.ok()) {
      std::fprintf(stderr, "verify: query failed: %s\n",
                   batch.status().ToString().c_str());
      return rows.rows();
    }
    for (int i = 0; i < rows.rows(); ++i) {
      const auto expected =
          models[static_cast<size_t>(s)].Score(rows.Row(i));
      if (!expected.ok() || batch->scores[i] != *expected) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::vector<int> shard_counts =
      quick ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16};
  const std::vector<int> batch_sizes =
      quick ? std::vector<int>{1, 64} : std::vector<int>{1, 64, 1024};
  const std::vector<int> ds{2, 8};
  // Quick windows are still long enough for the regression gate to read a
  // stable single-thread number: 0.05 s windows wobbled past the gate's
  // 25% band on a busy machine, 0.15 s do not.
  const double min_seconds = quick ? 0.15 : 0.3;

  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int pool_threads = hw > 0 ? hw : 1;

  const char* sink_path = quick ? "BENCH_serving_throughput.quick.json"
                                : "BENCH_serving_throughput.json";
  std::FILE* sink = std::fopen(sink_path, "w");
  std::printf("# serving throughput (Newton, grid=32); %d hardware thread(s); "
              "JSON also in %s\n",
              pool_threads, sink_path);

  int verify_failures = 0;
  for (int d : ds) {
    for (int shards : shard_counts) {
      // Per-shard models and a dedicated query batch of the largest size;
      // smaller batches reuse a row prefix via sub-matrices below.
      std::vector<rpc::core::PortableRpcModel> models;
      std::vector<Matrix> full_batches;
      for (int s = 0; s < shards; ++s) {
        models.push_back(MonotoneModel(
            d, 1000 + static_cast<uint64_t>(100 * d + s)));
        full_batches.push_back(RandomRows(
            batch_sizes.back(), d, 2000 + static_cast<uint64_t>(10 * d + s)));
      }

      // threads=1 service: the stable, machine-comparable row the CI
      // regression gate checks; threads=pool with concurrent callers shows
      // the scaling headroom.
      struct Mode {
        int threads;
        int callers;
      };
      std::vector<Mode> modes{{1, 1}};
      if (pool_threads > 1) modes.push_back({0, pool_threads});

      for (const Mode mode : modes) {
        RankingService::Options options;
        options.num_threads = mode.threads;
        RankingService service(options);
        for (int s = 0; s < shards; ++s) {
          const rpc::Status registered = service.RegisterDataset(
              "ds" + std::to_string(s), models[static_cast<size_t>(s)]);
          if (!registered.ok()) {
            std::fprintf(stderr, "register failed: %s\n",
                         registered.ToString().c_str());
            return 1;
          }
        }
        const int mismatches =
            VerifyBitIdentity(service, shards, models, full_batches);
        if (mismatches != 0) {
          std::fprintf(stderr,
                       "verify: %d served scores differ from in-process "
                       "scoring (shards=%d d=%d threads=%d)\n",
                       mismatches, shards, d, mode.threads);
          ++verify_failures;
          continue;
        }
        for (int batch : batch_sizes) {
          std::vector<Matrix> batches;
          for (int s = 0; s < shards; ++s) {
            Matrix sub(batch, d);
            for (int i = 0; i < batch; ++i) {
              for (int j = 0; j < d; ++j) {
                sub(i, j) = full_batches[static_cast<size_t>(s)](i, j);
              }
            }
            batches.push_back(std::move(sub));
          }
          const Measurement m = MeasureThroughput(
              service, shards, batches,
              mode.callers, min_seconds);
          EmitJson(sink, shards, batch, d,
                   mode.threads == 0 ? pool_threads : mode.threads,
                   mode.callers, m);
        }
      }
    }
  }
  if (sink != nullptr) std::fclose(sink);
  rpc::bench::WriteTelemetrySnapshot(sink_path);
  return verify_failures == 0 ? 0 : 1;
}
