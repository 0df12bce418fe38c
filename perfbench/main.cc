// perfbench: the repository benchmark binary. One run sets the system up
// (five times; the median is setup_s), then interleaves the fit, serve
// and stream stages in rounds on the inputs of one workload regime, checks
// their outputs, and prints a fingerprint/accounting line and a result
// line. run.py builds it and selects the metrics BENCHMARK.json names.
//
//   perfbench --workload paper|serial --seed N --seconds S --trace 0|1
//             --work-dir DIR [--commit ID] [--tiny]
#include <sys/statfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "curve/simd_backend.h"
#include "harness.h"
#include "obs/export.h"
#include "stages.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetups = 5;
// statfs f_type of tmpfs.
constexpr long kTmpfsMagic = 0x01021994;

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void Fingerprint(const Config& config, Report* report) {
  struct statfs fs {};
  const bool tmpfs = ::statfs(config.work_dir.c_str(), &fs) == 0 &&
                     static_cast<long>(fs.f_type) == kTmpfsMagic;
  report->Info("cpu_model", JsonString(CpuModel()));
  report->Info("nproc", std::to_string(config.nproc));
  report->Info("simd_backend", JsonString(rpc::curve::BackendName()));
  report->Info("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  report->Info("wal_on_tmpfs", tmpfs ? "true" : "false");
  report->Info("seed", std::to_string(config.seed));
  report->Info("commit", JsonString(config.commit));
  report->Info("workload", JsonString(config.workload));
  report->Info("seconds", std::to_string(config.seconds));
  report->Info("tiny", config.tiny ? "true" : "false");
}

bool ParseArgs(int argc, char** argv, Config* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      config->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config->workload = value;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      config->trace = value == "1";
    } else if (flag == "--work-dir") {
      config->work_dir = value;
    } else if (flag == "--commit") {
      config->commit = value;
    } else {
      return false;
    }
  }
  return !config->work_dir.empty() &&
         LookupRegime(config->workload, config->tiny, &config->regime);
}

// The spans of the traced passes plus the registry, as obs exports them.
void WriteTrace(const Config& config) {
  const std::string path = config.work_dir + "/trace-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".json";
  std::ofstream out(path);
  out << rpc::obs::JsonSnapshot() << "\n";
  std::printf("# trace: %s\n", path.c_str());
}

int Run(const Config& config) {
  Report report;
  Fingerprint(config, &report);

  // Set-up runs several times; the last one's inputs are measured. Each
  // attempt tears the previous one down first.
  const auto setup_start = Clock::now();
  std::vector<double> setup_seconds;
  FitInputs fit;
  std::unique_ptr<ServeInputs> serve;
  std::unique_ptr<StreamInputs> stream;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    stream.reset();
    serve.reset();
    QuiesceDisk(config.work_dir);
    const auto t0 = Clock::now();
    fit = MakeFitInputs(config);
    serve = MakeServeInputs(config, &report);
    stream = MakeStreamInputs(
        config, config.work_dir + "/stream-" + std::to_string(attempt),
        &report);
    setup_seconds.push_back(SecondsSince(t0));
  }
  report.Metric("setup_s", Median(setup_seconds), "s");

  // The stages interleave in rounds; see stages.h.
  const auto rounds_start = Clock::now();
  FitStage fit_stage(config, fit);
  ServeStage serve_stage(config, serve.get());
  StreamStage stream_stage(config, std::move(stream));
  for (int round = 0; round < kRounds; ++round) {
    fit_stage.RunRound(round, &report);
    serve_stage.RunRound(round, &report);
    stream_stage.RunRound(round, &report);
  }
  const auto finish_start = Clock::now();
  fit_stage.Finish(&report);
  serve_stage.Finish(&report);
  stream_stage.Finish(&report);
  const auto finish_end = Clock::now();
  serve.reset();
  std::printf("# wall seconds: set-up %.1f, rounds %.1f, finish %.1f, "
              "teardown %.1f\n",
              Seconds(setup_start, rounds_start),
              Seconds(rounds_start, finish_start),
              Seconds(finish_start, finish_end), SecondsSince(finish_end));

  if (config.trace) WriteTrace(config);
  std::printf("%s\n%s\n", report.DetailJson().c_str(),
              report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config config;
  if (!perfbench::ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper|serial --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--commit ID] "
                 "[--tiny]\n");
    return 2;
  }
  config.nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  perfbench::UnpinThisThread();  // records the process CPU set
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  // End-to-end passes run with tracing off; traced passes switch it on.
  rpc::obs::SetTracingEnabled(false);
  return perfbench::Run(config);
}
