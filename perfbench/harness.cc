#include "harness.h"

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <numeric>

#include "obs/export.h"

namespace perfbench {
namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  rpc::obs::AppendJsonEscaped(&out, text);
  return out + "\"";
}

bool LookupRegime(const std::string& workload, bool tiny, Regime* regime) {
  Regime r;
  if (workload == "serial") {
    // A one-thread fit takes about four times as long.
    r.serial = true;
    r.fit_datasets = 12;
  } else if (workload != "paper") {
    return false;
  }
  if (tiny) {
    r.fit_rows = 2000;
    r.fit_datasets = 2;
    r.bulk_rows = 512;
    r.stream_initial_rows = 400;
    r.stream_appends = 300;
    r.refresh_every_rows = 100;
    r.forced_refreshes = 2;
    r.refresh_batch_rows = 20;
    r.recoveries = 2;
    r.failovers = 2;
    r.failover_lag_rows = 20;
  }
  *regime = r;
  return true;
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  failed_checks_.push_back(what);
}

std::string Report::DetailJson() const {
  std::string out = "{\"fingerprint\": {";
  bool first = true;
  for (const auto& [key, value] : info_) {
    out += (first ? "" : ", ") + JsonString(key) + ": " + value;
    first = false;
  }
  out += "}, \"ops\": {";
  first = true;
  for (const auto& [phase, counts] : ops_) {
    out += (first ? "" : ", ") + JsonString(phase) +
           ": {\"attempted\": " + std::to_string(counts.attempted) +
           ", \"failed\": " + std::to_string(counts.failed) + "}";
    first = false;
  }
  out += "}, \"checks\": " + std::to_string(checks_) +
         ", \"failed_checks\": [";
  for (size_t i = 0; i < failed_checks_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(failed_checks_[i]);
  }
  out += "], \"flags\": [";
  for (size_t i = 0; i < flags_.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(flags_[i]);
  }
  return out + "]}";
}

std::string Report::ResultJson() const {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  for (const auto& [phase, counts] : ops_) {
    attempted += counts.attempted;
    failed += counts.failed;
  }
  std::string out = std::string("{\"correct\": ") +
                    (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    out += (first ? "" : ", ") + JsonString(name) +
           ": {\"value\": " + Number(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  return out + "}}";
}

double Quantile(std::vector<double>* samples, double q) {
  if (samples->empty()) return std::nan("");
  std::sort(samples->begin(), samples->end());
  const double rank = std::ceil(q * static_cast<double>(samples->size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return (*samples)[std::min(index, samples->size() - 1)];
}

double Median(std::vector<double> samples) {
  return Quantile(&samples, 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::nan("");
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

namespace {

// The process's CPU set as the run started, before any pin.
const cpu_set_t& ProcessCpus() {
  static const cpu_set_t cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    ::sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  return cpus;
}

}  // namespace

void QuiesceDisk(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

void PinThisThread(int cpu) {
  const cpu_set_t& allowed = ProcessCpus();
  const int count = CPU_COUNT(&allowed);
  if (count <= 0) return;
  int wanted = cpu % count;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed) || wanted-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    ::pthread_setaffinity_np(::pthread_self(), sizeof(one), &one);
    return;
  }
}

void UnpinThisThread() {
  ::pthread_setaffinity_np(::pthread_self(), sizeof(cpu_set_t),
                           &ProcessCpus());
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t purpose) {
  // splitmix64 of the pair: nearby seeds and purposes give unrelated
  // streams.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + purpose;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
