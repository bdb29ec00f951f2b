#ifndef OE_BENCH_BENCH_UTIL_H_
#define OE_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "net/transport.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/training_sim.h"

namespace oe::bench {

/// Scaled-down stand-in for the paper's production workload (Section III):
/// 2.1 B entries / 500 GB model / 2 GB DRAM cache scale down to 3 M entries
/// / ~900 MB / 8 MB cache — the cache:model ratio and the Table II access
/// skew are preserved, so hit rates and pipeline-overlap ratios match the
/// paper's regime (miss rate ~13.6% at the default cache, as in Fig. 11).
inline sim::SimOptions ProductionSim() {
  sim::SimOptions options;
  options.num_keys = 3ULL << 20;
  options.keys_per_worker_batch = 4096;
  options.rounds = 10;
  options.num_nodes = 2;
  options.store.dim = 64;
  options.store.cache_bytes = 8ULL << 20;
  options.store.pmem_hash_buckets = 1 << 20;
  options.pmem_bytes_per_node = 2ULL << 30;
  options.log_bytes_per_node = 1ULL << 30;
  return options;
}

/// OE_BENCH_FAST=1 shrinks every simulation for smoke runs.
inline bool FastMode() {
  const char* fast = std::getenv("OE_BENCH_FAST");
  return fast != nullptr && fast[0] == '1';
}

inline void ApplyFastMode(sim::SimOptions* options) {
  if (!FastMode()) return;
  options->num_keys = 256 << 10;
  options->rounds = 4;
  options->store.cache_bytes = 1 << 20;
}

/// Simulated epoch time normalized to a fixed number of worker-batches:
/// epoch(W GPUs) = avg-round-time * (kWorkerBatchesPerEpoch / W).
inline constexpr double kWorkerBatchesPerEpoch = 4800.0;

inline double EpochSeconds(const sim::EpochReport& report, int num_gpus) {
  const double avg_round = static_cast<double>(report.epoch_ns) /
                           static_cast<double>(report.rounds);
  return avg_round * (kWorkerBatchesPerEpoch / num_gpus) / 1e9;
}

inline void PrintHeader(const std::string& experiment,
                        const std::string& paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper: %s\n", paper_claim.c_str());
  std::printf("==============================================================\n");
}

inline void PrintRow(const std::string& label, double paper,
                     double measured) {
  std::printf("  %-38s paper=%8.3f  measured=%8.3f\n", label.c_str(), paper,
              measured);
}

/// One-line failure-path summary of a transport's counters (requests plus
/// the retry-policy counters maintained by Transport::Call). Benches that
/// run lossy schedules print this so retry amplification is visible next to
/// the timing numbers.
inline void PrintNetStats(const net::NetStats& stats) {
  const uint64_t requests = stats.requests.load();
  const uint64_t retries = stats.retries.load();
  std::printf("  net: %llu requests, %llu failed, %llu retries "
              "(%.3f/request), %llu timeouts\n",
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(stats.failed_requests.load()),
              static_cast<unsigned long long>(retries),
              requests > 0
                  ? static_cast<double>(retries) / static_cast<double>(requests)
                  : 0.0,
              static_cast<unsigned long long>(stats.timeouts.load()));
}

/// Machine-readable bench output. Construct first thing in main():
///
///   int main(int argc, char** argv) {
///     oe::bench::BenchReport report("bench_fig6_overall", &argc, argv);
///     ...
///     report.AddMetric("epoch_s", epoch_s);
///   }
///
/// `--json out.json` (or `--json=out.json`) writes one
///   {"bench", "config", "metrics", "wall_ms", "registry"}
/// record when the report goes out of scope — `registry` is the full
/// MetricsRegistry snapshot, so every instrumented latency distribution
/// rides along. --json also enables span tracing and writes the Chrome
/// trace_event timeline to out.trace.json (override with --trace path);
/// load it in Perfetto / chrome://tracing. Both flags are stripped from
/// argc/argv so benches that parse their own arguments (and
/// benchmark::Initialize) never see them. Without --json/--trace the
/// report is inert and the bench behaves exactly as before.
class BenchReport {
 public:
  BenchReport(std::string bench, int* argc, char** argv)
      : bench_(std::move(bench)), start_ns_(WallNowNanos()) {
    json_path_ = TakeFlag("--json", argc, argv);
    trace_path_ = TakeFlag("--trace", argc, argv);
    if (trace_path_.empty() && !json_path_.empty()) {
      trace_path_ = DeriveTracePath(json_path_);
    }
    if (!trace_path_.empty()) {
      obs::TraceRecorder::Default().set_enabled(true);
    }
    // Host facts, so a record says what produced it.
    AddConfig("host.nproc",
              static_cast<double>(std::thread::hardware_concurrency()));
    AddConfig("compiler", std::string(__VERSION__));
#ifdef NDEBUG
    AddConfig("build_type", std::string("release"));
#else
    AddConfig("build_type", std::string("debug"));
#endif
    AddConfig("fast_mode", FastMode() ? 1.0 : 0.0);
  }

  ~BenchReport() { Finish(); }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  bool json_enabled() const { return !json_path_.empty(); }

  void AddConfig(const std::string& key, double value) {
    config_.emplace_back(key, NumberJson(value));
  }
  void AddConfig(const std::string& key, const std::string& value) {
    // Built with append rather than operator+ chaining: GCC 12's inliner
    // flags the temporary chain with a spurious -Wrestrict.
    std::string quoted;
    quoted.reserve(value.size() + 2);
    quoted += '"';
    quoted += obs::JsonWriter::Escape(value);
    quoted += '"';
    config_.emplace_back(key, std::move(quoted));
  }
  void AddMetric(const std::string& key, double value) {
    metrics_.emplace_back(key, NumberJson(value));
  }

  /// Folds a transport's counters into the metrics map (net.requests, ...).
  void AddNetStats(const net::NetStats& stats) {
    const net::NetStats::Snapshot snap = stats.TakeSnapshot();
    AddMetric("net.requests", static_cast<double>(snap.requests));
    AddMetric("net.bytes_sent", static_cast<double>(snap.bytes_sent));
    AddMetric("net.bytes_received", static_cast<double>(snap.bytes_received));
    AddMetric("net.failed_requests",
              static_cast<double>(snap.failed_requests));
    AddMetric("net.retries", static_cast<double>(snap.retries));
    AddMetric("net.timeouts", static_cast<double>(snap.timeouts));
  }

  /// Writes the JSON record and trace file; idempotent (the destructor
  /// calls it too).
  void Finish() {
    if (finished_) return;
    finished_ = true;
    const double wall_ms =
        static_cast<double>(WallNowNanos() - start_ns_) / 1e6;
    if (!trace_path_.empty()) {
      obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
      recorder.set_enabled(false);
      const Status status = recorder.WriteChromeJson(trace_path_);
      if (!status.ok()) {
        std::fprintf(stderr, "bench trace: %s\n", status.ToString().c_str());
      }
    }
    if (json_path_.empty()) return;
    obs::JsonWriter json;
    json.BeginObject();
    json.Key("bench").String(bench_);
    json.Key("config").BeginObject();
    for (const auto& [key, value] : config_) json.Key(key).Raw(value);
    json.EndObject();
    json.Key("metrics").BeginObject();
    for (const auto& [key, value] : metrics_) json.Key(key).Raw(value);
    json.EndObject();
    json.Key("wall_ms").Double(wall_ms);
    json.Key("registry")
        .Raw(obs::MetricsRegistry::Default().SnapshotJson());
    json.EndObject();
    const std::string body = json.Take();
    std::FILE* file = std::fopen(json_path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "bench json: cannot open %s\n",
                   json_path_.c_str());
      return;
    }
    std::fwrite(body.data(), 1, body.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
  }

 private:
  /// Removes `--flag value` / `--flag=value` from argv and returns the
  /// value ("" if absent). argv stays null-terminated for
  /// benchmark::Initialize-style consumers.
  static std::string TakeFlag(const char* flag, int* argc, char** argv) {
    const size_t flag_len = std::strlen(flag);
    std::string value;
    int out = 1;
    for (int i = 1; i < *argc; ++i) {
      if (std::strcmp(argv[i], flag) == 0 && i + 1 < *argc) {
        value = argv[++i];
        continue;
      }
      if (std::strncmp(argv[i], flag, flag_len) == 0 &&
          argv[i][flag_len] == '=') {
        value = argv[i] + flag_len + 1;
        continue;
      }
      argv[out++] = argv[i];
    }
    *argc = out;
    argv[out] = nullptr;
    return value;
  }

  static std::string NumberJson(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
  }

  static std::string DeriveTracePath(const std::string& json_path) {
    const std::string suffix = ".json";
    if (json_path.size() > suffix.size() &&
        json_path.compare(json_path.size() - suffix.size(), suffix.size(),
                          suffix) == 0) {
      return json_path.substr(0, json_path.size() - suffix.size()) +
             ".trace.json";
    }
    return json_path + ".trace.json";
  }

  std::string bench_;
  Nanos start_ns_;
  std::string json_path_;
  std::string trace_path_;
  bool finished_ = false;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, std::string>> metrics_;
};

}  // namespace oe::bench

#endif  // OE_BENCH_BENCH_UTIL_H_
