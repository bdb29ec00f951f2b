// Shared pieces of the perfbench driver: run options, sample sets with
// percentiles, registry deltas merged by metric name, bench-side spans and
// the report the driver prints.
//
// Everything here is wall-clock and measured from outside the program: the
// driver times calls into public entry points and reads the distributions
// the program already exports in obs::MetricsRegistry. Nothing under src/
// is instrumented for the benchmark.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace pb {

// The driver is a client of the whole oe:: API; name it unqualified.
using namespace oe;  // NOLINT(build/namespaces)

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where traced runs write their sampled Chrome trace (inside the
  /// checkout, never outside it).
  std::string out_dir = ".bench_out";
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A set of raw samples; percentiles by linear interpolation between the
/// closest ranks.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  size_t size() const { return values_.size(); }
  double Percentile(double p) const;
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

double Median(std::vector<double> values);

/// num / den, or 0 when den is 0 (a layer the workload did not exercise).
inline double Ratio(double num, double den) {
  return den > 0 ? num / den : 0.0;
}

/// `values` as one space-separated string (for the report's config).
std::string Join(const std::vector<double>& values);

/// The highest percentile with at least ten samples beyond it, for a
/// sample of `expected` values (rounded down to 0.01).
double TailPercentile(double expected);

/// What a registry distribution family (every label set of one metric
/// name, optionally filtered by a label subset) recorded between two
/// registry snapshots, merged into one histogram.
obs::DistributionSnapshot DistributionDelta(const obs::MetricsSnapshot& before,
                                            const obs::MetricsSnapshot& after,
                                            std::string_view name,
                                            const obs::Labels& labels = {});

/// Bench-side spans around calls into the program's layers. Spans go to a
/// recorder of the driver's own (the program's default recorder stays off),
/// only while tracing is on, and only for sampled operations, so trace
/// volume stays bounded by the per-thread ring size.
class Spans {
 public:
  static constexpr size_t kEventsPerThread = 1 << 14;
  static constexpr uint64_t kSampleEvery = 8;

  Spans() : recorder_(kEventsPerThread) {}

  void set_enabled(bool enabled) { recorder_.set_enabled(enabled); }
  bool enabled() const { return recorder_.enabled(); }
  /// True when operation number `op` should record its spans.
  bool Sampled(uint64_t op) const {
    return enabled() && op % kSampleEvery == 0;
  }
  void Record(const char* layer, const char* name, int64_t start_ns,
              int64_t end_ns) {
    recorder_.RecordSpan(layer, name, start_ns, end_ns - start_ns);
  }
  void NameThread(const std::string& name) { recorder_.SetThreadName(name); }
  /// Writes the sampled spans as Chrome trace JSON; returns false on error.
  bool Write(const std::string& path);

 private:
  obs::TraceRecorder recorder_;
};

/// The driver's report: run configuration, output-check results, and the
/// end-to-end and per-layer metrics, printed as one JSON object.
class Report {
 public:
  void Config(const std::string& key, const std::string& value);
  void Config(const std::string& key, double value);
  void EndToEnd(const std::string& name, double value, const char* unit) {
    end_to_end_[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer_[name] = {value, unit};
  }
  /// Adds "<name>.p50" and "<name>.p99" of `samples`.
  void LayerPercentiles(const std::string& name, const Samples& samples,
                        const char* unit);
  /// Adds "<name>.p50" and "<name>.p99" of a nanosecond distribution, in us.
  void LayerPercentilesUs(const std::string& name,
                          const obs::DistributionSnapshot& ns);
  /// Records an output-check failure; any failure makes the run incorrect.
  void Fail(const std::string& what);
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return errors_.empty(); }

  std::string ToJson() const;

 private:
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, std::string> config_;
  std::map<std::string, Value> end_to_end_;
  std::map<std::string, Value> per_layer_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Host facts every report carries (nproc, compiler, build type, seed).
void RecordHost(const Options& options, Report* report);

/// Sleeps until shortly before `due_ns` (steady clock), then spins with
/// yields until it passes. Sleeping most of the gap keeps the generator off
/// the cores the program under test runs on.
void PaceUntil(int64_t due_ns);

/// Sleeps until `due_ns` (steady clock); returns at once if it has passed.
void SleepUntil(int64_t due_ns);

/// Lowers the calling thread's timer slack so short sleeps wake on time.
void TightenTimerSlack();

}  // namespace pb

#endif  // PERFBENCH_HARNESS_H_
