#include "harness.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "common/histogram.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pb {

namespace {

/// `s` as a quoted JSON string.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  out += '"';
  return out;
}

}  // namespace

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

std::string Join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ' ';
    out += std::to_string(v);
  }
  return out;
}

double TailPercentile(double expected) {
  if (expected <= 10.0) return 50.0;
  const double p = 100.0 * (1.0 - 10.0 / expected);
  return std::floor(p * 100.0) / 100.0;
}

namespace {

obs::DistributionSnapshot MergedDistribution(const obs::MetricsSnapshot& snap,
                                             std::string_view name,
                                             const obs::Labels& labels) {
  obs::DistributionSnapshot merged;
  merged.buckets.assign(Histogram::kNumBuckets, 0);
  for (const obs::MetricValue& metric : snap.metrics) {
    if (metric.name != name ||
        metric.kind != obs::MetricValue::Kind::kDistribution) {
      continue;
    }
    bool match = true;
    for (const auto& [key, value] : labels) {
      auto it = metric.labels.find(key);
      if (it == metric.labels.end() || it->second != value) match = false;
    }
    if (!match) continue;
    const obs::DistributionSnapshot& d = metric.distribution;
    if (d.count == 0) continue;
    merged.min = merged.count == 0 ? d.min : std::min(merged.min, d.min);
    merged.max = std::max(merged.max, d.max);
    merged.count += d.count;
    merged.sum += d.sum;
    for (size_t i = 0; i < d.buckets.size() && i < merged.buckets.size();
         ++i) {
      merged.buckets[i] += d.buckets[i];
    }
  }
  return merged;
}

}  // namespace

obs::DistributionSnapshot DistributionDelta(const obs::MetricsSnapshot& before,
                                            const obs::MetricsSnapshot& after,
                                            std::string_view name,
                                            const obs::Labels& labels) {
  const obs::DistributionSnapshot a = MergedDistribution(before, name, labels);
  obs::DistributionSnapshot delta = MergedDistribution(after, name, labels);
  delta.count -= a.count;
  delta.sum -= a.sum;
  for (size_t i = 0; i < delta.buckets.size(); ++i) {
    delta.buckets[i] -= a.buckets[i];
  }
  // Extremes of the window are unknown; keep the cumulative ones as
  // clamps, which only bound the interpolation inside the edge buckets.
  delta.min = 0;
  return delta;
}

bool Spans::Write(const std::string& path) {
  return recorder_.WriteChromeJson(path).ok();
}

void Report::Config(const std::string& key, const std::string& value) {
  config_[key] = Quote(value);
}

void Report::Config(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  config_[key] = buf;
}

void Report::LayerPercentiles(const std::string& name, const Samples& samples,
                              const char* unit) {
  Layer(name + ".p50", samples.Percentile(50), unit);
  Layer(name + ".p99", samples.Percentile(99), unit);
}

void Report::LayerPercentilesUs(const std::string& name,
                                const obs::DistributionSnapshot& ns) {
  Layer(name + ".p50", ns.Percentile(50) / 1e3, "us");
  Layer(name + ".p99", ns.Percentile(99) / 1e3, "us");
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  errors_.push_back(what);
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string Report::ToJson() const {
  auto metrics = [](const std::map<std::string, Value>& values) {
    std::string out = "{";
    for (const auto& [name, v] : values) {
      if (out.size() > 1) out += ", ";
      out += "\"" + name + "\": {\"value\": " + Number(v.value) +
             ", \"unit\": \"" + v.unit + "\"}";
    }
    return out + "}";
  };
  std::string config = "{";
  for (const auto& [key, value] : config_) {
    if (config.size() > 1) config += ", ";
    config += "\"" + key + "\": " + value;
  }
  config += "}";
  std::string errors = "[";
  for (const std::string& e : errors_) {
    if (errors.size() > 1) errors += ", ";
    errors += Quote(e);
  }
  errors += "]";
  return "{\"correct\": " + std::string(correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) +
         ", \"errors\": " + errors + ", \"config\": " + config +
         ", \"end_to_end\": " + metrics(end_to_end_) +
         ", \"per_layer\": " + metrics(per_layer_) + "}";
}

void RecordHost(const Options& options, Report* report) {
  report->Config("host.nproc",
                 static_cast<double>(std::thread::hardware_concurrency()));
  report->Config("host.compiler", __VERSION__);
  report->Config("host.build_type", PERFBENCH_BUILD_TYPE);
  report->Config("clock", "wall-clock (steady_clock), not device time");
  report->Config("workload", options.workload);
  report->Config("seed", static_cast<double>(options.seed));
  report->Config("seconds", options.seconds);
  report->Config("trace", options.trace ? 1.0 : 0.0);
}

void PaceUntil(int64_t due_ns) {
  // Sleeps overshoot by a few microseconds even with tight timer slack;
  // wake this much early and yield-spin the rest.
  constexpr int64_t kWakeEarlyNs = 30'000;
  int64_t now = NowNs();
  if (due_ns - now > kWakeEarlyNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kWakeEarlyNs));
  }
  while (NowNs() < due_ns) {
  }
}

void SleepUntil(int64_t due_ns) {
  const int64_t wait = due_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

}  // namespace pb
