// Maintenance-phase throughput scaling across maintainer threads: the
// lock-striped store (store_shards = 16) lets maintainers drain disjoint
// shards concurrently, so the maintenance window's PMem latency overlaps
// up to min(maintainers, shards, DIMM concurrency) ways; the single-lock
// baseline (store_shards = 1) serializes every chunk on one write lock and
// stays flat no matter how many maintainer threads are configured.
//
// The workload is real store traffic — Zipf-skewed batches over a cold
// keyspace with periodic checkpoint requests, so maintenance performs the
// full Algorithm 2 mix (version-gated flushes, LRU maintenance, DRAM
// loads, evictions, checkpoint acknowledgements). Time is the repo's
// deterministic cost model over the measured device traffic (DESIGN.md §2:
// a small shared host cannot time multi-threaded phases; the model makes
// the shape reproducible), with the maintenance window charged at
// ContentionSpec::MaintenanceParallelism(maintainers, shards).

#include <cstdlib>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/cost_model.h"
#include "storage/pipelined_store.h"
#include "workload/skew.h"
#include "workload/trace.h"

using oe::pmem::CrashFidelity;
using oe::pmem::PmemDevice;
using oe::pmem::PmemDeviceOptions;
using oe::sim::ContentionSpec;
using oe::sim::CostModel;
using oe::storage::EntryId;
using oe::storage::PipelinedStore;
using oe::storage::StoreConfig;

namespace {

struct RunResult {
  double maintenance_ms = 0;   // modeled maintenance time, all batches
  double keys_per_sec = 0;     // accessed keys / modeled maintenance time
  uint64_t published = 0;      // checkpoints published (semantics check)
  uint64_t evictions = 0;
  uint64_t flushes = 0;
};

RunResult RunWorkload(int shards, int maintainers, uint64_t num_keys,
                      uint64_t cache_bytes, int batches,
                      size_t keys_per_batch) {
  PmemDeviceOptions device_options;
  device_options.size_bytes = 1ULL << 30;
  device_options.crash_fidelity = CrashFidelity::kNone;
  auto device = PmemDevice::Create(device_options).ValueOrDie();

  StoreConfig config;
  config.dim = 64;
  config.cache_bytes = cache_bytes;
  config.store_shards = shards;
  config.maintainer_threads = maintainers;
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();

  oe::workload::SkewedKeySampler sampler(num_keys,
                                         oe::workload::SkewPreset::kOriginal);
  oe::workload::BatchTraceGenerator generator(&sampler, keys_per_batch,
                                              /*seed=*/42);

  const ContentionSpec contention;
  const CostModel model;
  const int parallelism =
      contention.MaintenanceParallelism(maintainers, shards);

  std::vector<float> weights;
  std::vector<float> grads;
  RunResult result;
  double maintenance_ns = 0;
  uint64_t accessed = 0;
  uint64_t batch = 0;
  for (int round = 0; round < batches; ++round) {
    ++batch;
    const std::vector<EntryId> keys = generator.NextBatch();
    weights.resize(keys.size() * config.dim);
    (void)store->Pull(keys.data(), keys.size(), batch, weights.data());

    const auto pmem0 = device->stats().TakeSnapshot();
    const auto dram0 = store->dram_stats().TakeSnapshot();
    store->FinishPullPhase(batch);
    store->WaitMaintenance(batch);
    const auto pmem1 = device->stats().TakeSnapshot();
    const auto dram1 = store->dram_stats().TakeSnapshot();

    maintenance_ns += static_cast<double>(
        model.DeviceTime(pmem1 - pmem0, oe::pmem::PmemTiming(), parallelism) +
        model.DeviceTime(dram1 - dram0, oe::pmem::DramTiming()));
    accessed += keys.size();

    grads.assign(keys.size() * config.dim, 0.01f);
    (void)store->Push(keys.data(), keys.size(), grads.data(), batch);
    // A checkpoint request mid-stream keeps the version-gated flush path
    // and the cross-shard acknowledgement barrier in the measured mix.
    if (round % 8 == 4) (void)store->RequestCheckpoint(batch);
  }
  store->WaitMaintenance(batch);
  result.published = store->stats_snapshot().checkpoints_published;
  // Cross-shard barrier sanity check: draining must publish the rest.
  if (!store->DrainCheckpoints().ok()) std::abort();

  result.maintenance_ms = maintenance_ns / 1e6;
  result.keys_per_sec =
      maintenance_ns > 0 ? static_cast<double>(accessed) * 1e9 / maintenance_ns
                         : 0;
  const auto stats = store->stats_snapshot();
  result.evictions = stats.evictions;
  result.flushes = stats.flushes;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  oe::bench::BenchReport bench_report("bench_shard_scaling", &argc, argv);
  oe::bench::PrintHeader(
      "bench_shard_scaling: maintenance throughput vs maintainer threads",
      "pipelined cache maintenance overlaps GPU compute; sharding makes its "
      "throughput scale with maintainer threads");

  const uint64_t num_keys = oe::bench::FastMode() ? (64ULL << 10)
                                                  : (256ULL << 10);
  // 8 bytes per key (2 MiB full, 512 KiB fast): the same cache:keyspace
  // ratio at either size, small enough that the Zipf tail keeps the cache
  // under eviction pressure. LRU tails churn, so mid-stream checkpoints
  // publish before the final drain.
  const uint64_t cache_bytes = num_keys * 8;
  const int batches = oe::bench::FastMode() ? 16 : 48;
  const size_t keys_per_batch = 4096;
  const int thread_counts[] = {1, 2, 4, 8};
  bench_report.AddConfig("num_keys", static_cast<double>(num_keys));
  bench_report.AddConfig("cache_bytes", static_cast<double>(cache_bytes));
  bench_report.AddConfig("batches", batches);
  bench_report.AddConfig("keys_per_batch",
                         static_cast<double>(keys_per_batch));

  std::printf("\n%-14s %-11s %16s %14s %10s %10s\n", "engine", "maintainers",
              "maint-ms(total)", "keys/s", "speedup", "published");
  bool all_published = true;
  for (const int shards : {16, 1}) {
    const char* label = shards > 1 ? "sharded-16" : "single-lock";
    double base_keys_per_sec = 0;
    for (const int threads : thread_counts) {
      const RunResult r = RunWorkload(shards, threads, num_keys, cache_bytes,
                                      batches, keys_per_batch);
      if (threads == 1) base_keys_per_sec = r.keys_per_sec;
      const std::string prefix =
          std::string(label) + ".t" + std::to_string(threads) + ".";
      bench_report.AddMetric(prefix + "maintenance_ms", r.maintenance_ms);
      bench_report.AddMetric(prefix + "keys_per_sec", r.keys_per_sec);
      bench_report.AddMetric(prefix + "published",
                             static_cast<double>(r.published));
      all_published = all_published && r.published > 0;
      std::printf("%-14s %-11d %16.2f %14.0f %9.2fx %10llu\n", label, threads,
                  r.maintenance_ms, r.keys_per_sec,
                  r.keys_per_sec / base_keys_per_sec,
                  static_cast<unsigned long long>(r.published));
    }
  }
  std::printf(
      "\nnote: identical traffic in every run (deterministic trace); the\n"
      "single-lock layout serializes chunks on one write lock, so extra\n"
      "maintainer threads change nothing. Acceptance: sharded-16 at 4\n"
      "threads >= 2.5x its 1-thread baseline.\n");
  if (!all_published) {
    // Without a mid-stream publish the cross-shard acknowledgement barrier
    // is not in the measured mix.
    std::fprintf(stderr, "bench_shard_scaling: a row published no "
                         "checkpoint before the final drain\n");
    return 1;
  }
  return 0;
}
