// Micro-benchmarks (google-benchmark) for the hot operations of the
// OpenEmbedding engine: pull hits/misses, gradient pushes, PMem pool
// allocation, LRU maintenance, checksums. Real wall-clock numbers on the
// host — these validate that the implementation itself is not the
// bottleneck behind the simulated device costs.

#include <benchmark/benchmark.h>

#include <numeric>
#include <string>
#include <vector>

#include "bench/bench_util.h"

#include "cache/lru_list.h"
#include "cache/tagged_ptr.h"
#include "common/crc32.h"
#include "common/random.h"
#include "pmem/pool.h"
#include "pmem/slab_allocator.h"
#include "storage/kv_flat.h"
#include "storage/pipelined_store.h"

namespace {

using oe::cache::LruList;
using oe::cache::LruNode;
using oe::cache::TaggedPtr;
using oe::pmem::CrashFidelity;
using oe::pmem::PmemDevice;
using oe::pmem::PmemDeviceOptions;
using oe::pmem::PmemPool;
using oe::pmem::SlabAllocator;
using oe::pmem::SlabAllocatorOptions;
using oe::storage::FlatIndex;
using oe::storage::PipelinedStore;
using oe::storage::StoreConfig;

std::unique_ptr<PmemDevice> MakeDevice(uint64_t size) {
  PmemDeviceOptions options;
  options.size_bytes = size;
  options.crash_fidelity = CrashFidelity::kNone;
  return PmemDevice::Create(options).ValueOrDie();
}

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(static_cast<size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oe::Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_PoolAllocFree(benchmark::State& state) {
  auto device = MakeDevice(256 << 20);
  auto pool = PmemPool::Create(device.get()).ValueOrDie();
  const uint64_t size = static_cast<uint64_t>(state.range(0));
  std::vector<uint8_t> payload(size, 1);
  for (auto _ : state) {
    uint64_t offset =
        pool->AllocWrite(payload.data(), size, 1).ValueOrDie();
    benchmark::DoNotOptimize(offset);
    (void)pool->Free(offset);
  }
}
BENCHMARK(BM_PoolAllocFree)->Arg(272)->Arg(4096);

// The slab allocator's record path against BM_PoolAllocFree above: Alloc is
// a volatile free-list pop and Commit is 2 persist events, vs the pool's 3
// header round-trips per record.
void BM_SlabAllocFree(benchmark::State& state) {
  auto device = MakeDevice(256 << 20);
  auto pool = PmemPool::Create(device.get()).ValueOrDie();
  auto slab = SlabAllocator::Attach(pool.get(), SlabAllocatorOptions())
                  .ValueOrDie();
  const uint64_t size = static_cast<uint64_t>(state.range(0));
  std::vector<uint8_t> payload(size, 1);
  for (auto _ : state) {
    uint64_t offset =
        slab->AllocWrite(payload.data(), size, /*lane=*/0).ValueOrDie();
    benchmark::DoNotOptimize(offset);
    (void)slab->Free(offset);
  }
}
BENCHMARK(BM_SlabAllocFree)->Arg(272)->Arg(4096);

struct BenchEntry {
  uint64_t key;
  LruNode lru;
};

void BM_LruTouch(benchmark::State& state) {
  constexpr size_t kEntries = 4096;
  std::vector<BenchEntry> entries(kEntries);
  LruList<BenchEntry, &BenchEntry::lru> lru;
  for (auto& entry : entries) lru.PushFront(&entry);
  oe::Random rng(3);
  for (auto _ : state) {
    lru.Touch(&entries[rng.Uniform(kEntries)]);
  }
}
BENCHMARK(BM_LruTouch);

void BM_TaggedPtrRoundTrip(benchmark::State& state) {
  BenchEntry entry{42, {}};
  for (auto _ : state) {
    TaggedPtr dram = TaggedPtr::FromDram(&entry);
    benchmark::DoNotOptimize(dram.dram<BenchEntry>());
    TaggedPtr pmem = TaggedPtr::FromPmem(123456);
    benchmark::DoNotOptimize(pmem.pmem_offset());
  }
}
BENCHMARK(BM_TaggedPtrRoundTrip);

struct StoreFixture {
  std::unique_ptr<PmemDevice> device;
  std::unique_ptr<PipelinedStore> store;
  std::vector<uint64_t> keys;
  std::vector<float> weights;
  std::vector<float> grads;

  explicit StoreFixture(uint64_t cache_bytes, size_t keys_per_batch) {
    device = MakeDevice(512 << 20);
    StoreConfig config;
    config.dim = 64;
    config.cache_bytes = cache_bytes;
    store = PipelinedStore::Create(config, device.get()).ValueOrDie();
    keys.resize(keys_per_batch);
    std::iota(keys.begin(), keys.end(), 0);
    weights.resize(keys.size() * 64);
    grads.assign(keys.size() * 64, 0.01f);
    // Materialize the entries.
    (void)store->Pull(keys.data(), keys.size(), 1, weights.data());
    store->FinishPullPhase(1);
    store->WaitMaintenance(1);
  }
};

void BM_PullHit(benchmark::State& state) {
  StoreFixture fixture(/*cache_bytes=*/64 << 20, /*keys_per_batch=*/1024);
  uint64_t batch = 2;
  for (auto _ : state) {
    (void)fixture.store->Pull(fixture.keys.data(), fixture.keys.size(),
                              batch, fixture.weights.data());
    state.PauseTiming();
    fixture.store->FinishPullPhase(batch);
    fixture.store->WaitMaintenance(batch);
    ++batch;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.keys.size()));
}
BENCHMARK(BM_PullHit);

void BM_PullMissFromPmem(benchmark::State& state) {
  // Cache far smaller than the working set: most pulls read PMem.
  StoreFixture fixture(/*cache_bytes=*/64 << 10, /*keys_per_batch=*/4096);
  uint64_t batch = 2;
  for (auto _ : state) {
    (void)fixture.store->Pull(fixture.keys.data(), fixture.keys.size(),
                              batch, fixture.weights.data());
    state.PauseTiming();
    fixture.store->FinishPullPhase(batch);
    fixture.store->WaitMaintenance(batch);
    ++batch;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.keys.size()));
}
BENCHMARK(BM_PullMissFromPmem);

void BM_PushSgd(benchmark::State& state) {
  StoreFixture fixture(/*cache_bytes=*/64 << 20, /*keys_per_batch=*/1024);
  uint64_t batch = 2;
  for (auto _ : state) {
    state.PauseTiming();
    (void)fixture.store->Pull(fixture.keys.data(), fixture.keys.size(),
                              batch, fixture.weights.data());
    fixture.store->FinishPullPhase(batch);
    fixture.store->WaitMaintenance(batch);
    state.ResumeTiming();
    (void)fixture.store->Push(fixture.keys.data(), fixture.keys.size(),
                              fixture.grads.data(), batch);
    ++batch;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(fixture.keys.size()));
}
BENCHMARK(BM_PushSgd);

// ---------------------------------------------------------------------------
// Index rows: single-shard pull and push ops/s through the flat index. dim
// is small and the cache holds the whole working set, so the index probe
// dominates each op (DESIGN.md §5d).
// ---------------------------------------------------------------------------

constexpr uint32_t kEngineDim = 8;
constexpr uint64_t kEngineKeys = 256 << 10;
constexpr size_t kEngineBatch = 4096;

struct EngineFixture {
  std::unique_ptr<PmemDevice> device;
  std::unique_ptr<PipelinedStore> store;
  std::vector<std::vector<uint64_t>> batches;  // shuffled key batches
  std::vector<float> weights;
  std::vector<float> grads;

  EngineFixture() {
    device = MakeDevice(512 << 20);
    StoreConfig config;
    config.dim = kEngineDim;
    config.cache_bytes = 512ULL << 20;  // everything stays DRAM-resident
    config.store_shards = 1;
    store = PipelinedStore::Create(config, device.get()).ValueOrDie();

    // Materialize every key, then precompute shuffled batches so each
    // timed op stream probes the index in cache-unfriendly order.
    std::vector<uint64_t> all(kEngineKeys);
    std::iota(all.begin(), all.end(), 0);
    weights.resize(kEngineKeys * kEngineDim);
    (void)store->Pull(all.data(), all.size(), 1, weights.data());
    store->FinishPullPhase(1);
    store->WaitMaintenance(1);

    oe::Random rng(7);
    for (size_t i = all.size() - 1; i > 0; --i) {
      std::swap(all[i], all[rng.Uniform(i + 1)]);
    }
    for (size_t pos = 0; pos + kEngineBatch <= all.size();
         pos += kEngineBatch) {
      batches.emplace_back(all.begin() + pos, all.begin() + pos + kEngineBatch);
    }
    weights.resize(kEngineBatch * kEngineDim);
    grads.assign(kEngineBatch * kEngineDim, 0.01f);
  }
};

/// Index + shuffled key stream, no store around it: the setup every pure
/// index benchmark below shares.
struct KvFixture {
  FlatIndex kv;
  std::vector<uint64_t> keys;

  KvFixture() {
    for (uint64_t k = 0; k < kEngineKeys; ++k) {
      kv.Upsert(k, TaggedPtr::FromPmem(k * 8));
    }
    keys.resize(kEngineKeys);
    std::iota(keys.begin(), keys.end(), 0);
    oe::Random rng(11);
    for (size_t i = keys.size() - 1; i > 0; --i) {
      std::swap(keys[i], keys[rng.Uniform(i + 1)]);
    }
  }
};

// Pure single-key probe: Find + slot load over a shuffled key stream — one
// dependent chain per key.
void BM_KvFind(benchmark::State& state) {
  KvFixture fixture;
  auto& kv = fixture.kv;
  const auto& keys = fixture.keys;
  size_t pos = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kv.Find(keys[pos])->load());
    pos = (pos + 1) & (kEngineKeys - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KvFind);

// Single-shard index pull op, as the store's batched pull loop issues it:
// FindBatch over a 4096-key shard batch, then a slot load per key.
void BM_KvPullOps(benchmark::State& state) {
  KvFixture fixture;
  auto& kv = fixture.kv;
  const auto& keys = fixture.keys;
  std::vector<oe::cache::AtomicTaggedPtr*> slots(kEngineBatch);
  size_t pos = 0;
  for (auto _ : state) {
    kv.FindBatch(keys.data() + pos, kEngineBatch, slots.data());
    uint64_t sum = 0;
    for (size_t i = 0; i < kEngineBatch; ++i) sum += slots[i]->load().bits();
    benchmark::DoNotOptimize(sum);
    pos = (pos + kEngineBatch) & (kEngineKeys - 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEngineBatch));
}
BENCHMARK(BM_KvPullOps);

// Single-shard index push op: FindBatch, then the push path's slot
// read-modify-write (load the published pointer, store it back).
void BM_KvPushOps(benchmark::State& state) {
  KvFixture fixture;
  auto& kv = fixture.kv;
  const auto& keys = fixture.keys;
  std::vector<oe::cache::AtomicTaggedPtr*> slots(kEngineBatch);
  size_t pos = 0;
  for (auto _ : state) {
    kv.FindBatch(keys.data() + pos, kEngineBatch, slots.data());
    for (size_t i = 0; i < kEngineBatch; ++i) {
      slots[i]->store(slots[i]->load());
    }
    pos = (pos + kEngineBatch) & (kEngineKeys - 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEngineBatch));
}
BENCHMARK(BM_KvPushOps);

void BM_EnginePull(benchmark::State& state) {
  EngineFixture fixture;
  uint64_t batch = 2;
  size_t next = 0;
  for (auto _ : state) {
    const auto& keys = fixture.batches[next];
    next = (next + 1) % fixture.batches.size();
    (void)fixture.store->Pull(keys.data(), keys.size(), batch,
                              fixture.weights.data());
    state.PauseTiming();
    fixture.store->FinishPullPhase(batch);
    fixture.store->WaitMaintenance(batch);
    ++batch;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEngineBatch));
}
BENCHMARK(BM_EnginePull);

void BM_EnginePush(benchmark::State& state) {
  EngineFixture fixture;
  uint64_t batch = 2;
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const auto& keys = fixture.batches[next];
    next = (next + 1) % fixture.batches.size();
    (void)fixture.store->Pull(keys.data(), keys.size(), batch,
                              fixture.weights.data());
    fixture.store->FinishPullPhase(batch);
    fixture.store->WaitMaintenance(batch);
    state.ResumeTiming();
    (void)fixture.store->Push(keys.data(), keys.size(), fixture.grads.data(),
                              batch);
    ++batch;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEngineBatch));
}
BENCHMARK(BM_EnginePush);

}  // namespace

namespace {

/// Console reporter that additionally captures each run's adjusted real
/// time into the --json record as "<benchmark>_ns".
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(oe::bench::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      report_->AddMetric(run.benchmark_name() + "_ns",
                         run.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  oe::bench::BenchReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  // BenchReport strips --json/--trace before benchmark::Initialize sees
  // (and would reject) them.
  oe::bench::BenchReport bench_report("bench_micro_ops", &argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCaptureReporter reporter(&bench_report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  return 0;
}
