// Index + allocator stress: the synchronous training protocol (concurrent
// pulls, then concurrent pushes + checkpoint requests, maintainer threads
// draining in parallel) run against the flat index and the slab record
// allocator with a cache small enough to evict constantly. SGD with a
// constant gradient is order-independent, so the concurrent store must
// land bit-exactly on the serial replay. Built to run under
// ThreadSanitizer (ctest -L tsan) and AddressSanitizer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "pmem/device.h"
#include "storage/pipelined_store.h"

namespace oe {
namespace {

using pmem::CrashFidelity;
using pmem::PmemDevice;
using pmem::PmemDeviceOptions;
using storage::EntryId;
using storage::InitializerKind;
using storage::InitializerSpec;
using storage::OptimizerKind;
using storage::PipelinedStore;
using storage::StoreConfig;

constexpr uint32_t kDim = 8;
constexpr float kLearningRate = 0.5f;
constexpr float kGrad = 1.0f;
constexpr int kThreads = 4;
constexpr int kBatches = 10;
constexpr uint64_t kUniverse = 96;
constexpr uint64_t kHot = 6;
constexpr int kCold = 16;

StoreConfig StressConfig() {
  StoreConfig config;
  config.dim = kDim;
  config.optimizer.kind = OptimizerKind::kSgd;
  config.optimizer.learning_rate = kLearningRate;
  config.initializer.kind = InitializerKind::kUniform;
  config.initializer.scale = 0.1f;
  config.cache_bytes = 4 * 1024;  // tiny: constant evictions + PMem pushes
  config.store_shards = 8;
  config.maintainer_threads = 2;
  return config;
}

std::vector<EntryId> KeysFor(int thread, int batch) {
  std::set<EntryId> keys;
  for (EntryId k = 0; k < kHot; ++k) keys.insert(k);
  for (int j = 0; j < kCold; ++j) {
    keys.insert(kHot + (static_cast<uint64_t>(thread) * 31 +
                        static_cast<uint64_t>(j) * 7 +
                        static_cast<uint64_t>(batch) * 13) %
                           (kUniverse - kHot));
  }
  return {keys.begin(), keys.end()};
}

std::vector<float> ExpectedWeights(const InitializerSpec& init, EntryId key,
                                   int pushes) {
  std::vector<float> w(kDim);
  init.Fill(key, w.data(), kDim);
  for (int p = 0; p < pushes; ++p) {
    for (uint32_t i = 0; i < kDim; ++i) w[i] -= kLearningRate * kGrad;
  }
  return w;
}

TEST(IndexStressTest, FlatWithSlabAllocator) {
  PmemDeviceOptions dopts;
  dopts.size_bytes = 32 << 20;
  dopts.crash_fidelity = CrashFidelity::kStrict;
  auto device = PmemDevice::Create(dopts).ValueOrDie();
  auto store =
      PipelinedStore::Create(StressConfig(), device.get()).ValueOrDie();
  const InitializerSpec init = store->config().initializer;

  // Precompute key sets and cumulative push counts so workers verify
  // pulled values without sharing mutable state.
  std::vector<std::vector<std::vector<EntryId>>> keysets(kBatches + 1);
  std::vector<std::vector<int>> count_before(kBatches + 2,
                                             std::vector<int>(kUniverse, 0));
  for (int b = 1; b <= kBatches; ++b) {
    keysets[b].resize(kThreads);
    count_before[b + 1] = count_before[b];
    for (int t = 0; t < kThreads; ++t) {
      keysets[b][t] = KeysFor(t, b);
      for (EntryId key : keysets[b][t]) count_before[b + 1][key]++;
    }
  }

  Barrier barrier(kThreads);
  std::atomic<int> pull_mismatches{0};
  std::atomic<int> op_failures{0};

  auto worker = [&](int t) {
    std::vector<float> weights;
    std::vector<float> grads;
    for (int b = 1; b <= kBatches; ++b) {
      const auto& keys = keysets[b][t];
      weights.resize(keys.size() * kDim);

      barrier.ArriveAndWait();
      if (!store->Pull(keys.data(), keys.size(), b, weights.data()).ok()) {
        op_failures.fetch_add(1);
      }
      for (size_t j = 0; j < keys.size(); ++j) {
        const auto want =
            ExpectedWeights(init, keys[j], count_before[b][keys[j]]);
        for (uint32_t i = 0; i < kDim; ++i) {
          if (weights[j * kDim + i] != want[i]) {
            pull_mismatches.fetch_add(1);
            break;
          }
        }
      }

      if (barrier.ArriveAndWait()) store->FinishPullPhase(b);
      barrier.ArriveAndWait();

      if (t == 0 && b % 4 == 0) {
        if (!store->RequestCheckpoint(b).ok()) op_failures.fetch_add(1);
      }
      grads.assign(keys.size() * kDim, kGrad);
      if (!store->Push(keys.data(), keys.size(), grads.data(), b).ok()) {
        op_failures.fetch_add(1);
      }
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& t : threads) t.join();

  EXPECT_EQ(op_failures.load(), 0);
  EXPECT_EQ(pull_mismatches.load(), 0);
  ASSERT_TRUE(store->DrainCheckpoints().ok());
  EXPECT_GT(store->PublishedCheckpoint(), 0u);

  // Any lost update — stale slot read, torn pointer, dropped COW, a bucket
  // probe landing on the wrong slot — shows up as a wrong final weight.
  const auto& final_count = count_before[kBatches + 1];
  size_t touched = 0;
  for (EntryId key = 0; key < kUniverse; ++key) {
    if (final_count[key] == 0) continue;
    ++touched;
    auto got = store->Peek(key);
    ASSERT_TRUE(got.ok()) << "key " << key;
    const std::vector<float> values = std::move(got).ValueOrDie();
    const auto want = ExpectedWeights(init, key, final_count[key]);
    for (uint32_t i = 0; i < kDim; ++i) {
      ASSERT_EQ(values[i], want[i])
          << "key " << key << " dim " << i << " after " << final_count[key]
          << " pushes";
    }
  }
  EXPECT_EQ(store->EntryCount(), touched);
}

}  // namespace
}  // namespace oe
