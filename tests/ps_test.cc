#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "common/random.h"
#include "ps/ps_cluster.h"

namespace oe::ps {
namespace {

using storage::StoreKind;

constexpr uint32_t kDim = 8;

ClusterOptions BaseOptions(StoreKind kind, uint32_t nodes) {
  ClusterOptions options;
  options.num_nodes = nodes;
  options.kind = kind;
  options.store.dim = kDim;
  options.store.optimizer.learning_rate = 0.5f;
  options.store.cache_bytes = 16 * 1024;
  options.crash_fidelity = pmem::CrashFidelity::kStrict;
  return options;
}

TEST(RouterTest, CoversAllNodesRoughlyEvenly) {
  Router router(4);
  std::vector<int> counts(4, 0);
  for (uint64_t key = 0; key < 4000; ++key) ++counts[router.NodeFor(key)];
  for (int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

TEST(RouterTest, Deterministic) {
  Router a(8), b(8);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(a.NodeFor(key), b.NodeFor(key));
  }
}

class PsClusterTest : public ::testing::TestWithParam<StoreKind> {};

TEST_P(PsClusterTest, PullPushAcrossShards) {
  auto cluster = PsCluster::Create(BaseOptions(GetParam(), 4)).ValueOrDie();
  auto& client = cluster->client();

  std::vector<uint64_t> keys(32);
  std::iota(keys.begin(), keys.end(), 100);
  std::vector<float> weights(keys.size() * kDim);
  ASSERT_TRUE(client.Pull(keys.data(), keys.size(), 1, weights.data()).ok());
  ASSERT_TRUE(client.FinishPullPhase(1).ok());

  std::vector<float> grads(keys.size() * kDim, 1.0f);
  ASSERT_TRUE(client.Push(keys.data(), keys.size(), grads.data(), 1).ok());

  // Every key moved by -lr * grad regardless of which shard owns it.
  for (size_t i = 0; i < keys.size(); ++i) {
    auto after = client.Peek(keys[i]).ValueOrDie();
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(after[d], weights[i * kDim + d] - 0.5f, 1e-5) << keys[i];
    }
  }
  EXPECT_EQ(client.TotalEntries().ValueOrDie(), keys.size());
}

TEST_P(PsClusterTest, ShardsPartitionKeys) {
  auto cluster = PsCluster::Create(BaseOptions(GetParam(), 4)).ValueOrDie();
  auto& client = cluster->client();
  std::vector<uint64_t> keys(64);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> weights(keys.size() * kDim);
  ASSERT_TRUE(client.Pull(keys.data(), keys.size(), 1, weights.data()).ok());

  size_t sum = 0;
  bool multiple_used = false;
  size_t nonzero = 0;
  for (uint32_t node = 0; node < 4; ++node) {
    const size_t count = cluster->store(node)->EntryCount();
    sum += count;
    if (count > 0) ++nonzero;
  }
  multiple_used = nonzero >= 2;
  EXPECT_EQ(sum, keys.size());
  EXPECT_TRUE(multiple_used);
}

INSTANTIATE_TEST_SUITE_P(Kinds, PsClusterTest,
                         ::testing::Values(StoreKind::kDram,
                                           StoreKind::kPipelined,
                                           StoreKind::kOriCache,
                                           StoreKind::kPmemHash),
                         [](const auto& info) {
                           return std::string(
                               storage::StoreKindToString(info.param) ==
                                       "PMem-OE"
                                   ? "PmemOe"
                               : storage::StoreKindToString(info.param) ==
                                       "DRAM-PS"
                                   ? "DramPs"
                               : storage::StoreKindToString(info.param) ==
                                       "Ori-Cache"
                                   ? "OriCache"
                                   : "PmemHash");
                         });

TEST(PsClusterPlacementTest, NodePullKeysAccumulate) {
  auto cluster =
      PsCluster::Create(BaseOptions(StoreKind::kPipelined, 2)).ValueOrDie();
  auto& client = cluster->client();
  // Two keys per node, chosen through the router so both nodes see pulls.
  const Router& router = client.router();
  std::vector<uint64_t> keys;
  std::vector<uint32_t> per_node_keys(2, 0);
  for (uint64_t key = 0; keys.size() < 4; ++key) {
    const uint32_t node = router.NodeFor(key);
    if (per_node_keys[node] == 2) continue;
    ++per_node_keys[node];
    keys.push_back(key);
  }
  std::vector<float> weights(keys.size() * kDim);
  for (uint64_t batch = 1; batch <= 6; ++batch) {
    ASSERT_TRUE(
        client.Pull(keys.data(), keys.size(), batch, weights.data()).ok());
    ASSERT_TRUE(client.FinishPullPhase(batch).ok());
  }
  cluster->RefreshLoadGauges();
  const auto per_node = cluster->NodePullKeys();
  ASSERT_EQ(per_node.size(), 2u);
  EXPECT_EQ(per_node[0], 12u);
  EXPECT_EQ(per_node[1], 12u);
  EXPECT_DOUBLE_EQ(cluster->LoadImbalance(), 1.0);
}

TEST(PsClusterCheckpointTest, DistributedCheckpointAndRecovery) {
  auto cluster =
      PsCluster::Create(BaseOptions(StoreKind::kPipelined, 3)).ValueOrDie();
  auto& client = cluster->client();
  Random rng(7);

  std::map<uint64_t, std::vector<float>> at_checkpoint;
  for (uint64_t batch = 1; batch <= 10; ++batch) {
    std::vector<uint64_t> keys;
    for (int i = 0; i < 24; ++i) keys.push_back(rng.Uniform(100));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::vector<float> weights(keys.size() * kDim);
    ASSERT_TRUE(
        client.Pull(keys.data(), keys.size(), batch, weights.data()).ok());
    ASSERT_TRUE(client.FinishPullPhase(batch).ok());
    std::vector<float> grads(keys.size() * kDim);
    for (auto& g : grads) g = rng.UniformFloat(-0.5f, 0.5f);
    ASSERT_TRUE(
        client.Push(keys.data(), keys.size(), grads.data(), batch).ok());

    if (batch == 6) {
      ASSERT_TRUE(client.RequestCheckpoint(batch).ok());
      ASSERT_TRUE(client.DrainCheckpoints().ok());
      EXPECT_EQ(client.ClusterCheckpoint().ValueOrDie(), 6u);
      const uint64_t total = client.TotalEntries().ValueOrDie();
      for (uint64_t key = 0; key < 100; ++key) {
        auto r = client.Peek(key);
        if (r.ok()) at_checkpoint[key] = std::move(r).ValueOrDie();
      }
      EXPECT_EQ(at_checkpoint.size(), total);
    }
  }

  cluster->SimulateCrashAll();
  ASSERT_TRUE(client.Recover().ok());
  EXPECT_EQ(client.ClusterCheckpoint().ValueOrDie(), 6u);
  EXPECT_EQ(client.TotalEntries().ValueOrDie(), at_checkpoint.size());
  for (const auto& [key, expected] : at_checkpoint) {
    auto got = client.Peek(key);
    ASSERT_TRUE(got.ok()) << key;
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(got.value()[d], expected[d], 1e-5) << key;
    }
  }
}

TEST(PsClusterTest, NetStatsAccumulate) {
  auto cluster =
      PsCluster::Create(BaseOptions(StoreKind::kDram, 2)).ValueOrDie();
  auto& client = cluster->client();
  std::vector<uint64_t> keys = {1, 2, 3, 4};
  std::vector<float> weights(keys.size() * kDim);
  ASSERT_TRUE(client.Pull(keys.data(), keys.size(), 1, weights.data()).ok());
  EXPECT_GT(cluster->net_stats().requests.load(), 0u);
  EXPECT_GT(cluster->net_stats().bytes_received.load(),
            keys.size() * kDim * sizeof(float) - 1);
}

TEST(PsClusterTest, ZeroNodesRejected) {
  ClusterOptions options = BaseOptions(StoreKind::kDram, 0);
  EXPECT_FALSE(PsCluster::Create(options).ok());
}

TEST(PsClusterTest, MultipleClientsShareState) {
  auto cluster =
      PsCluster::Create(BaseOptions(StoreKind::kPipelined, 2)).ValueOrDie();
  auto client_a = cluster->NewClient();
  auto client_b = cluster->NewClient();
  uint64_t key = 42;
  std::vector<float> w(kDim);
  ASSERT_TRUE(client_a->Pull(&key, 1, 1, w.data()).ok());
  ASSERT_TRUE(client_a->FinishPullPhase(1).ok());
  std::vector<float> g(kDim, 1.0f);
  ASSERT_TRUE(client_a->Push(&key, 1, g.data(), 1).ok());
  auto seen_by_b = client_b->Peek(key).ValueOrDie();
  for (uint32_t d = 0; d < kDim; ++d) {
    EXPECT_NEAR(seen_by_b[d], w[d] - 0.5f, 1e-5);
  }
}

}  // namespace
}  // namespace oe::ps
