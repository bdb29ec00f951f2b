// Network fault injection and exactly-once RPC semantics: FaultyTransport
// schedules are deterministic per seed, the Transport::Call retry policy
// recovers from injected drops, and PsService's sequence-id dedup window
// keeps retried / duplicated pushes from double-applying gradients — the
// retry + idempotency contract a lossy network demands (DESIGN.md
// "Failure model").

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "net/faulty_transport.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "ps/ps_client.h"
#include "ps/ps_cluster.h"
#include "ps/ps_service.h"
#include "storage/dram_store.h"
#include "storage/optimizer.h"

namespace oe {
namespace {

using net::Buffer;
using net::FaultyTransport;
using net::InProcTransport;
using net::NetFaultSpec;
using net::NodeId;
using net::RpcOptions;

// ---------- FaultyTransport units over a plain echo handler ----------

struct EchoFixture {
  InProcTransport inner;
  std::unique_ptr<FaultyTransport> faulty;
  std::atomic<int> served{0};

  explicit EchoFixture(uint64_t seed = 7) {
    inner.RegisterNode(0, [this](uint32_t, const Buffer& request,
                                 Buffer* response) {
      served.fetch_add(1);
      *response = request;
      return Status::OK();
    });
    faulty = std::make_unique<FaultyTransport>(&inner, seed);
  }
};

TEST(FaultyTransportTest, CleanSpecPassesThrough) {
  EchoFixture fx;
  Buffer response;
  ASSERT_TRUE(fx.faulty->Call(0, 1, {1, 2}, &response).ok());
  EXPECT_EQ(response, Buffer({1, 2}));
  EXPECT_EQ(fx.served.load(), 1);
}

TEST(FaultyTransportTest, DropNeverReachesServerAndIsRetryable) {
  EchoFixture fx;
  NetFaultSpec spec;
  spec.drop_rate = 1.0;
  fx.faulty->SetFaultSpec(0, spec);
  Buffer response;
  auto status = fx.faulty->Call(0, 1, {1}, &response);
  EXPECT_TRUE(status.IsUnavailable());
  EXPECT_EQ(fx.served.load(), 0);  // the request was dropped on the floor
  EXPECT_GE(fx.faulty->FaultStats(0).dropped, 1u);
}

TEST(FaultyTransportTest, FailResponseExecutesServerSide) {
  EchoFixture fx;
  NetFaultSpec spec;
  spec.fail_response_rate = 1.0;
  fx.faulty->SetFaultSpec(0, spec);
  Buffer response;
  auto status = fx.faulty->Call(0, 1, {1}, &response);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(response.empty());
  // The dangerous half of the fault: the server DID run the request.
  EXPECT_EQ(fx.served.load(), 1);
}

TEST(FaultyTransportTest, DuplicateDeliversTwice) {
  EchoFixture fx;
  NetFaultSpec spec;
  spec.duplicate_rate = 1.0;
  fx.faulty->SetFaultSpec(0, spec);
  Buffer response;
  ASSERT_TRUE(fx.faulty->Call(0, 1, {1}, &response).ok());
  EXPECT_EQ(response, Buffer({1}));  // first reply wins
  EXPECT_EQ(fx.served.load(), 2);
}

TEST(FaultyTransportTest, RetryPolicyRecoversFromLossySchedule) {
  EchoFixture fx(/*seed=*/21);
  NetFaultSpec spec;
  spec.drop_rate = 0.4;
  fx.faulty->SetFaultSpec(0, spec);
  RpcOptions options;
  options.max_retries = 20;
  options.backoff_initial_ms = 0;
  fx.faulty->set_rpc_options(options);

  for (int i = 0; i < 50; ++i) {
    Buffer response;
    ASSERT_TRUE(fx.faulty->Call(0, 1, {static_cast<uint8_t>(i)}, &response)
                    .ok())
        << "call " << i;
  }
  // 40% drops at 50 calls: some retries must have happened, all recovered.
  EXPECT_GT(fx.faulty->stats().retries.load(), 0u);
}

TEST(FaultyTransportTest, SameSeedSameSchedule) {
  auto run = [](uint64_t seed) {
    EchoFixture fx(seed);
    NetFaultSpec spec;
    spec.drop_rate = 0.3;
    spec.fail_response_rate = 0.2;
    fx.faulty->SetFaultSpec(0, spec);
    std::vector<StatusCode> codes;
    for (int i = 0; i < 60; ++i) {
      Buffer response;
      codes.push_back(fx.faulty->Call(0, 1, {1}, &response).code());
    }
    return codes;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // and the seed actually matters
}

TEST(FaultyTransportTest, DisconnectAtTakesNodeDown) {
  EchoFixture fx;
  NetFaultSpec spec;
  spec.disconnect_at = 3;
  fx.faulty->SetFaultSpec(0, spec);
  Buffer response;
  ASSERT_TRUE(fx.faulty->Call(0, 1, {1}, &response).ok());
  ASSERT_TRUE(fx.faulty->Call(0, 1, {2}, &response).ok());
  ASSERT_TRUE(fx.faulty->Call(0, 1, {3}, &response).ok());  // completes...
  EXPECT_TRUE(fx.faulty->IsNodeDown(0));                    // ...then down
  EXPECT_TRUE(fx.faulty->Call(0, 1, {4}, &response).IsUnavailable());
  EXPECT_EQ(fx.served.load(), 3);

  fx.faulty->SetNodeDown(0, false);  // revive
  ASSERT_TRUE(fx.faulty->Call(0, 1, {5}, &response).ok());
}

TEST(FaultyTransportTest, KillAtFiresCallbackBeforeDispatch) {
  EchoFixture fx;
  NetFaultSpec spec;
  spec.kill_at = 2;
  fx.faulty->SetFaultSpec(0, spec);
  std::vector<NodeId> killed;
  fx.faulty->SetKillCallback([&](NodeId node) { killed.push_back(node); });

  Buffer response;
  ASSERT_TRUE(fx.faulty->Call(0, 1, {1}, &response).ok());
  EXPECT_TRUE(fx.faulty->Call(0, 1, {2}, &response).IsUnavailable());
  EXPECT_EQ(killed, std::vector<NodeId>({0}));
  EXPECT_EQ(fx.served.load(), 1);  // the killed call never dispatched
}

// ---------- Exactly-once pushes through the PS stack ----------

ps::ClusterOptions SmallClusterOptions() {
  ps::ClusterOptions options;
  options.num_nodes = 2;
  options.kind = storage::StoreKind::kPipelined;
  options.store.dim = 4;
  options.store.optimizer.kind = storage::OptimizerKind::kSgd;
  options.store.optimizer.learning_rate = 0.1f;
  options.pmem_bytes_per_node = 16ULL << 20;
  return options;
}

// Runs the same pull/push workload against a cluster; returns the final
// weights of every key.
std::vector<std::vector<float>> RunWorkload(ps::PsCluster* cluster) {
  ps::PsClient& client = cluster->client();
  std::vector<storage::EntryId> keys(32);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> weights(keys.size() * 4);
  for (uint64_t batch = 1; batch <= 10; ++batch) {
    EXPECT_TRUE(
        client.Pull(keys.data(), keys.size(), batch, weights.data()).ok());
    EXPECT_TRUE(client.FinishPullPhase(batch).ok());
    std::vector<float> grads(keys.size() * 4,
                             0.01f * static_cast<float>(batch));
    EXPECT_TRUE(
        client.Push(keys.data(), keys.size(), grads.data(), batch).ok());
  }
  std::vector<std::vector<float>> result;
  for (storage::EntryId key : keys) {
    result.push_back(client.Peek(key).ValueOrDie());
  }
  return result;
}

TEST(ExactlyOnceTest, LossyDuplicatingNetworkMatchesGoldenRun) {
  // Golden: no faults. Subject: drops, duplicates and lost responses with
  // aggressive retries. Sequence-id dedup must make them bit-identical —
  // every gradient applied exactly once despite at-least-once delivery.
  auto golden = ps::PsCluster::Create(SmallClusterOptions()).ValueOrDie();
  const auto golden_weights = RunWorkload(golden.get());

  ps::ClusterOptions faulty_options = SmallClusterOptions();
  faulty_options.inject_net_faults = true;
  faulty_options.net_fault_seed = 33;
  faulty_options.net_fault_spec.drop_rate = 0.15;
  faulty_options.net_fault_spec.fail_response_rate = 0.15;
  faulty_options.net_fault_spec.duplicate_rate = 0.2;
  faulty_options.rpc_options.max_retries = 50;
  faulty_options.rpc_options.backoff_initial_ms = 0;
  auto faulty = ps::PsCluster::Create(faulty_options).ValueOrDie();
  const auto faulty_weights = RunWorkload(faulty.get());

  ASSERT_EQ(golden_weights.size(), faulty_weights.size());
  for (size_t i = 0; i < golden_weights.size(); ++i) {
    EXPECT_EQ(golden_weights[i], faulty_weights[i]) << "key " << i;
  }

  // The schedule actually exercised the dedup path: at least one retried
  // or duplicated mutation was short-circuited by a node's window.
  uint64_t dedup_hits = 0;
  for (uint32_t node = 0; node < faulty->num_nodes(); ++node) {
    dedup_hits += faulty->service(node)->DedupHits();
  }
  EXPECT_GT(dedup_hits, 0u);
  EXPECT_GT(faulty->net_stats().retries.load(), 0u);
}

TEST(ExactlyOnceTest, DuplicatedPushAppliesOnce) {
  // Surgical version of the property: duplicate EVERY request; without
  // dedup each push would apply twice and the weights would diverge 2x.
  auto golden = ps::PsCluster::Create(SmallClusterOptions()).ValueOrDie();
  const auto golden_weights = RunWorkload(golden.get());

  ps::ClusterOptions dup_options = SmallClusterOptions();
  dup_options.inject_net_faults = true;
  dup_options.net_fault_spec.duplicate_rate = 1.0;
  auto dup = ps::PsCluster::Create(dup_options).ValueOrDie();
  const auto dup_weights = RunWorkload(dup.get());

  for (size_t i = 0; i < golden_weights.size(); ++i) {
    EXPECT_EQ(golden_weights[i], dup_weights[i]) << "key " << i;
  }
  uint64_t dedup_hits = 0;
  for (uint32_t node = 0; node < dup->num_nodes(); ++node) {
    dedup_hits += dup->service(node)->DedupHits();
  }
  EXPECT_GT(dedup_hits, 0u);
}

// ---------- Serving reads under network faults ----------

// Trains `batches` checkpointed batches on `keys`, then pushes two more
// un-checkpointed batches so live weights diverge from the published
// snapshot. Returns the per-key weights at the published checkpoint.
std::vector<std::vector<float>> TrainPastCheckpoint(
    ps::PsCluster* cluster, const std::vector<storage::EntryId>& keys,
    uint64_t batches) {
  ps::PsClient& client = cluster->client();
  std::vector<float> weights(keys.size() * 4);
  auto step = [&](uint64_t batch) {
    ASSERT_TRUE(
        client.Pull(keys.data(), keys.size(), batch, weights.data()).ok());
    ASSERT_TRUE(client.FinishPullPhase(batch).ok());
    std::vector<float> grads(keys.size() * 4,
                             0.1f * static_cast<float>(batch));
    ASSERT_TRUE(
        client.Push(keys.data(), keys.size(), grads.data(), batch).ok());
  };
  for (uint64_t batch = 1; batch <= batches; ++batch) step(batch);
  EXPECT_TRUE(client.RequestCheckpoint(batches).ok());
  EXPECT_TRUE(client.DrainCheckpoints().ok());
  std::vector<std::vector<float>> snapshot;
  for (storage::EntryId key : keys) {
    snapshot.push_back(client.Peek(key).ValueOrDie());
  }
  // Live state moves past the published checkpoint: a torn or non-snapshot
  // read would leak these newer values into a MultiGet response.
  step(batches + 1);
  step(batches + 2);
  return snapshot;
}

TEST(ServingFaultsTest, MultiGetNeverTornUnderLossyDelayingNetwork) {
  ps::ClusterOptions options = SmallClusterOptions();
  options.inject_net_faults = true;
  options.net_fault_seed = 77;
  options.net_fault_spec.drop_rate = 0.15;
  options.net_fault_spec.fail_response_rate = 0.1;
  options.net_fault_spec.duplicate_rate = 0.2;
  options.net_fault_spec.delay_rate = 0.1;
  options.net_fault_spec.delay_ms = 1;
  options.rpc_options.max_retries = 50;
  options.rpc_options.backoff_initial_ms = 0;
  options.serving_cache_bytes = 64 << 10;
  auto cluster = ps::PsCluster::Create(options).ValueOrDie();

  std::vector<storage::EntryId> keys(32);
  std::iota(keys.begin(), keys.end(), 0);
  const auto snapshot = TrainPastCheckpoint(cluster.get(), keys, 3);

  ps::PsClient& client = cluster->client();
  std::vector<float> out(keys.size() * 4);
  std::vector<uint8_t> found(keys.size());
  int successes = 0;
  for (int round = 0; round < 40; ++round) {
    uint64_t cp = 0;
    const Status status =
        client.MultiGet(keys.data(), keys.size(), out.data(), found.data(),
                        &cp);
    if (!status.ok()) {
      // The only acceptable failures are transient transport outcomes: the
      // retry budget ran dry on drops (kUnavailable) or a lost response
      // (kIoError). Anything else means the read path broke.
      EXPECT_TRUE(status.IsUnavailable() ||
                  status.code() == StatusCode::kIoError)
          << status.ToString();
      continue;
    }
    ++successes;
    // A successful response is the published snapshot, bit-exact — never a
    // mix of checkpoint versions and never the newer un-checkpointed state.
    EXPECT_EQ(cp, 3u) << "round " << round;
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(found[i], 1) << "key " << keys[i];
      const std::vector<float> got(out.begin() + static_cast<long>(i) * 4,
                                   out.begin() + static_cast<long>(i + 1) * 4);
      EXPECT_EQ(got, snapshot[i]) << "round " << round << " key " << keys[i];
    }
  }
  // 50 retries against a 15% drop schedule: effectively every read lands.
  EXPECT_GT(successes, 30);
  EXPECT_GT(cluster->net_stats().retries.load(), 0u);
}

TEST(ServingFaultsTest, ReadsAreExemptFromPushDedupWindow) {
  // Duplicate EVERY request. Mutating RPCs must be absorbed by the dedup
  // window (hits grow during training); MultiGet is a read with seq 0, so
  // the server must answer both deliveries and the window must not move.
  ps::ClusterOptions options = SmallClusterOptions();
  options.inject_net_faults = true;
  options.net_fault_spec.duplicate_rate = 1.0;
  auto cluster = ps::PsCluster::Create(options).ValueOrDie();

  std::vector<storage::EntryId> keys(16);
  std::iota(keys.begin(), keys.end(), 0);
  const auto snapshot = TrainPastCheckpoint(cluster.get(), keys, 2);

  auto dedup_hits = [&] {
    uint64_t hits = 0;
    for (uint32_t node = 0; node < cluster->num_nodes(); ++node) {
      hits += cluster->service(node)->DedupHits();
    }
    return hits;
  };
  const uint64_t hits_after_training = dedup_hits();
  EXPECT_GT(hits_after_training, 0u);  // duplicated pushes were absorbed

  ps::PsClient& client = cluster->client();
  std::vector<float> out(keys.size() * 4);
  std::vector<uint8_t> found(keys.size());
  for (int round = 0; round < 20; ++round) {
    uint64_t cp = 0;
    ASSERT_TRUE(client
                    .MultiGet(keys.data(), keys.size(), out.data(),
                              found.data(), &cp)
                    .ok());
    EXPECT_EQ(cp, 2u);
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::vector<float> got(out.begin() + static_cast<long>(i) * 4,
                                   out.begin() + static_cast<long>(i + 1) * 4);
      EXPECT_EQ(got, snapshot[i]) << "key " << keys[i];
    }
  }
  // 20 duplicated reads, zero new dedup hits: reads bypass the window.
  EXPECT_EQ(dedup_hits(), hits_after_training);

  // And the window is still live for mutations: one more duplicated push
  // batch raises the hit count.
  std::vector<float> weights(keys.size() * 4);
  ASSERT_TRUE(client.Pull(keys.data(), keys.size(), 5, weights.data()).ok());
  ASSERT_TRUE(client.FinishPullPhase(5).ok());
  std::vector<float> grads(keys.size() * 4, 0.1f);
  ASSERT_TRUE(client.Push(keys.data(), keys.size(), grads.data(), 5).ok());
  EXPECT_GT(dedup_hits(), hits_after_training);
}

// ---------- Node lifecycle ----------

TEST(NodeLifecycleTest, KilledNodeIsUnavailableUntilRestart) {
  ps::ClusterOptions options = SmallClusterOptions();
  auto cluster = ps::PsCluster::Create(options).ValueOrDie();
  ps::PsClient& client = cluster->client();

  std::vector<storage::EntryId> keys = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<float> weights(keys.size() * 4);
  ASSERT_TRUE(client.Pull(keys.data(), keys.size(), 1, weights.data()).ok());
  ASSERT_TRUE(client.FinishPullPhase(1).ok());
  std::vector<float> grads(keys.size() * 4, 0.5f);
  ASSERT_TRUE(client.Push(keys.data(), keys.size(), grads.data(), 1).ok());
  ASSERT_TRUE(client.RequestCheckpoint(1).ok());
  ASSERT_TRUE(client.DrainCheckpoints().ok());
  std::vector<std::vector<float>> checkpointed;
  for (storage::EntryId key : keys) {
    checkpointed.push_back(client.Peek(key).ValueOrDie());
  }

  ASSERT_TRUE(cluster->KillNode(1).ok());
  EXPECT_TRUE(cluster->node_down(1));
  EXPECT_EQ(cluster->DownNodes(), std::vector<uint32_t>({1}));
  // Killing twice is an error; the node is already gone.
  EXPECT_FALSE(cluster->KillNode(1).ok());

  // Ops spanning both shards now fail with a retryable Unavailable.
  auto status = client.Pull(keys.data(), keys.size(), 2, weights.data());
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();

  // Restart over the surviving device image + cluster-wide recovery rolls
  // every shard back to the drained checkpoint.
  ASSERT_TRUE(cluster->RestartDownNodes().ok());
  EXPECT_FALSE(cluster->node_down(1));
  cluster->SimulateCrashAll();
  ASSERT_TRUE(client.Recover().ok());
  ASSERT_EQ(client.ClusterCheckpoint().ValueOrDie(), 1u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(client.Peek(keys[i]).ValueOrDie(), checkpointed[i])
        << "key " << keys[i];
  }
}

TEST(NodeLifecycleTest, RestartOfHealthyNodeRejected) {
  auto cluster = ps::PsCluster::Create(SmallClusterOptions()).ValueOrDie();
  EXPECT_FALSE(cluster->RestartNode(0).ok());
  EXPECT_FALSE(cluster->KillNode(99).ok());
}

TEST(NodeLifecycleTest, KillCallbackWiredToClusterKillsForReal) {
  ps::ClusterOptions options = SmallClusterOptions();
  options.inject_net_faults = true;
  auto cluster = ps::PsCluster::Create(options).ValueOrDie();
  cluster->faulty_transport()->SetKillCallback(
      [&](NodeId node) { ASSERT_TRUE(cluster->KillNode(node).ok()); });
  NetFaultSpec spec;
  spec.kill_at = 4;
  cluster->faulty_transport()->SetFaultSpec(1, spec);

  ps::PsClient& client = cluster->client();
  std::vector<storage::EntryId> keys(16);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> weights(keys.size() * 4);
  Status status;
  for (uint64_t batch = 1; batch <= 10 && status.ok(); ++batch) {
    status = client.Pull(keys.data(), keys.size(), batch, weights.data());
    if (status.ok()) status = client.FinishPullPhase(batch);
    std::vector<float> grads(keys.size() * 4, 0.01f);
    if (status.ok()) {
      status = client.Push(keys.data(), keys.size(), grads.data(), batch);
    }
  }
  // The schedule killed node 1 mid-workload; training saw Unavailable and
  // the cluster really tore the node down (store gone, device crashed).
  EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  EXPECT_TRUE(cluster->node_down(1));
}

// ---------- Remote status codes over TCP ----------

TEST(TcpStatusTest, PullReroutesAfterRemoteWrongOwner) {
  // Node 0 rejects the first Pull with kWrongOwner, as a node does right
  // after a migration moved a slot away. Over TCP the code must survive the
  // wire so PsClient refreshes and re-routes instead of failing hard.
  constexpr uint32_t kDim = 4;
  std::vector<std::unique_ptr<storage::DramStore>> stores;
  std::vector<std::unique_ptr<ps::PsService>> services;
  std::vector<std::unique_ptr<net::TcpServer>> servers;
  std::atomic<int> pulls_at_node0{0};
  net::TcpTransport transport;
  for (NodeId node = 0; node < 2; ++node) {
    storage::StoreConfig config;
    config.dim = kDim;
    stores.push_back(storage::DramStore::Create(config, nullptr).ValueOrDie());
    services.push_back(std::make_unique<ps::PsService>(stores.back().get()));
    net::RpcHandler inner = services.back()->AsHandler();
    servers.push_back(
        net::TcpServer::Start(0, [&, node, inner](uint32_t method,
                                                  const Buffer& request,
                                                  Buffer* response) {
          if (node == 0 &&
              method == static_cast<uint32_t>(ps::PsMethod::kPull) &&
              pulls_at_node0.fetch_add(1) == 0) {
            return Status::WrongOwner("slot moved");
          }
          return inner(method, request, response);
        }).ValueOrDie());
    transport.AddNode(node, "127.0.0.1", servers.back()->port());
  }

  ps::PsClient client(&transport, 2, kDim);
  std::vector<storage::EntryId> keys(16);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> weights(keys.size() * kDim);
  const Status status =
      client.Pull(keys.data(), keys.size(), /*batch=*/1, weights.data());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(pulls_at_node0.load(), 2);  // rejected once, then served
}

}  // namespace
}  // namespace oe
