// Micro-benchmark for the worker->PS RPC fan-out: every per-node request of
// a Pull/Push/broadcast is issued concurrently via Transport::ParallelCall,
// so one operation costs ~one round trip instead of num_nodes sequential
// ones. A fixed per-call delay stands in for the network round trip; the
// serial baseline is the same transport with ParallelCall issuing one
// blocking call after another (the pre-fan-out behavior). The TCP rows run
// the same batches, and a closed-loop 16-key MultiGet, over real
// TcpServer/TcpTransport loopback sockets with no added delay.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "net/tcp.h"
#include "net/transport.h"
#include "ps/ps_client.h"
#include "ps/ps_service.h"
#include "storage/dram_store.h"

#include "bench/bench_util.h"

using oe::Status;
using oe::net::Buffer;
using oe::net::InProcTransport;
using oe::net::NodeId;
using oe::net::TcpServer;
using oe::net::TcpTransport;
using oe::net::Transport;
using oe::ps::PsClient;
using oe::ps::PsService;
using oe::storage::DramStore;
using oe::storage::EntryId;
using oe::storage::StoreConfig;

namespace {

constexpr uint32_t kDim = 64;
constexpr size_t kKeysPerBatch = 2048;
constexpr int kBatches = 20;
constexpr auto kRoundTrip = std::chrono::microseconds(300);

/// Adds a fixed per-call latency in front of an in-process backend: the
/// stand-in for one network round trip.
class DelayTransport : public Transport {
 public:
  explicit DelayTransport(InProcTransport* inner) : inner_(inner) {}

  Status CallOnce(NodeId node, uint32_t method, const Buffer& request,
                  Buffer* response) override {
    std::this_thread::sleep_for(kRoundTrip);
    return inner_->Call(node, method, request, response);
  }

 private:
  InProcTransport* inner_;
};

/// The serial baseline: ParallelCall as one blocking call after another,
/// exactly the old loop.
class SerialDelayTransport final : public DelayTransport {
 public:
  using DelayTransport::DelayTransport;

  Status ParallelCall(oe::net::RpcCall* calls, size_t n) override {
    Status first;
    for (size_t i = 0; i < n; ++i) {
      calls[i].status = Call(calls[i].node, calls[i].method,
                             calls[i].payload(), calls[i].response);
      if (first.ok()) first = calls[i].status;
    }
    return first;
  }
};

double RunEpochMs(Transport* transport, uint32_t num_nodes) {
  PsClient client(transport, num_nodes, kDim);
  std::vector<EntryId> keys(kKeysPerBatch);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> weights(kKeysPerBatch * kDim);
  std::vector<float> grads(kKeysPerBatch * kDim, 0.01f);

  const auto start = std::chrono::steady_clock::now();
  for (int b = 1; b <= kBatches; ++b) {
    Status status = client.Pull(keys.data(), keys.size(), b, weights.data());
    if (status.ok()) status = client.FinishPullPhase(b);
    if (status.ok()) {
      status = client.Push(keys.data(), keys.size(), grads.data(), b);
    }
    if (!status.ok()) {
      std::fprintf(stderr, "batch %d failed: %s\n", b,
                   status.ToString().c_str());
      return -1;
    }
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() /
         kBatches;
}

constexpr size_t kMultiGetKeys = 16;
constexpr int kMultiGetWarmup = 200;
constexpr int kMultiGets = 2000;

/// Median latency (us) of closed-loop 16-key MultiGets over keys the epoch
/// run created, after a warm-up; -1 on a failed read.
double MultiGetP50Us(Transport* transport, uint32_t num_nodes) {
  PsClient client(transport, num_nodes, kDim);
  std::vector<float> out(kMultiGetKeys * kDim);
  std::vector<uint8_t> found(kMultiGetKeys);
  std::vector<EntryId> keys(kMultiGetKeys);
  std::vector<double> latency_us;
  latency_us.reserve(kMultiGets);
  for (int i = 0; i < kMultiGetWarmup + kMultiGets; ++i) {
    for (size_t k = 0; k < kMultiGetKeys; ++k) {
      keys[k] = (static_cast<size_t>(i) * 97 + k * 131) % kKeysPerBatch;
    }
    uint64_t version = 0;
    const auto start = std::chrono::steady_clock::now();
    const Status status = client.MultiGet(keys.data(), keys.size(),
                                          out.data(), found.data(), &version);
    const auto end = std::chrono::steady_clock::now();
    if (!status.ok()) {
      std::fprintf(stderr, "multi-get %d failed: %s\n", i,
                   status.ToString().c_str());
      return -1;
    }
    if (i >= kMultiGetWarmup) {
      latency_us.push_back(
          std::chrono::duration<double, std::micro>(end - start).count());
    }
  }
  std::nth_element(latency_us.begin(),
                   latency_us.begin() + latency_us.size() / 2,
                   latency_us.end());
  return latency_us[latency_us.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  oe::bench::BenchReport bench_report("bench_net_fanout", &argc, argv);
  std::printf("RPC fan-out: Pull+FinishPull+Push per batch, %zu keys, "
              "%d us simulated round trip\n",
              kKeysPerBatch, static_cast<int>(kRoundTrip.count()));
  std::printf("%8s %16s %18s %10s\n", "nodes", "serial ms/batch",
              "parallel ms/batch", "speedup");

  for (uint32_t num_nodes : {2u, 4u, 8u}) {
    InProcTransport inner;
    std::vector<std::unique_ptr<DramStore>> stores;
    std::vector<std::unique_ptr<PsService>> services;
    for (uint32_t i = 0; i < num_nodes; ++i) {
      StoreConfig config;
      config.dim = kDim;
      stores.push_back(DramStore::Create(config, nullptr).ValueOrDie());
      services.push_back(std::make_unique<PsService>(stores.back().get()));
      inner.RegisterNode(i, services.back()->AsHandler());
    }

    SerialDelayTransport serial(&inner);
    const double serial_ms = RunEpochMs(&serial, num_nodes);
    DelayTransport parallel(&inner);
    const double parallel_ms = RunEpochMs(&parallel, num_nodes);
    if (serial_ms < 0 || parallel_ms < 0) return 1;
    const std::string prefix = "nodes" + std::to_string(num_nodes) + ".";
    bench_report.AddMetric(prefix + "serial_ms_per_batch", serial_ms);
    bench_report.AddMetric(prefix + "parallel_ms_per_batch", parallel_ms);
    bench_report.AddMetric(prefix + "speedup", serial_ms / parallel_ms);
    std::printf("%8u %16.2f %18.2f %9.2fx\n", num_nodes, serial_ms,
                parallel_ms, serial_ms / parallel_ms);
  }

  std::printf("\nTCP loopback (TcpServer per node, one TcpTransport): "
              "Pull+FinishPull+Push per batch, closed-loop %zu-key "
              "MultiGet\n",
              kMultiGetKeys);
  std::printf("%8s %14s %18s\n", "nodes", "ms/batch", "multiget p50 us");
  for (uint32_t num_nodes : {2u, 4u, 8u}) {
    std::vector<std::unique_ptr<DramStore>> stores;
    std::vector<std::unique_ptr<PsService>> services;
    std::vector<std::unique_ptr<TcpServer>> servers;
    TcpTransport transport;
    for (uint32_t i = 0; i < num_nodes; ++i) {
      StoreConfig config;
      config.dim = kDim;
      stores.push_back(DramStore::Create(config, nullptr).ValueOrDie());
      services.push_back(std::make_unique<PsService>(stores.back().get()));
      servers.push_back(
          TcpServer::Start(0, services.back()->AsHandler()).ValueOrDie());
      transport.AddNode(i, "127.0.0.1", servers.back()->port());
    }
    const double batch_ms = RunEpochMs(&transport, num_nodes);
    const double multiget_us = MultiGetP50Us(&transport, num_nodes);
    if (batch_ms < 0 || multiget_us < 0) return 1;
    const std::string prefix = "tcp.nodes" + std::to_string(num_nodes) + ".";
    bench_report.AddMetric(prefix + "ms_per_batch", batch_ms);
    bench_report.AddMetric(prefix + "multiget_p50_us", multiget_us);
    std::printf("%8u %14.2f %18.1f\n", num_nodes, batch_ms, multiget_us);
  }
  return 0;
}
