// serve_mixed and serve_tcp: online reads (PsClient::MultiGet) against a
// 2-node cluster holding a 64 k-key model that fits in DRAM.
//
// serve_mixed runs in process beside a closed-loop training driver (skewed
// pull -> FinishPullPhase -> push, a checkpoint request every few batches):
// publish churn drives the client's checkpoint-agreement retries, the
// snapshot/limbo path and ServingCache invalidation, and reads and writes
// share shard locks.
//
// serve_tcp sends the same read stream to the same services behind
// TcpServer on loopback, through PsClient over TcpTransport, read-only with
// a warm cache: the transport dominates there. The driver's writes run
// alone after the reads, over TCP as well.
//
// Reads come from one sender thread: first open loop, pacing a Poisson
// schedule (workload::OpenLoopGenerator) at a reference rate and then up a
// rate ladder, latency charged from each request's due time; then closed
// loop. The sender sleeps until shortly before each request is due, so it
// does not compete for the cores it measures.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "net/tcp.h"
#include "ps/ps_cluster.h"
#include "workload/open_loop.h"
#include "workload/skew.h"
#include "workloads.h"

namespace pb {
namespace {

constexpr uint64_t kNumKeys = 1 << 16;
constexpr uint32_t kDim = 16;
constexpr uint32_t kKeysPerRequest = 16;
constexpr uint32_t kNodes = 2;
constexpr size_t kServingCacheBytes = 2ULL << 20;
/// Room for the copy-on-write records checkpoint churn keeps alive.
constexpr uint64_t kPmemBytesPerNode = 256ULL << 20;
constexpr uint64_t kPreloadChunk = 8192;
constexpr int kSetups = 3;
/// Closed-loop reads that warm the ServingCache during set-up.
constexpr int kWarmupReads = 4000;

/// Offered rate of the open-loop reference phase (read.open_p50_us,
/// read.open_tail_us) and first step of the rate ladder; each further step
/// is sqrt(2) higher.
constexpr double kReferenceQps = 4000;
constexpr int kMaxLadderSteps = 12;
/// read.max_qps is the rate at which the read tail crosses this limit.
constexpr double kLatencyLimitUs = 1000;
/// Tails are taken per window of this many requests (p90: ten samples
/// beyond it) and the median over windows is reported.
constexpr size_t kWindowRequests = 100;
/// Failed reads count as missing the latency limit.
constexpr double kFailedLatencyUs = 1e12;

/// Share of --seconds spent at the reference rate; each ladder step runs
/// for kStepShare of it, and the closed-loop phase for kSaturationShare.
constexpr double kReferenceShare = 0.3;
constexpr double kStepShare = 0.03;
constexpr double kSaturationShare = 0.4;
/// Closed-loop sender threads (serve_tcp: each holds one connection per
/// node, so 2 threads and 4 connections, within nproc on a 4-core host).
constexpr int kClosedLoopSenders = 2;
/// The closed-loop rate is the median over bins of this length.
constexpr int64_t kRateBinNs = 50'000'000;
/// serve_tcp's push phase, as a share of --seconds.
constexpr double kPushPhaseShare = 0.2;

/// Training driver: keys per batch, checkpoint cadence, and the constant
/// gradient the serving oracle replays.
constexpr size_t kDriverKeys = 2048;
/// Beside serve_mixed's reads the driver starts a batch at most every
/// kDriverPeriodNs and stands in for the trainer's compute phase by waiting
/// until half of the period has passed before it pushes (cache maintenance
/// overlaps that wait, as it overlaps compute in training). A fixed batch
/// rate keeps the write load the reads see the same from run to run;
/// without the wait the driver would take a whole core from the reads.
/// Alone (serve_tcp's push phase) it runs batches back to back: after each
/// wait the servers' threads would wake on idle, halted cores, and that
/// wake-up, not the transport, would set the push rate.
constexpr int64_t kDriverPeriodNs = 4'000'000;
constexpr uint64_t kDriverCheckpointEvery = 4;
constexpr float kGrad = 0.01f;

constexpr int kRecoveryCycles = 21;
constexpr uint64_t kRecoveryPrepBatches = 32;
constexpr uint64_t kBatchesPastCheckpoint = 2;
/// Every this many successful reads is kept for the output check.
constexpr uint64_t kOracleSampleEvery = 16;

storage::StoreConfig StoreConfig() {
  storage::StoreConfig config;
  config.dim = kDim;
  config.optimizer.kind = storage::OptimizerKind::kSgd;
  return config;
}

/// Expected MultiGet values: InitializerSpec::Fill plus the driver's own
/// push log replayed through the store's SGD update, for whichever
/// checkpoint a response names. Only the driver writes, always with
/// gradient kGrad on distinct keys, so a key's value at checkpoint v is its
/// initial value after one SGD step per driver batch <= v that pushed it.
class Oracle {
 public:
  Oracle() : pushes_(kNumKeys), memo_(kNumKeys) {}

  void RecordPush(const std::vector<storage::EntryId>& keys, uint64_t batch) {
    for (const storage::EntryId key : keys) {
      pushes_[key].push_back(static_cast<uint32_t>(batch));
    }
  }

  /// Hot keys are pushed in almost every batch, so each key remembers its
  /// last replayed state and later (newer) checkpoints continue from it.
  void Expected(storage::EntryId key, uint64_t version, float* out) {
    const storage::StoreConfig config = StoreConfig();
    const auto& log = pushes_[key];
    const size_t steps = static_cast<size_t>(
        std::upper_bound(log.begin(), log.end(), version) - log.begin());
    Memo& memo = memo_[key];
    if (memo.value.empty() || memo.steps > steps) {
      memo.value.resize(kDim);
      config.initializer.Fill(key, memo.value.data(), kDim);
      memo.steps = 0;
    }
    const std::vector<float> grad(kDim, kGrad);
    for (; memo.steps < steps; ++memo.steps) {
      config.optimizer.Apply(memo.value.data(), nullptr, grad.data(), kDim,
                             memo.steps + 1);
    }
    std::copy(memo.value.begin(), memo.value.end(), out);
  }

  /// True iff every key's floats are bit-identical to the expected values.
  bool Matches(const storage::EntryId* keys, size_t n, uint64_t version,
               const float* values) {
    std::vector<float> expected(kDim);
    for (size_t i = 0; i < n; ++i) {
      Expected(keys[i], version, expected.data());
      if (std::memcmp(expected.data(), values + i * kDim,
                      kDim * sizeof(float)) != 0) {
        return false;
      }
    }
    return true;
  }

 private:
  struct Memo {
    size_t steps = 0;
    std::vector<float> value;
  };
  std::vector<std::vector<uint32_t>> pushes_;  // driver batches, ascending
  std::vector<Memo> memo_;
};

/// A response kept for the output check.
struct SampledRead {
  std::vector<storage::EntryId> keys;
  uint64_t version = 0;
  std::vector<float> values;
};

/// Wraps a PsService handler behind TcpServer to time each call from the
/// server side (the handler layer of the TCP path).
class HandlerTimer {
 public:
  explicit HandlerTimer(Spans* spans) : spans_(spans) {}

  net::RpcHandler Wrap(net::RpcHandler inner) {
    return [this, inner = std::move(inner)](uint32_t method,
                                            const net::Buffer& request,
                                            net::Buffer* response) {
      const int64_t t0 = NowNs();
      Status status = inner(method, request, response);
      const int64_t t1 = NowNs();
      if (recording_.load(std::memory_order_relaxed)) Note(method, t0, t1);
      return status;
    };
  }

  void set_recording(bool on) { recording_.store(on); }

  struct Call {
    uint32_t method;
    double us;
  };
  std::vector<Call> TakeCalls() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(calls_);
  }

 private:
  void Note(uint32_t method, int64_t t0, int64_t t1) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spans_->Sampled(calls_.size())) {
      spans_->Record("handler", "PsService::Handle", t0, t1);
    }
    calls_.push_back({method, static_cast<double>(t1 - t0) / 1e3});
  }

  Spans* spans_;
  std::atomic<bool> recording_{false};
  std::mutex mutex_;
  std::vector<Call> calls_;
};

/// One serving deployment: the in-process cluster and, for serve_tcp, TCP
/// servers in front of its services plus a client over TcpTransport.
struct Rig {
  std::unique_ptr<ps::PsCluster> cluster;
  std::unique_ptr<HandlerTimer> timer;
  std::unique_ptr<net::TcpTransport> tcp;
  std::vector<std::unique_ptr<net::TcpServer>> servers;
  std::unique_ptr<ps::PsClient> tcp_client;
  ps::PsClient* reader = nullptr;  // the client reads and writes go through

  /// Another client on the reader's transport.
  std::unique_ptr<ps::PsClient> NewReader() {
    if (tcp == nullptr) return cluster->NewClient();
    auto client = std::make_unique<ps::PsClient>(tcp.get(), kNodes, kDim);
    client->set_directory(cluster->directory());
    return client;
  }

  void Reset() {
    tcp_client.reset();
    servers.clear();
    tcp.reset();
    timer.reset();
    cluster.reset();
    reader = nullptr;
  }
};

struct ReadResult {
  Status status;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  uint32_t nodes = 0;  // distinct nodes the request's keys route to
};

/// Runs one read phase for `seconds`, recording every request and keeping
/// a sample of responses for the oracle. Open loop, requests follow a
/// Poisson schedule at `qps`; closed loop (`qps` == 0), each request is sent
/// as soon as the previous one returned.
std::vector<ReadResult> ReadPhase(ps::PsClient* client, double qps,
                                  double seconds, uint64_t seed, Spans* spans,
                                  bool trace_alternate,
                                  std::vector<SampledRead>* sampled) {
  const bool closed = qps == 0;
  workload::OpenLoopConfig config;
  if (!closed) config.qps = qps;
  config.keys_per_request = kKeysPerRequest;
  config.num_keys = kNumKeys;
  config.seed = seed;
  workload::OpenLoopGenerator generator(config);
  const int64_t duration_ns = static_cast<int64_t>(seconds * 1e9);
  std::vector<ReadResult> results;
  results.reserve(static_cast<size_t>(config.qps * seconds * 1.2) + 16);
  std::vector<float> out(kKeysPerRequest * kDim);
  std::vector<uint8_t> found(kKeysPerRequest);
  const ps::Router router = client->router();
  const int64_t base = NowNs() + (closed ? 0 : 1'000'000);
  uint64_t ok_reads = 0;
  while (true) {
    const workload::OpenLoopRequest request = generator.Next();
    ReadResult r;
    if (closed) {
      r.due_ns = NowNs();
      if (r.due_ns >= base + duration_ns) break;
    } else {
      if (static_cast<int64_t>(request.arrival_ns) >= duration_ns) break;
      r.due_ns = base + static_cast<int64_t>(request.arrival_ns);
    }
    const size_t index = results.size();
    if (trace_alternate) {
      spans->set_enabled((index / kWindowRequests) % 2 == 0);
    }
    PaceUntil(r.due_ns);
    uint64_t version = 0;
    r.send_ns = NowNs();
    r.status = client->MultiGet(request.keys.data(), request.keys.size(),
                                out.data(), found.data(), &version);
    r.done_ns = NowNs();
    if (spans->Sampled(index)) {
      spans->Record("gen", "lag", r.due_ns, r.send_ns);
      spans->Record("client", "PsClient::MultiGet", r.send_ns, r.done_ns);
    }
    uint32_t mask = 0;
    for (const storage::EntryId key : request.keys) {
      mask |= 1u << router.NodeFor(key);
    }
    r.nodes = static_cast<uint32_t>(__builtin_popcount(mask));
    if (r.status.ok()) {
      if (std::count(found.begin(), found.end(), 0) != 0) {
        r.status = Status::Corruption("preloaded key reported not found");
      } else if (ok_reads++ % kOracleSampleEvery == 0) {
        sampled->push_back({request.keys, version, out});
      }
    }
    results.push_back(std::move(r));
  }
  if (trace_alternate) spans->set_enabled(false);
  return results;
}

double LatencyUs(const ReadResult& r) {
  return r.status.ok() ? static_cast<double>(r.done_ns - r.due_ns) / 1e3
                       : kFailedLatencyUs;
}

/// Median over consecutive kWindowRequests-request windows of the window's
/// p-th percentile (the remainder joins the last window). Short host stalls
/// then move only the windows they hit.
double Windowed(const std::vector<ReadResult>& results, double p) {
  const size_t windows = std::max<size_t>(1, results.size() / kWindowRequests);
  std::vector<double> tails;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = w * kWindowRequests;
    const size_t end =
        w + 1 == windows ? results.size() : begin + kWindowRequests;
    Samples window;
    for (size_t i = begin; i < end; ++i) window.Add(LatencyUs(results[i]));
    tails.push_back(window.Percentile(p));
  }
  return Median(tails);
}

/// Training driver state shared by serve_mixed's background thread and
/// serve_tcp's push phase.
struct Driver {
  Driver(uint64_t seed, int64_t period_ns)
      : rng(seed * 7919 + 17), period_ns(period_ns) {}

  Random rng;
  workload::SkewedKeySampler sampler{kNumKeys, workload::SkewPreset::kOriginal};
  const int64_t period_ns;
  uint64_t batch = 1;  // the preload used batch 1
  uint64_t failed = 0;
  int64_t next_start_ns = 0;

  /// What the driver measured while recording; read through TakeStats()
  /// while the driver may still be running.
  struct Stats {
    uint64_t batches = 0;
    Samples pull_us, push_us, ckpt_us, publish_lag_ms;
    /// Keys pushed per second of each batch's wall time.
    Samples push_keys_per_s;
  };
  Stats TakeStats() {
    std::lock_guard<std::mutex> lock(mutex);
    return stats;
  }

  std::mutex mutex;
  Stats stats;  // guarded by mutex
  /// Checkpoint requests not yet seen published: (batch, request time).
  std::vector<std::pair<uint64_t, int64_t>> pending;

  /// One closed-loop batch, paced to period_ns: skewed pull ->
  /// FinishPullPhase -> compute stand-in -> push, and a checkpoint request
  /// every kDriverCheckpointEvery batches. Records the push in `oracle` when
  /// non-null. The push rate counts the time spent in PS calls only.
  Status Step(ps::PsClient* client, ps::PsCluster* cluster, Oracle* oracle,
              bool record) {
    ++batch;
    std::vector<storage::EntryId> keys(kDriverKeys);
    for (auto& key : keys) key = sampler.Sample(&rng);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::vector<float> weights(keys.size() * kDim);
    SleepUntil(next_start_ns);
    const int64_t t0 = NowNs();
    next_start_ns = t0 + period_ns;
    OE_RETURN_IF_ERROR(
        client->Pull(keys.data(), keys.size(), batch, weights.data()));
    const int64_t t1 = NowNs();
    OE_RETURN_IF_ERROR(client->FinishPullPhase(batch));
    const int64_t t2 = NowNs();
    SleepUntil(t0 + period_ns / 2);
    const std::vector<float> grads(keys.size() * kDim, kGrad);
    const int64_t t3 = NowNs();
    OE_RETURN_IF_ERROR(
        client->Push(keys.data(), keys.size(), grads.data(), batch));
    const int64_t t4 = NowNs();
    if (oracle != nullptr) oracle->RecordPush(keys, batch);
    int64_t c0 = 0, c1 = 0;
    if (batch % kDriverCheckpointEvery == 0) {
      c0 = NowNs();
      OE_RETURN_IF_ERROR(client->RequestCheckpoint(batch));
      c1 = NowNs();
      if (record) pending.emplace_back(batch, c0);
    }
    if (!record) return Status::OK();
    const int64_t busy_ns = (t2 - t0) + (t4 - t3) + (c1 - c0);
    std::lock_guard<std::mutex> lock(mutex);
    stats.push_keys_per_s.Add(static_cast<double>(keys.size()) * 1e9 /
                              static_cast<double>(busy_ns));
    if (c1 != 0) stats.ckpt_us.Add(static_cast<double>(c1 - c0) / 1e3);
    stats.pull_us.Add(static_cast<double>(t1 - t0) / 1e3);
    stats.push_us.Add(static_cast<double>(t4 - t3) / 1e3);
    ++stats.batches;
    NotePublished(cluster);
    return Status::OK();
  }

  /// Closes pending checkpoint requests the whole cluster has published.
  /// Caller holds `mutex`.
  void NotePublished(ps::PsCluster* cluster) {
    if (pending.empty()) return;
    uint64_t published = UINT64_MAX;
    for (uint32_t node = 0; node < cluster->num_nodes(); ++node) {
      published =
          std::min(published, cluster->store(node)->PublishedCheckpoint());
    }
    const int64_t now = NowNs();
    size_t done = 0;
    while (done < pending.size() && pending[done].first <= published) {
      stats.publish_lag_ms.Add(static_cast<double>(now - pending[done].second) /
                         1e6);
      ++done;
    }
    pending.erase(pending.begin(), pending.begin() + done);
  }

  /// Publishes a checkpoint at the current batch and waits for it.
  Status Checkpoint(ps::PsClient* client) {
    if (batch % kDriverCheckpointEvery != 0) {
      OE_RETURN_IF_ERROR(client->RequestCheckpoint(batch));
    }
    return client->DrainCheckpoints();
  }
};

Status Preload(ps::PsClient* client) {
  std::vector<storage::EntryId> keys;
  std::vector<float> weights;
  for (uint64_t base = 0; base < kNumKeys; base += kPreloadChunk) {
    keys.clear();
    for (uint64_t k = base; k < std::min(kNumKeys, base + kPreloadChunk); ++k) {
      keys.push_back(k);
    }
    weights.resize(keys.size() * kDim);
    OE_RETURN_IF_ERROR(client->Pull(keys.data(), keys.size(), 1,
                                    weights.data()));
  }
  OE_RETURN_IF_ERROR(client->FinishPullPhase(1));
  OE_RETURN_IF_ERROR(client->RequestCheckpoint(1));
  return client->DrainCheckpoints();
}

/// Closed-loop reads that fill the ServingCache.
Status WarmUpReads(ps::PsClient* client, uint64_t seed) {
  workload::OpenLoopConfig config;
  config.keys_per_request = kKeysPerRequest;
  config.num_keys = kNumKeys;
  config.seed = seed + 99991;
  workload::OpenLoopGenerator generator(config);
  std::vector<float> out(kKeysPerRequest * kDim);
  std::vector<uint8_t> found(kKeysPerRequest);
  for (int i = 0; i < kWarmupReads; ++i) {
    const auto request = generator.Next();
    uint64_t version = 0;
    OE_RETURN_IF_ERROR(client->MultiGet(request.keys.data(),
                                        request.keys.size(), out.data(),
                                        found.data(), &version));
  }
  return Status::OK();
}

/// Cluster creation, preload + checkpoint 1, the TCP front end when asked,
/// and a closed-loop read burst that warms the ServingCache.
Status SetUp(bool tcp, uint64_t seed, Spans* spans, Rig* rig) {
  ps::ClusterOptions options;
  options.num_nodes = kNodes;
  options.store = StoreConfig();
  options.serving_cache_bytes = kServingCacheBytes;
  options.pmem_bytes_per_node = kPmemBytesPerNode;
  OE_ASSIGN_OR_RETURN(rig->cluster, ps::PsCluster::Create(options));
  OE_RETURN_IF_ERROR(Preload(&rig->cluster->client()));
  rig->reader = &rig->cluster->client();
  if (tcp) {
    rig->timer = std::make_unique<HandlerTimer>(spans);
    rig->tcp = std::make_unique<net::TcpTransport>();
    for (uint32_t node = 0; node < kNodes; ++node) {
      OE_ASSIGN_OR_RETURN(
          auto server,
          net::TcpServer::Start(
              0, rig->timer->Wrap(rig->cluster->service(node)->AsHandler())));
      rig->tcp->AddNode(node, "127.0.0.1", server->port());
      rig->servers.push_back(std::move(server));
    }
    rig->tcp_client = rig->NewReader();
    rig->reader = rig->tcp_client.get();
  }
  return WarmUpReads(rig->reader, seed);
}

/// Offered rate at which the read tail crosses kLatencyLimitUs: log-linear
/// interpolation between the highest passing ladder step and the step
/// after it. `tails` holds each step's windowed tail (failing steps past a
/// growing backlog are given the failed latency).
double MaxQps(const std::vector<double>& rates,
              const std::vector<double>& tails) {
  const double limit = std::log(kLatencyLimitUs);
  if (tails.front() > kLatencyLimitUs) {
    return rates.front() * kLatencyLimitUs / tails.front();
  }
  for (size_t i = 0; i + 1 < tails.size(); ++i) {
    if (tails[i + 1] <= kLatencyLimitUs) continue;
    const double lo = std::log(std::max(tails[i], 1e-3));
    const double hi = std::log(tails[i + 1]);
    const double frac = std::clamp((limit - lo) / (hi - lo), 0.0, 1.0);
    return rates[i] * std::pow(rates[i + 1] / rates[i], frac);
  }
  return rates.back();
}

/// The closed-loop phase: `senders` threads (the calling one and extra
/// clients of the same transport) each read closed loop for `seconds`.
/// Returns every read, ordered by send time. Two senders keep the cores
/// busy: with one, whether a woken thread found its core running or halted
/// split runs of the same code into a fast and a slow mode.
std::vector<ReadResult> ClosedLoopReads(Rig* rig, int senders, double seconds,
                                        uint64_t seed, Spans* spans,
                                        bool trace,
                                        std::vector<SampledRead>* sampled) {
  std::vector<std::vector<ReadResult>> results(senders);
  std::vector<std::vector<SampledRead>> samples(senders);
  std::vector<std::unique_ptr<ps::PsClient>> clients;
  std::vector<std::thread> threads;
  for (int s = 1; s < senders; ++s) {
    clients.push_back(rig->NewReader());
    ps::PsClient* client = clients.back().get();
    threads.emplace_back([&, s, client] {
      TightenTimerSlack();
      results[s] = ReadPhase(client, 0, seconds, seed + s, spans, false,
                             &samples[s]);
    });
  }
  results[0] =
      ReadPhase(rig->reader, 0, seconds, seed, spans, trace, &samples[0]);
  for (std::thread& t : threads) t.join();
  std::vector<ReadResult> merged = std::move(results[0]);
  for (int s = 1; s < senders; ++s) {
    std::move(results[s].begin(), results[s].end(),
              std::back_inserter(merged));
  }
  std::sort(merged.begin(), merged.end(),
            [](const ReadResult& a, const ReadResult& b) {
              return a.send_ns < b.send_ns;
            });
  for (auto& s : samples) {
    std::move(s.begin(), s.end(), std::back_inserter(*sampled));
  }
  return merged;
}

/// Median over kRateBinNs bins of successful reads completed per second
/// (the last, partial bin is dropped).
double MedianRate(const std::vector<ReadResult>& results) {
  if (results.empty()) return 0.0;
  const int64_t start = results.front().due_ns;
  std::vector<double> bins;
  for (const ReadResult& r : results) {
    if (!r.status.ok()) continue;
    const size_t bin = static_cast<size_t>((r.done_ns - start) / kRateBinNs);
    if (bins.size() <= bin) bins.resize(bin + 1, 0.0);
    bins[bin] += 1.0;
  }
  if (bins.size() > 1) bins.pop_back();
  for (double& b : bins) b *= 1e9 / static_cast<double>(kRateBinNs);
  return Median(bins);
}

/// Crash -> recover cycles, run before the read phases so the store holds
/// the same state on every run: the driver pushes kRecoveryPrepBatches
/// batches and publishes a durable checkpoint, then each cycle pushes a few
/// batches past it, crashes every device and times the nodes' recovery.
/// Returns the recovery times; leaves the ServingCache warm again.
std::vector<double> RecoveryCycles(Rig* rig, Driver* driver, Oracle* oracle,
                                   uint64_t seed, Spans* spans, bool trace,
                                   Report* report) {
  std::vector<double> recover_ms;
  ps::PsClient* client = rig->reader;
  for (uint64_t b = 0; b < kRecoveryPrepBatches; ++b) {
    if (Status s = driver->Step(client, rig->cluster.get(), oracle, false);
        !s.ok()) {
      report->Fail("push before recovery: " + s.ToString());
      return recover_ms;
    }
  }
  if (Status s = driver->Checkpoint(client); !s.ok()) {
    report->Fail("checkpoint before recovery: " + s.ToString());
    return recover_ms;
  }
  const uint64_t checkpoint = driver->batch;
  std::vector<storage::EntryId> sample(256);
  for (size_t i = 0; i < sample.size(); ++i) {
    sample[i] = (i * 2654435761ULL) % kNumKeys;
  }
  for (int cycle = 0; cycle < kRecoveryCycles; ++cycle) {
    driver->batch = checkpoint;
    for (uint64_t b = 0; b < kBatchesPastCheckpoint; ++b) {
      if (Status s = driver->Step(client, rig->cluster.get(), nullptr, false);
          !s.ok()) {
        report->Fail("push past the checkpoint: " + s.ToString());
        return recover_ms;
      }
    }
    rig->cluster->SimulateCrashAll();
    spans->set_enabled(trace);
    // Each node's store recovers in turn (what the PS kRecover handler
    // runs). Fanned out through PsClient::Recover, a recovery this short
    // took 8 or 16 ms per run depending on whether the fan-out thread got a
    // core of its own.
    Status status;
    const int64_t t0 = NowNs();
    for (uint32_t node = 0; node < kNodes && status.ok(); ++node) {
      status = rig->cluster->store(node)->RecoverFromCrash();
    }
    const int64_t t1 = NowNs();
    if (trace) spans->Record("store", "RecoverFromCrash", t0, t1);
    spans->set_enabled(false);
    report->Count(1, status.ok() ? 0 : 1);
    if (!status.ok()) {
      report->Fail("recover: " + status.ToString());
      return recover_ms;
    }
    recover_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    auto cp = client->ClusterCheckpoint();
    auto entries = client->TotalEntries();
    if (!cp.ok() || cp.value() != checkpoint) {
      report->Fail("cluster checkpoint after recovery is not " +
                   std::to_string(checkpoint));
    }
    if (!entries.ok() || entries.value() != kNumKeys) {
      report->Fail("entry count after recovery differs from the checkpoint");
    }
    std::vector<float> expected(kDim);
    for (const storage::EntryId key : sample) {
      auto value = client->Peek(key);
      oracle->Expected(key, checkpoint, expected.data());
      if (!value.ok() || value.value() != expected) {
        report->Fail("key " + std::to_string(key) +
                     " differs from its checkpoint value after recovery");
        break;
      }
    }
  }
  driver->batch = checkpoint;
  if (Status s = WarmUpReads(client, seed); !s.ok()) {
    report->Fail("reads after recovery: " + s.ToString());
  }
  return recover_ms;
}

void RunServe(const Options& options, bool tcp, Report* report) {
  report->Config("serve.num_keys", static_cast<double>(kNumKeys));
  report->Config("serve.keys_per_request", kKeysPerRequest);
  report->Config("serve.reference_qps", kReferenceQps);
  report->Config("serve.latency_limit_us", kLatencyLimitUs);
  report->Config("serve.window_requests", static_cast<double>(kWindowRequests));
  report->Config("serve.closed_loop_senders", kClosedLoopSenders);
  report->Config("serve.serving_cache_bytes",
                 static_cast<double>(kServingCacheBytes));
  const double tail_p = TailPercentile(static_cast<double>(kWindowRequests));
  report->Config("tail_percentile", tail_p);
  report->Config("op", "MultiGet of 16 skewed keys, latency from due time");

  Spans spans;
  spans.NameThread("sender");
  TightenTimerSlack();

  // --- set-up, repeated; the last rig is the one measured ---
  std::vector<double> setup_s;
  Rig rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.Reset();
    const int64_t t0 = NowNs();
    const Status status = SetUp(tcp, options.seed, &spans, &rig);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!status.ok()) {
      report->Fail("set-up: " + status.ToString());
      return;
    }
  }
  ps::PsCluster* cluster = rig.cluster.get();
  Oracle oracle;
  Driver driver(options.seed, tcp ? 0 : kDriverPeriodNs);

  // --- crash -> recover cycles on a fixed store state ---
  const std::vector<double> recover_ms = RecoveryCycles(
      &rig, &driver, &oracle, options.seed, &spans, options.trace, report);
  if (!report->correct()) return;

  // --- open loop at the reference rate (serve_mixed: beside the driver) ---
  std::atomic<bool> stop{false};
  std::atomic<bool> driver_recording{false};
  Status driver_status;
  std::thread driver_thread;
  if (!tcp) {
    driver_thread = std::thread([&] {
      ps::PsClient* client = &cluster->client();
      while (!stop.load(std::memory_order_relaxed)) {
        Status s = driver.Step(client, cluster, &oracle,
                               driver_recording.load());
        if (!s.ok()) {
          driver_status = s;
          ++driver.failed;
          return;
        }
      }
    });
  }
  std::vector<SampledRead> sampled;
  const std::vector<ReadResult> reference =
      ReadPhase(rig.reader, kReferenceQps, options.seconds * kReferenceShare,
                options.seed * 1000, &spans, false, &sampled);

  // --- rate ladder: ascending steps until the tail misses the limit ---
  std::vector<double> rates{kReferenceQps};
  std::vector<double> step_tails{Windowed(reference, tail_p)};
  uint64_t attempted = reference.size();
  uint64_t failed = 0;
  for (const ReadResult& r : reference) failed += r.status.ok() ? 0 : 1;
  for (int step = 1; step <= kMaxLadderSteps; ++step) {
    const double rate = kReferenceQps * std::pow(std::sqrt(2.0), step);
    std::vector<SampledRead> step_sampled;
    const std::vector<ReadResult> results =
        ReadPhase(rig.reader, rate, options.seconds * kStepShare,
                  options.seed * 1000 + static_cast<uint64_t>(step), &spans,
                  false, &step_sampled);
    sampled.insert(sampled.end(), step_sampled.begin(), step_sampled.end());
    attempted += results.size();
    for (const ReadResult& r : results) failed += r.status.ok() ? 0 : 1;
    double tail = Windowed(results, tail_p);
    // A backlog still growing at the end of the step fails it outright.
    const ReadResult& last = results.back();
    if (static_cast<double>(last.send_ns - last.due_ns) / 1e3 >
        kLatencyLimitUs) {
      tail = std::max(tail, kFailedLatencyUs);
    }
    rates.push_back(rate);
    step_tails.push_back(tail);
    if (tail > kLatencyLimitUs) break;
  }

  // --- closed loop: the measured phase of the end-to-end and per-layer
  // metrics. A host stall here delays one read, where in open loop it
  // queues every read behind it. ---
  const obs::MetricsSnapshot reg0 = obs::MetricsRegistry::Default().Snapshot();
  const net::Transport& transport =
      tcp ? *rig.tcp : *cluster->rpc_transport();
  const ClusterCounters totals0 = TakeCounters(cluster, transport);
  if (rig.timer) rig.timer->set_recording(true);
  driver_recording.store(true);
  const std::vector<ReadResult> saturated = ClosedLoopReads(
      &rig, kClosedLoopSenders, options.seconds * kSaturationShare,
      options.seed * 1000 + 999, &spans, options.trace, &sampled);
  driver_recording.store(false);
  if (rig.timer) rig.timer->set_recording(false);
  const obs::MetricsSnapshot reg1 = obs::MetricsRegistry::Default().Snapshot();
  const ClusterCounters totals1 = TakeCounters(cluster, transport);
  const Driver::Stats driven = driver.TakeStats();
  attempted += saturated.size();
  for (const ReadResult& r : saturated) failed += r.status.ok() ? 0 : 1;
  report->Count(attempted, failed);
  for (const auto* phase : {&reference, &saturated}) {
    for (const ReadResult& r : *phase) {
      if (!r.status.ok() && r.status.code() != StatusCode::kUnavailable) {
        report->Fail("read error: " + r.status.ToString());
        break;
      }
    }
  }
  std::string ladder;
  for (size_t i = 0; i < rates.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.0f:%.0f", i ? " " : "", rates[i],
                  step_tails[i]);
    ladder += buf;
  }
  report->Config("serve.ladder_qps_tail_us", ladder);

  // --- serve_tcp: the driver's writes, alone, over TCP ---
  if (!tcp) {
    stop.store(true);
    driver_thread.join();
    if (!driver_status.ok()) {
      report->Fail("driver: " + driver_status.ToString());
    }
  } else {
    rig.timer->set_recording(true);
    const int64_t end =
        NowNs() + static_cast<int64_t>(options.seconds * kPushPhaseShare * 1e9);
    while (NowNs() < end) {
      if (Status s = driver.Step(rig.reader, cluster, &oracle, true);
          !s.ok()) {
        report->Fail("driver over TCP: " + s.ToString());
        ++driver.failed;
        break;
      }
    }
    rig.timer->set_recording(false);
  }
  // serve_mixed reports the driver during the closed-loop reads, serve_tcp
  // during its push phase.
  const Driver::Stats writes = tcp ? driver.TakeStats() : driven;
  report->Count(writes.batches, driver.failed);

  // --- output checks: every sampled response against the oracle ---
  for (const SampledRead& read : sampled) {
    if (!oracle.Matches(read.keys.data(), read.keys.size(), read.version,
                        read.values.data())) {
      report->Fail("MultiGet response at checkpoint " +
                   std::to_string(read.version) +
                   " differs from the replayed push log");
      break;
    }
  }
  report->Config("serve.checked_responses",
                 static_cast<double>(sampled.size()));
  if (sampled.empty()) {
    report->Fail("no response was sampled for the output check");
  } else {
    // Negative test: the oracle must reject a response with one flipped
    // bit, or the check above proves nothing.
    SampledRead corrupt = sampled.front();
    uint32_t bits = 0;
    std::memcpy(&bits, &corrupt.values[3], sizeof(bits));
    bits ^= 1u;
    std::memcpy(&corrupt.values[3], &bits, sizeof(bits));
    if (oracle.Matches(corrupt.keys.data(), corrupt.keys.size(),
                       corrupt.version, corrupt.values.data())) {
      report->Fail("oracle accepted a corrupted response");
    }
  }

  // --- end-to-end ---
  Samples open_lag;
  for (const ReadResult& r : reference) {
    open_lag.Add(static_cast<double>(r.send_ns - r.due_ns) / 1e3);
  }
  Samples ok_latency, lag, call, traced, untraced;
  uint64_t node_visits = 0;
  for (size_t i = 0; i < saturated.size(); ++i) {
    const ReadResult& r = saturated[i];
    node_visits += r.nodes;
    if (!r.status.ok()) continue;
    ok_latency.Add(static_cast<double>(r.done_ns - r.due_ns) / 1e3);
    lag.Add(static_cast<double>(r.send_ns - r.due_ns) / 1e3);
    call.Add(static_cast<double>(r.done_ns - r.send_ns) / 1e3);
    ((i / kWindowRequests) % 2 == 0 ? traced : untraced)
        .Add(static_cast<double>(r.done_ns - r.due_ns) / 1e3);
  }
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("op_p50_us", Windowed(saturated, 50), "us");
  report->EndToEnd("op_tail_us", Windowed(saturated, tail_p), "us");
  report->EndToEnd("op_rate_per_s", MedianRate(saturated), "1/s");
  report->Layer("read.open_p50_us", Windowed(reference, 50), "us");
  report->Layer("read.open_tail_us", step_tails.front(), "us");
  report->Layer("read.max_qps", MaxQps(rates, step_tails), "1/s");
  report->EndToEnd("push_keys_per_s", writes.push_keys_per_s.Percentile(50),
                   "1/s");
  report->EndToEnd("recover_ms", Median(recover_ms), "ms");
  report->Config("recover_ms_per_cycle", Join(recover_ms));

  // --- per layer (closed-loop phase; generator lag from the open loop) ---
  report->LayerPercentiles("gen.lag_us", open_lag, "us");
  report->LayerPercentiles("client.multiget_us", call, "us");
  report->LayerPercentiles("client.pull_us", writes.pull_us, "us");
  report->LayerPercentiles("client.push_us", writes.push_us, "us");
  report->LayerPercentiles("client.ckpt_us", writes.ckpt_us, "us");
  report->LayerPercentiles("ckpt.publish_lag_ms", writes.publish_lag_ms, "ms");

  const double reads = static_cast<double>(saturated.size());
  ReportClusterLayers(totals0, totals1, reg0, reg1,
                      {.ops = reads,
                       .batches = static_cast<double>(driven.batches),
                       .read_keys = reads * kKeysPerRequest},
                      report);
  // Handler layer: ps.handle_ns in process (reported above); on TCP the
  // bench-side wrapper, which also times the push phase's pulls and pushes.
  const auto h_get = DistributionDelta(reg0, reg1, "ps.handle_ns",
                                       {{"method", "multi_get"}});
  double handled_gets = static_cast<double>(h_get.count);
  double handler_us = h_get.Mean() / 1e3;  // mean multi-get handler call
  if (tcp) {
    Samples h_gets, h_pull, h_push;
    for (const HandlerTimer::Call& call : rig.timer->TakeCalls()) {
      switch (static_cast<ps::PsMethod>(call.method)) {
        case ps::PsMethod::kMultiGet:
          h_gets.Add(call.us);
          break;
        case ps::PsMethod::kPull:
          h_pull.Add(call.us);
          break;
        case ps::PsMethod::kPush:
          h_push.Add(call.us);
          break;
        default:
          break;
      }
    }
    report->LayerPercentiles("handler.multi_get_us", h_gets, "us");
    report->LayerPercentiles("handler.pull_us", h_pull, "us");
    report->LayerPercentiles("handler.push_us", h_push, "us");
    handled_gets = static_cast<double>(h_gets.size());
    handler_us = h_gets.Mean();
  }
  report->Layer("multiget.rpcs_per_read",
                Ratio(handled_gets, static_cast<double>(node_visits)), "ratio");
  report->Layer("recover.entries_per_s",
                Ratio(static_cast<double>(kNumKeys), Median(recover_ms) / 1e3),
                "1/s");

  if (options.trace) {
    // Budget of the mean closed-loop read along one node's RPC (the nodes
    // are called in parallel; the mean call stands in for the critical
    // one): transport self, handler self, store. The residual is what no
    // RPC covers: client routing, encoding and decoding, the fan-out pool
    // hop, and waiting for the slower node.
    const double store_us =
        DistributionDelta(reg0, reg1, "store.multiget_ns").Mean() / 1e3;
    const double rpc_us =
        DistributionDelta(reg0, reg1, "net.rpc_ns").Mean() / 1e3;
    report->Config("budget.lag_us", lag.Mean());
    report->Config("budget.net_self_us", rpc_us - handler_us);
    report->Config("budget.handler_self_us", handler_us - store_us);
    report->Config("budget.store_us", store_us);
    const double untraced_mean = untraced.Mean();
    const double traced_mean = traced.Mean();
    report->Layer("residual", ok_latency.Mean() - (lag.Mean() + rpc_us),
                  "us");
    report->Layer("trace_overhead",
                  untraced_mean > 0
                      ? 100.0 * (traced_mean - untraced_mean) / untraced_mean
                      : 0.0,
                  "%");
    spans.Write(options.out_dir + "/trace-" + options.workload + "-" +
                std::to_string(options.seed) + ".json");
  }
}

}  // namespace

void RunServeMixed(const Options& options, Report* report) {
  RunServe(options, /*tcp=*/false, report);
}

void RunServeTcp(const Options& options, Report* report) {
  RunServe(options, /*tcp=*/true, report);
}

}  // namespace pb
