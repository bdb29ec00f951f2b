// train_skew: the paper's training path. SyncTrainer (2 workers, 256
// examples each) drives a small DeepFM over Criteo-synth data whose live
// embedding set grows far past the DRAM cache of 2 PipelinedStore nodes, so
// pulls miss, maintenance evicts and flushes to the PMem device model,
// durable checkpoints publish, and the run ends with crash -> recover
// cycles. The serving path stays idle.
//
// The model is deliberately small (hidden {16}): with {64, 32} the dense
// compute took about 80% of per-worker time and would hide any PS change;
// at {16} PS time and compute are about even.

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"
#include "ps/ps_cluster.h"
#include "train/sync_trainer.h"
#include "workload/criteo.h"
#include "workloads.h"

namespace pb {
namespace {

constexpr int kWorkers = 2;
constexpr size_t kBatchPerWorker = 256;
constexpr uint64_t kBaseCardinality = 200'000;
constexpr uint32_t kDim = 16;
/// DRAM cache per node. The live set passes 1 M entries (~80 B each), at
/// least 8x the 2 x 4 MiB of cache.
constexpr uint64_t kCacheBytesPerNode = 4ULL << 20;
constexpr uint64_t kPmemBytesPerNode = 256ULL << 20;
constexpr uint64_t kCheckpointEvery = 10;
/// Global batches per measured second of --seconds, sized so a run takes
/// about --seconds on a 4-core host. A fixed batch count (rather than a
/// deadline) keeps the live set, and so recovery work, the same on every
/// commit.
constexpr double kBatchesPerSecond = 20;
constexpr uint64_t kWarmupBatches = 10;
constexpr int kSetups = 3;
constexpr int kRecoveryCycles = 5;
/// Batches trained past the checkpoint before each simulated crash.
constexpr uint64_t kBatchesPastCheckpoint = 3;
constexpr size_t kSampleKeys = 512;
constexpr double kAucFloor = 0.53;
/// Traced runs alternate blocks of this many batches with spans on / off.
constexpr uint64_t kTraceBlock = 10;

ps::ClusterOptions ClusterConfig() {
  ps::ClusterOptions options;
  options.num_nodes = 2;
  options.store.dim = kDim;
  options.store.cache_bytes = kCacheBytesPerNode;
  options.pmem_bytes_per_node = kPmemBytesPerNode;
  return options;
}

workload::CriteoSynthConfig DataConfig(uint64_t seed) {
  workload::CriteoSynthConfig data;
  data.base_cardinality = kBaseCardinality;
  data.seed = seed;
  return data;
}

train::TrainerConfig TrainerConfig(uint64_t seed) {
  train::TrainerConfig config;
  config.workers = kWorkers;
  config.batch_size = kBatchPerWorker;
  config.checkpoint_interval = kCheckpointEvery;
  config.durable_checkpoints = true;
  config.deterministic_data = true;
  config.seed = seed;
  config.model.embed_dim = kDim;
  config.model.hidden = {16};
  return config;
}

struct Rig {
  std::unique_ptr<ps::PsCluster> cluster;
  std::unique_ptr<train::SyncTrainer> trainer;
};

/// Cluster creation plus warm-up batches: the set-up cost setup_s reports.
Rig SetUp(const Options& options, Report* report) {
  Rig rig;
  auto cluster = ps::PsCluster::Create(ClusterConfig());
  if (!cluster.ok()) {
    report->Fail("cluster create: " + cluster.status().ToString());
    return rig;
  }
  rig.cluster = std::move(cluster).ValueOrDie();
  rig.trainer = std::make_unique<train::SyncTrainer>(
      rig.cluster.get(), DataConfig(options.seed), TrainerConfig(options.seed));
  const Status status = rig.trainer->TrainBatches(kWarmupBatches);
  if (!status.ok()) report->Fail("warm-up: " + status.ToString());
  return rig;
}

/// Keys worker 0 pulled in global batch `batch`: they exist on the PS, and
/// the deterministic data stream regenerates them without bookkeeping.
std::vector<storage::EntryId> KeysOfBatch(uint64_t seed, uint64_t batch) {
  workload::CriteoSynth data(DataConfig(seed));
  data.Reseed(workload::BatchSeed(workload::WorkerSeed(seed, 0), batch));
  std::vector<storage::EntryId> keys;
  for (const auto& example : data.NextBatch(kBatchPerWorker)) {
    keys.insert(keys.end(), example.cat_keys.begin(), example.cat_keys.end());
    if (keys.size() >= kSampleKeys) break;
  }
  keys.resize(std::min(keys.size(), kSampleKeys));
  return keys;
}

}  // namespace

void RunTrainSkew(const Options& options, Report* report) {
  report->Config("train.workers", kWorkers);
  report->Config("train.batch_per_worker",
                 static_cast<double>(kBatchPerWorker));
  report->Config("train.base_cardinality",
                 static_cast<double>(kBaseCardinality));
  report->Config("train.cache_bytes_per_node",
                 static_cast<double>(kCacheBytesPerNode));
  report->Config("train.checkpoint_every",
                 static_cast<double>(kCheckpointEvery));
  report->Config("train.hidden", "16");

  // --- set-up, repeated; the last rig is the one measured ---
  std::vector<double> setup_s;
  Rig rig;
  for (int i = 0; i < kSetups; ++i) {
    rig.trainer.reset();  // the trainer's clients use the cluster
    rig.cluster.reset();
    const int64_t t0 = NowNs();
    rig = SetUp(options, report);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (rig.trainer == nullptr || !report->correct()) return;
  }
  ps::PsCluster* cluster = rig.cluster.get();
  train::SyncTrainer& trainer = *rig.trainer;

  // --- measured batches ---
  const uint64_t batches = static_cast<uint64_t>(
      std::max(20.0, std::round(options.seconds * kBatchesPerSecond)));
  report->Config("train.measured_batches", static_cast<double>(batches));
  Spans spans;
  spans.NameThread("train-driver");
  Samples batch_us, batch_traced_us, batch_untraced_us;
  Samples pull_ms, compute_ms, push_ms, sync_ms;
  const obs::MetricsSnapshot reg0 = obs::MetricsRegistry::Default().Snapshot();
  const ClusterCounters totals0 =
      TakeCounters(cluster, *cluster->rpc_transport());
  const uint64_t examples0 = trainer.progress().examples_seen;
  uint64_t failed = 0;
  const int64_t run_start = NowNs();
  for (uint64_t i = 0; i < batches; ++i) {
    const bool traced = options.trace && (i / kTraceBlock) % 2 == 0;
    spans.set_enabled(traced);
    const auto p0 = trainer.phase_totals();
    const int64_t t0 = NowNs();
    const Status status = trainer.TrainBatches(1);
    const int64_t t1 = NowNs();
    const auto p1 = trainer.phase_totals();
    if (!status.ok()) {
      ++failed;
      report->Fail("train batch: " + status.ToString());
      break;
    }
    if (traced) spans.Record("train", "TrainBatches", t0, t1);
    const double wall_ms = static_cast<double>(t1 - t0) / 1e6;
    const double w = static_cast<double>(kWorkers);
    const double pull = static_cast<double>(p1.pull_ns - p0.pull_ns) / w / 1e6;
    const double compute =
        static_cast<double>(p1.compute_ns - p0.compute_ns) / w / 1e6;
    const double push = static_cast<double>(p1.push_ns - p0.push_ns) / w / 1e6;
    batch_us.Add(wall_ms * 1e3);
    (traced ? batch_traced_us : batch_untraced_us).Add(wall_ms * 1e3);
    pull_ms.Add(pull);
    compute_ms.Add(compute);
    push_ms.Add(push);
    sync_ms.Add(wall_ms - pull - compute - push);
  }
  const double run_s = static_cast<double>(NowNs() - run_start) / 1e9;
  spans.set_enabled(false);
  const obs::MetricsSnapshot reg1 = obs::MetricsRegistry::Default().Snapshot();
  const ClusterCounters totals1 =
      TakeCounters(cluster, *cluster->rpc_transport());
  const auto progress = trainer.progress();
  const double examples =
      static_cast<double>(progress.examples_seen - examples0);
  report->Count(batches, failed);

  // --- output checks on the trained model ---
  if (!std::isfinite(progress.mean_logloss) || progress.mean_logloss <= 0) {
    report->Fail("logloss not finite: " +
                 std::to_string(progress.mean_logloss));
  }
  if (!(progress.auc > kAucFloor)) {
    report->Fail("AUC " + std::to_string(progress.auc) + " below floor " +
                 std::to_string(kAucFloor));
  }
  report->Config("train.final_auc", progress.auc);
  report->Config("train.final_logloss", progress.mean_logloss);

  // --- crash -> recover cycles from a durable checkpoint ---
  ps::PsClient& client = cluster->client();
  // Finish the batch group so the newest batch is a durable checkpoint.
  while ((trainer.next_batch() - 1) % kCheckpointEvery != 0) {
    if (!trainer.TrainBatches(1).ok()) {
      report->Fail("training to the checkpoint failed");
      return;
    }
  }
  const uint64_t checkpoint = trainer.next_batch() - 1;
  const std::vector<storage::EntryId> sample_keys =
      KeysOfBatch(options.seed, checkpoint);
  std::vector<std::vector<float>> sample_values;
  for (const storage::EntryId key : sample_keys) {
    auto value = client.Peek(key);
    if (!value.ok()) {
      report->Fail("peek at checkpoint: " + value.status().ToString());
      return;
    }
    sample_values.push_back(std::move(value).ValueOrDie());
  }
  auto entries = client.TotalEntries();
  if (!entries.ok()) {
    report->Fail("entry count: " + entries.status().ToString());
    return;
  }
  const uint64_t entries_at_checkpoint = entries.value();
  std::vector<double> recover_ms;
  for (int cycle = 0; cycle < kRecoveryCycles; ++cycle) {
    if (!trainer.TrainBatches(kBatchesPastCheckpoint).ok()) {
      report->Fail("training past the checkpoint failed");
      return;
    }
    cluster->SimulateCrashAll();
    spans.set_enabled(options.trace);
    const int64_t t0 = NowNs();
    const Status status = trainer.RecoverAfterCrash();
    const int64_t t1 = NowNs();
    if (options.trace) spans.Record("train", "RecoverAfterCrash", t0, t1);
    spans.set_enabled(false);
    report->Count(1, status.ok() ? 0 : 1);
    if (!status.ok()) {
      report->Fail("recover: " + status.ToString());
      return;
    }
    recover_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (trainer.next_batch() != checkpoint + 1) {
      report->Fail("recovery resumed at batch " +
                   std::to_string(trainer.next_batch()) + ", expected " +
                   std::to_string(checkpoint + 1));
    }
    auto after = client.TotalEntries();
    if (!after.ok() || after.value() != entries_at_checkpoint) {
      report->Fail("entry count after recovery differs from the checkpoint");
    }
    for (size_t i = 0; i < sample_keys.size(); ++i) {
      auto value = client.Peek(sample_keys[i]);
      if (!value.ok() || value.value() != sample_values[i]) {
        report->Fail("key " + std::to_string(sample_keys[i]) +
                     " differs from its checkpoint value after recovery");
        break;
      }
    }
  }
  const double recover_median_ms = Median(recover_ms);

  // --- end-to-end ---
  const double tail_p = TailPercentile(static_cast<double>(batch_us.size()));
  report->Config("tail_percentile", tail_p);
  report->Config("op", "global training batch (TrainBatches(1))");
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("op_p50_us", batch_us.Percentile(50), "us");
  report->EndToEnd("op_tail_us", batch_us.Percentile(tail_p), "us");
  report->EndToEnd("op_rate_per_s", examples / run_s, "1/s");
  report->EndToEnd(
      "push_keys_per_s",
      static_cast<double>(totals1.store.push_keys - totals0.store.push_keys) /
          run_s,
      "1/s");
  report->EndToEnd("recover_ms", recover_median_ms, "ms");
  report->Config("recover_ms_per_cycle", Join(recover_ms));

  // --- per layer ---
  report->LayerPercentiles("train.pull_ms", pull_ms, "ms");
  report->LayerPercentiles("train.compute_ms", compute_ms, "ms");
  report->LayerPercentiles("train.push_ms", push_ms, "ms");
  report->LayerPercentiles("train.sync_ms", sync_ms, "ms");

  const double n_batches = static_cast<double>(batch_us.size());
  ReportClusterLayers(totals0, totals1, reg0, reg1,
                      {.ops = n_batches, .batches = n_batches}, report);
  report->Layer("recover.entries_per_s",
                static_cast<double>(entries_at_checkpoint) /
                    (recover_median_ms / 1e3),
                "1/s");

  if (options.trace) {
    // Critical-path budget of the mean batch: per-worker PS phases, the
    // dense compute, and the leader's control RPCs (seal, checkpoint
    // request and drain); what no named stage covers (barrier waits, the
    // dense step, thread start-up) is the residual.
    double control_ns = 0;
    for (const char* method :
         {"finish_pull", "request_checkpoint", "drain_checkpoints"}) {
      control_ns +=
          DistributionDelta(reg0, reg1, "ps.handle_ns", {{"method", method}})
              .sum;
    }
    // Broadcasts reach every node in parallel: one node's share is on the
    // critical path.
    const double control_ms = control_ns / 1e6 / n_batches /
                              static_cast<double>(cluster->num_nodes());
    const double named_ms =
        pull_ms.Mean() + compute_ms.Mean() + push_ms.Mean() + control_ms;
    report->Layer("residual", batch_us.Mean() - named_ms * 1e3, "us");
    const double untraced = batch_untraced_us.Mean();
    report->Layer("trace_overhead",
                  untraced > 0
                      ? 100.0 * (batch_traced_us.Mean() - untraced) / untraced
                      : 0.0,
                  "%");
    spans.Write(options.out_dir + "/trace-train_skew-" +
                std::to_string(options.seed) + ".json");
  }
}

}  // namespace pb
