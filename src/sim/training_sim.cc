#include "sim/training_sim.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"

namespace oe::sim {

using storage::EntryId;
using storage::StoreKind;

TrainingSimulator::TrainingSimulator(const SimOptions& options)
    : options_(options),
      cost_model_(options.network, options.contention) {}

TrainingSimulator::TrafficSnapshot TrainingSimulator::Capture() const {
  TrafficSnapshot snap;
  snap.pmem = cluster_->TotalPmemTraffic();
  snap.dram = cluster_->TotalDramTraffic();
  snap.log = cluster_->TotalLogTraffic();
  const net::NetStats::Snapshot net = cluster_->net_stats().TakeSnapshot();
  snap.net_bytes = net.bytes_sent + net.bytes_received;
  snap.net_requests = net.requests;
  snap.sync_ops = cluster_->TotalSyncOps();
  snap.hits = cluster_->TotalCacheHits();
  snap.misses = cluster_->TotalCacheMisses();
  return snap;
}

Nanos TrainingSimulator::PhaseCost(const TrafficSnapshot& before,
                                   const TrafficSnapshot& after,
                                   int pmem_parallelism) const {
  if (pmem_parallelism <= 0) {
    pmem_parallelism = options_.contention.PmemParallelism(options_.num_gpus);
  }
  Nanos cost = 0;
  cost += cost_model_.DeviceTime(after.pmem - before.pmem,
                                 pmem::PmemTiming(), pmem_parallelism);
  cost += cost_model_.DeviceTime(after.dram - before.dram,
                                 pmem::DramTiming());
  cost += cost_model_.DeviceTime(
      after.log - before.log, pmem::TimingFor(options_.checkpoint_device),
      options_.checkpoint_device == pmem::DeviceKind::kPmem
          ? pmem_parallelism
          : 0);
  // Each worker's PsClient fans its per-node RPCs out concurrently and the
  // workers of a burst overlap with each other, so up to gpus x nodes
  // requests share one round trip per wave.
  const int net_parallelism = options_.num_gpus * options_.num_nodes;
  cost += cost_model_.NetworkTime(after.net_bytes - before.net_bytes,
                                  after.net_requests - before.net_requests,
                                  net_parallelism);
  cost += cost_model_.ContentionTime(after.sync_ops - before.sync_ops,
                                     options_.num_gpus);
  return cost;
}

void TrainingSimulator::EmitRoundTrace(const PhaseTimes& times,
                                       bool overlapped) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Default();
  if (!recorder.enabled()) return;
  constexpr int64_t kPid = obs::TraceRecorder::kSimPid;
  constexpr int64_t kWorkerRow = 1;
  constexpr int64_t kMaintRow = 2;
  if (sim_now_ == 0) {
    recorder.SetVirtualThreadName(kPid, kWorkerRow, "sim:worker");
    recorder.SetVirtualThreadName(kPid, kMaintRow, "sim:maintenance");
  }
  const Nanos t = sim_now_;
  recorder.Emit("sim", "pull", t, times.pull, kPid, kWorkerRow);
  const Nanos after_pull = t + times.pull;
  recorder.Emit("sim", "compute", after_pull, times.compute, kPid, kWorkerRow);
  if (times.maintenance > 0) {
    // With the pipeline on, maintenance overlaps the compute span on its
    // own row (the paper's hidden-latency window); the ablations charge it
    // sequentially after compute.
    const Nanos maint_start =
        overlapped ? after_pull : after_pull + times.compute;
    recorder.Emit("sim", "maintenance", maint_start, times.maintenance, kPid,
                  kMaintRow);
  }
  Nanos cursor = after_pull + (overlapped
                                   ? std::max(times.compute, times.maintenance)
                                   : times.compute + times.maintenance);
  recorder.Emit("sim", "push", cursor, times.push, kPid, kWorkerRow);
  cursor += times.push;
  if (times.checkpoint > 0) {
    recorder.Emit("sim", "checkpoint", cursor, times.checkpoint, kPid,
                  kWorkerRow);
    cursor += times.checkpoint;
  }
  if (times.dense_checkpoint > 0) {
    recorder.Emit("sim", "dense_checkpoint", cursor, times.dense_checkpoint,
                  kPid, kWorkerRow);
    cursor += times.dense_checkpoint;
  }
  if (times.allreduce > 0) {
    recorder.Emit("sim", "allreduce", cursor, times.allreduce, kPid,
                  kWorkerRow);
  }
  sim_now_ = t + times.total;
}

Status TrainingSimulator::Populate() {
  auto& client = cluster_->client();
  constexpr size_t kChunk = 32768;
  std::vector<EntryId> keys(kChunk);
  std::vector<float> weights(kChunk * options_.store.dim);
  for (uint64_t begin = 0; begin < options_.num_keys; begin += kChunk) {
    const size_t n =
        std::min<uint64_t>(kChunk, options_.num_keys - begin);
    for (size_t i = 0; i < n; ++i) keys[i] = begin + i;
    OE_RETURN_IF_ERROR(client.Pull(keys.data(), n, 1, weights.data()));
  }
  OE_RETURN_IF_ERROR(client.FinishPullPhase(1));
  OE_RETURN_IF_ERROR(client.WaitMaintenance(1));
  return Status::OK();
}

Result<EpochReport> TrainingSimulator::Run() {
  ps::ClusterOptions cluster_options;
  cluster_options.num_nodes = options_.num_nodes;
  cluster_options.kind = options_.kind;
  cluster_options.store = options_.store;
  cluster_options.pmem_bytes_per_node = options_.pmem_bytes_per_node;
  cluster_options.log_bytes_per_node = options_.log_bytes_per_node;
  cluster_options.checkpoint_device = options_.checkpoint_device;
  cluster_options.crash_fidelity = pmem::CrashFidelity::kNone;
  cluster_options.with_checkpoint_log = options_.checkpoints_per_epoch > 0;
  OE_ASSIGN_OR_RETURN(cluster_, ps::PsCluster::Create(cluster_options));

  if (options_.populate) OE_RETURN_IF_ERROR(Populate());

  workload::SkewedKeySampler sampler(options_.num_keys, options_.skew);
  std::vector<std::unique_ptr<workload::BatchTraceGenerator>> generators;
  for (int g = 0; g < options_.num_gpus; ++g) {
    generators.push_back(std::make_unique<workload::BatchTraceGenerator>(
        &sampler, options_.keys_per_worker_batch,
        options_.seed + static_cast<uint64_t>(g) * 101));
  }

  auto& client = cluster_->client();
  const uint32_t dim = options_.store.dim;
  std::vector<float> weights(options_.keys_per_worker_batch * dim);
  std::vector<float> grads(options_.keys_per_worker_batch * dim, 0.01f);
  std::vector<std::vector<EntryId>> round_keys(
      static_cast<size_t>(options_.num_gpus));

  // Warm the cache to steady state with a few unmeasured rounds.
  const int warmup = std::max(3, options_.rounds / 10);
  uint64_t batch = 1;
  const bool overlapped = options_.kind == StoreKind::kPipelined &&
                          options_.store.pipeline_enabled &&
                          options_.store.cache_enabled;
  // The pipelined-store ablations without the pipeline (cache-only or raw
  // PMem access) process each access synchronously on the request path:
  // their maintenance window lands on the critical path and they pay the
  // fine-grained per-access synchronization. Engines with no maintenance
  // window at all (DRAM-PS, Ori-Cache, PMem-Hash) do all their work inside
  // the pull/push bursts, so their maintenance window holds only
  // control-plane RPCs — not charged.
  const bool per_access_sync = options_.kind == StoreKind::kPipelined &&
                               !options_.store.pipeline_enabled;

  EpochReport report;
  TrafficSnapshot window_start;
  const int total_rounds = warmup + options_.rounds;
  const int ckpt_every =
      options_.checkpoints_per_epoch > 0
          ? std::max(1, options_.rounds / options_.checkpoints_per_epoch)
          : 0;

  for (int round = 0; round < total_rounds; ++round) {
    const bool measured = round >= warmup;
    if (round == warmup) {
      if (ckpt_every > 0) {
        // Unmeasured baseline checkpoint: flush the populate/warmup dirty
        // backlog so measured checkpoints reflect steady-state deltas (the
        // paper measures long-running training, not the first checkpoint).
        Status status = client.RequestCheckpoint(batch);
        if (!status.ok() && status.code() != StatusCode::kNotSupported &&
            status.code() != StatusCode::kFailedPrecondition) {
          return status;
        }
        dirty_since_checkpoint_.clear();
      }
      window_start = Capture();
    }
    ++batch;

    TrafficSnapshot snap0 = Capture();
    for (int g = 0; g < options_.num_gpus; ++g) {
      round_keys[g] = generators[g]->NextBatch();
      auto& keys = round_keys[g];
      if (weights.size() < keys.size() * dim) {
        weights.resize(keys.size() * dim);
      }
      OE_RETURN_IF_ERROR(
          client.Pull(keys.data(), keys.size(), batch, weights.data()));
    }
    TrafficSnapshot snap_pull = Capture();

    OE_RETURN_IF_ERROR(client.FinishPullPhase(batch));
    OE_RETURN_IF_ERROR(client.WaitMaintenance(batch));
    TrafficSnapshot snap_maint = Capture();

    for (int g = 0; g < options_.num_gpus; ++g) {
      auto& keys = round_keys[g];
      if (grads.size() < keys.size() * dim) {
        grads.resize(keys.size() * dim, 0.01f);
      }
      OE_RETURN_IF_ERROR(
          client.Push(keys.data(), keys.size(), grads.data(), batch));
    }
    TrafficSnapshot snap_push = Capture();

    if (options_.incremental_checkpoint && ckpt_every > 0) {
      for (int g = 0; g < options_.num_gpus; ++g) {
        dirty_since_checkpoint_.insert(round_keys[g].begin(),
                                       round_keys[g].end());
      }
    }

    Nanos checkpoint_time = 0;
    Nanos dense_time = 0;
    if (ckpt_every > 0 && measured &&
        (round - warmup) % ckpt_every == ckpt_every - 1) {
      if (options_.incremental_checkpoint) {
        // Independent incremental checkpointer: copy every dirty entry to
        // PMem while training is paused. These writes compete with the
        // training system's PMem traffic (Observation 2).
        const storage::EntryLayout layout(
            options_.store.dim, options_.store.optimizer.Slots());
        pmem::DeviceStats::Snapshot copy;
        copy.write_bytes = dirty_since_checkpoint_.size() *
                           layout.record_bytes();
        copy.write_ops = dirty_since_checkpoint_.size();
        copy.persist_ops = dirty_since_checkpoint_.size();
        checkpoint_time =
            cost_model_.DeviceTime(
                copy, pmem::PmemTiming(),
                options_.contention.PmemParallelism(options_.num_gpus)) +
            static_cast<Nanos>(dirty_since_checkpoint_.size()) *
                options_.incremental_record_ns;
        dirty_since_checkpoint_.clear();
      } else {
        Status status = client.RequestCheckpoint(batch);
        if (!status.ok() && status.code() != StatusCode::kNotSupported &&
            status.code() != StatusCode::kFailedPrecondition) {
          return status;
        }
        TrafficSnapshot snap_ckpt = Capture();
        checkpoint_time = PhaseCost(snap_push, snap_ckpt);
        // Engines that checkpoint by copying records into the log (DRAM-PS,
        // Ori-Cache incremental checkpoints) additionally pay the per-record
        // snapshot processing cost; the record count is what the window
        // wrote to the log. The batch-aware engine writes nothing here.
        const storage::EntryLayout layout(
            options_.store.dim, options_.store.optimizer.Slots());
        const uint64_t copied =
            (snap_ckpt.log.write_bytes - snap_push.log.write_bytes) /
            layout.record_bytes();
        checkpoint_time += static_cast<Nanos>(copied) *
                           options_.incremental_record_ns;
      }
      if (options_.dense_checkpoint) dense_time = options_.dense_checkpoint_ns;
    }

    if (!measured) continue;

    PhaseTimes times;
    times.pull = PhaseCost(snap0, snap_pull);
    // With the pipeline on, maintainer threads drain disjoint shards
    // concurrently, so the maintenance window's PMem traffic overlaps
    // across min(maintainers, shards) streams instead of the GPU burst's.
    times.maintenance =
        overlapped ? PhaseCost(snap_pull, snap_maint,
                               options_.contention.MaintenanceParallelism(
                                   options_.store.maintainer_threads,
                                   options_.store.store_shards))
                   : PhaseCost(snap_pull, snap_maint);
    if (per_access_sync) {
      // Without the pipeline, cache maintenance is per-access work on the
      // request critical path (immediate LRU update + replacement on every
      // access, as in the traditional caches of Section II-B): charge the
      // fine-grained synchronization like the Ori-Cache baseline pays.
      uint64_t accessed = 0;
      for (int g = 0; g < options_.num_gpus; ++g) {
        accessed += round_keys[g].size();
      }
      times.maintenance += cost_model_.ContentionTime(2 * accessed,
                                                      options_.num_gpus);
    }
    times.compute = options_.gpu_compute_ns;
    times.push = PhaseCost(snap_maint, snap_push);
    times.checkpoint = checkpoint_time;
    times.dense_checkpoint = dense_time;
    times.allreduce = options_.allreduce_ns;
    if (overlapped) {
      times.total = times.pull + std::max(times.compute, times.maintenance) +
                    times.push + times.checkpoint + times.dense_checkpoint +
                    times.allreduce;
    } else {
      times.total = times.pull + times.compute +
                    (per_access_sync ? times.maintenance : 0) +
                    times.push + times.checkpoint + times.dense_checkpoint +
                    times.allreduce;
      if (!per_access_sync) times.maintenance = 0;
    }

    EmitRoundTrace(times, overlapped);

    report.sums.pull += times.pull;
    report.sums.maintenance += times.maintenance;
    report.sums.compute += times.compute;
    report.sums.push += times.push;
    report.sums.checkpoint += times.checkpoint;
    report.sums.dense_checkpoint += times.dense_checkpoint;
    report.sums.allreduce += times.allreduce;
    report.sums.total += times.total;
    ++report.rounds;
  }

  const TrafficSnapshot window_end = Capture();
  const uint64_t hits = window_end.hits - window_start.hits;
  const uint64_t misses = window_end.misses - window_start.misses;
  report.miss_rate = (hits + misses) == 0
                         ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(hits + misses);
  report.pmem_read_bytes =
      window_end.pmem.read_bytes - window_start.pmem.read_bytes;
  report.pmem_write_bytes =
      window_end.pmem.write_bytes - window_start.pmem.write_bytes;
  report.net_bytes = window_end.net_bytes - window_start.net_bytes;
  report.epoch_ns = report.sums.total;
  return report;
}

}  // namespace oe::sim
