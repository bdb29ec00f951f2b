#ifndef OE_SIM_TRAINING_SIM_H_
#define OE_SIM_TRAINING_SIM_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "ps/ps_cluster.h"
#include "sim/cost_model.h"
#include "workload/skew.h"
#include "workload/trace.h"

namespace oe::sim {

/// Deterministic end-to-end training-time simulator.
///
/// The simulator executes the *real* storage/PS code path — every pull,
/// push, eviction, flush and checkpoint runs through the actual engines —
/// but derives time from the recorded device/network/contention traffic
/// via CostModel instead of wall-clock (a small CPU host cannot time a
/// 16-GPU cluster). Phase composition follows the paper's pipeline:
///
///   round = pull-burst
///         + max(GPU compute, deferred cache maintenance)   [PMem-OE]
///         + push-burst + checkpoint work (if due)
///
/// Engines without the pipeline pay maintenance inside the pull/push
/// bursts, which is exactly how their deltas are recorded.
struct SimOptions {
  int num_gpus = 4;
  storage::StoreKind kind = storage::StoreKind::kPipelined;

  // Workload (scaled-down stand-in for the 2.1B-entry production trace).
  uint64_t num_keys = 1 << 20;
  workload::SkewPreset skew = workload::SkewPreset::kOriginal;
  size_t keys_per_worker_batch = 4096;
  uint64_t seed = 1;

  /// Rounds simulated; one run models one (scaled) epoch.
  int rounds = 30;
  /// Checkpoints spread over the run (0 = no checkpointing). The paper's
  /// 20-minute interval over a 5.3-hour epoch is ~16 checkpoints/epoch.
  int checkpoints_per_epoch = 0;
  /// Table IV configurations: include the dense (TensorFlow) checkpoint
  /// cost, and/or the sparse checkpoint.
  bool dense_checkpoint = true;
  /// Sparse checkpointing strategy (Table IV): false = the co-designed
  /// batch-aware checkpoint (a queue append; flushing rides on cache
  /// maintenance); true = the independent incremental checkpointer of
  /// CheckFreq [11] — every entry dirtied since the last checkpoint is
  /// copied to PMem synchronously, interfering with training (the extra
  /// writes land on the round's critical path).
  bool incremental_checkpoint = false;
  /// Per-record processing cost of incremental checkpointing (CheckFreq
  /// [11]-style copy-on-write snapshot, serialization and bookkeeping
  /// stalls beyond the raw device copy). Charged per dirty record on the
  /// critical path for every engine that checkpoints by copying.
  Nanos incremental_record_ns = 330;

  /// GPU forward+backward per batch (V100, batch 4096 DeepFM ~ 10 ms).
  Nanos gpu_compute_ns = 10000000;
  /// Dense-model checkpoint pause (GPU -> local storage, one worker),
  /// scaled to the simulated epoch: ~0.08% of an epoch per checkpoint, the
  /// residue Fig. 12/13 attribute to the TensorFlow dense checkpoint.
  Nanos dense_checkpoint_ns = 1000000;
  /// Per-round allreduce/barrier overhead for the dense model.
  Nanos allreduce_ns = 1000000;

  // PS tier.
  uint32_t num_nodes = 2;
  storage::StoreConfig store;
  uint64_t pmem_bytes_per_node = 1ULL << 30;
  uint64_t log_bytes_per_node = 512ULL << 20;
  pmem::DeviceKind checkpoint_device = pmem::DeviceKind::kPmem;

  NetworkSpec network;
  ContentionSpec contention;

  /// Pre-create every key before measuring (steady-state epoch, like the
  /// paper's measurements past the first epoch).
  bool populate = true;

  SimOptions() {
    store.dim = 64;
    store.cache_bytes = 8ULL << 20;
    store.pmem_hash_buckets = 1 << 18;
  }
};

struct PhaseTimes {
  Nanos pull = 0;
  Nanos maintenance = 0;  // deferred work (overlappable for PMem-OE)
  Nanos compute = 0;
  Nanos push = 0;
  Nanos checkpoint = 0;        // sparse checkpoint work on the critical path
  Nanos dense_checkpoint = 0;  // TF-side dense dump
  Nanos allreduce = 0;
  Nanos total = 0;
};

struct EpochReport {
  PhaseTimes sums;         // across all rounds
  Nanos epoch_ns = 0;      // simulated epoch time
  double miss_rate = 0;    // cache miss rate over the measured window
  uint64_t rounds = 0;
  uint64_t pmem_read_bytes = 0;
  uint64_t pmem_write_bytes = 0;
  uint64_t net_bytes = 0;

  double EpochHours(double scale = 1.0) const {
    return static_cast<double>(epoch_ns) * scale / 3.6e12;
  }
};

class TrainingSimulator {
 public:
  explicit TrainingSimulator(const SimOptions& options);

  /// Builds the cluster, populates, and simulates one epoch.
  Result<EpochReport> Run();

  /// The cluster from the last Run() (introspection for benches).
  ps::PsCluster* cluster() { return cluster_.get(); }

 private:
  struct TrafficSnapshot {
    pmem::DeviceStats::Snapshot pmem;
    pmem::DeviceStats::Snapshot dram;
    pmem::DeviceStats::Snapshot log;
    uint64_t net_bytes = 0;
    uint64_t net_requests = 0;
    uint64_t sync_ops = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  TrafficSnapshot Capture() const;
  /// Emits one measured round's phases onto the synthetic simulated-time
  /// trace tracks (pid = TraceRecorder::kSimPid): a worker row (pull /
  /// compute / push / checkpoint) and a maintenance row whose span runs
  /// concurrently with compute when the pipeline overlaps them. No-op when
  /// tracing is disabled. Advances sim_now_ by the round's total.
  void EmitRoundTrace(const PhaseTimes& times, bool overlapped);
  /// `pmem_parallelism` <= 0 charges the phase's PMem traffic at the
  /// default burst parallelism PmemParallelism(num_gpus); the maintenance
  /// phase of the sharded pipelined engine overrides it with
  /// MaintenanceParallelism (maintainer threads over disjoint shards).
  Nanos PhaseCost(const TrafficSnapshot& before, const TrafficSnapshot& after,
                  int pmem_parallelism = 0) const;
  Status Populate();

  SimOptions options_;
  CostModel cost_model_;
  std::unique_ptr<ps::PsCluster> cluster_;
  std::unordered_set<storage::EntryId> dirty_since_checkpoint_;
  /// Simulated-time cursor for the synthetic trace (ns since epoch start).
  Nanos sim_now_ = 0;
};

}  // namespace oe::sim

#endif  // OE_SIM_TRAINING_SIM_H_
