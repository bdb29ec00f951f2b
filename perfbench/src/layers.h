// Per-layer metrics shared by the workloads: the full list every workload
// reports, and the layers read from cluster counters and the metrics
// registry over a measured phase.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include "harness.h"
#include "net/transport.h"
#include "ps/ps_cluster.h"

namespace pb {

/// Fills every per-layer metric with 0 in its unit, so each workload reports
/// the full list; a workload overwrites the layers it exercises and leaves
/// the rest at 0 (not exercised).
void DeclareLayers(Report* report);

/// Counters summed over a cluster's nodes at one instant.
struct ClusterCounters {
  storage::StoreStats::Snapshot store;
  pmem::DeviceStats::Snapshot pmem;
  net::NetStats::Snapshot net;
  uint64_t serving_hits = 0;
  uint64_t serving_misses = 0;
};

/// Reads the counters of `cluster`'s stores, devices and ServingCaches, and
/// of `transport` (the one the measured operations go through).
ClusterCounters TakeCounters(ps::PsCluster* cluster,
                             const net::Transport& transport);

/// What a measured phase did, for per-operation ratios.
struct PhaseWork {
  double ops = 0;        // end-to-end operations (batches or reads)
  double batches = 0;    // training batches (trainer or driver)
  double read_keys = 0;  // keys read by MultiGet
};

/// Reports the layers a phase's counter and registry deltas give: net
/// (rpc_us, rpcs_per_op, bytes_per_key), handler (from ps.handle_ns),
/// storage, pmem and serving cache.
void ReportClusterLayers(const ClusterCounters& before,
                         const ClusterCounters& after,
                         const obs::MetricsSnapshot& reg_before,
                         const obs::MetricsSnapshot& reg_after,
                         const PhaseWork& work, Report* report);

}  // namespace pb

#endif  // PERFBENCH_LAYERS_H_
