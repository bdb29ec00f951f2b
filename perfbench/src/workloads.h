// The three benchmark workloads and the metric names they report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace pb {

/// SyncTrainer on two PipelinedStore nodes with a live set many times the
/// DRAM cache, durable checkpoints, then crash -> recover cycles.
void RunTrainSkew(const Options& options, Report* report);

/// MultiGet reads (open loop, then closed loop) over two in-process nodes
/// while a closed-loop training driver pushes and publishes checkpoints.
void RunServeMixed(const Options& options, Report* report);

/// The same read stream against two PsServices behind TcpServer on
/// loopback, read-only; then the driver's writes alone, over TCP.
void RunServeTcp(const Options& options, Report* report);

}  // namespace pb

#endif  // PERFBENCH_WORKLOADS_H_
