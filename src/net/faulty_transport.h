#ifndef OE_NET_FAULTY_TRANSPORT_H_
#define OE_NET_FAULTY_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/random.h"
#include "common/status.h"
#include "net/transport.h"

namespace oe::net {

/// Deterministic fault-injection plan for one node's RPC traffic, the
/// network-layer sibling of pmem::FaultPlan. Calls through a
/// FaultyTransport to a node are numbered 1, 2, 3, ... per node; the
/// rate fields draw from a per-node seeded PRNG (so two runs with the same
/// seed see the same schedule regardless of other nodes' traffic), while
/// the `*_at` ordinals fire exactly once at a chosen call.
///
/// Fault semantics, by the client's view of the world:
///   drop           request never reaches the server       -> kUnavailable
///   fail_response  server EXECUTED, reply lost on the way -> kIoError
///   duplicate      request delivered twice (retry storm); first reply wins
///   delay          response held for delay_ms before delivery
///   disconnect_at  node goes down right AFTER this call completes
///   kill_at        node is killed right BEFORE this call dispatches
///
/// fail_response and duplicate are the interesting ones for exactly-once
/// semantics: both make the server execute a request the client believes
/// (or may believe) failed, so a retry double-applies unless the server
/// dedups by sequence id (see PsService).
struct NetFaultSpec {
  /// Probability a call is dropped before reaching the server.
  double drop_rate = 0.0;
  /// Probability a call executes server-side but the client sees kIoError.
  double fail_response_rate = 0.0;
  /// Probability a call is delivered twice back-to-back.
  double duplicate_rate = 0.0;
  /// Probability a call's response is delayed by delay_ms.
  double delay_rate = 0.0;
  int64_t delay_ms = 5;
  /// Response-bandwidth model: every successful call is additionally held
  /// for response_bytes * response_ns_per_byte nanoseconds before the
  /// caller sees the reply (0 disables). Unlike delay_rate/delay_ms (a
  /// flat per-call hiccup), this makes latency proportional to payload, so
  /// a pull-heavy phase costs what it transfers while tiny acks stay
  /// cheap — the worker-downlink model bench_prefetch uses to make
  /// pull/compute overlap measurable.
  uint64_t response_ns_per_byte = 0;
  /// Take the node down after the Nth call to it completes (0 = never).
  /// Subsequent calls return kUnavailable until the node is revived.
  uint64_t disconnect_at = 0;
  /// Invoke the kill callback before dispatching the Nth call (0 = never),
  /// then mark the node down. Models a process crash mid-fan-out.
  uint64_t kill_at = 0;
};

/// Per-node injection counters (all faults that fired, by kind).
struct NetFaultStats {
  uint64_t calls = 0;
  uint64_t dropped = 0;
  uint64_t failed_responses = 0;
  uint64_t duplicated = 0;
  uint64_t delayed = 0;
  uint64_t unavailable = 0;  // calls rejected because the node was down
};

/// Decorator that injects network faults between a client and the wrapped
/// transport, per node, on a deterministic seeded schedule. Sits outermost
/// in the stack (client -> FaultyTransport -> InProc/Tcp), so the
/// Transport::Call retry policy of THIS object is what re-attempts through
/// the fault schedule — exactly the path a real lossy network exercises.
///
/// Thread-safe: per-node state is guarded by a mutex; the wrapped call
/// itself runs outside the lock so concurrent fan-out stays concurrent.
/// Determinism is per node, not global: each node's schedule depends only
/// on the seed and that node's call ordinal.
class FaultyTransport final : public Transport {
 public:
  /// `base` must outlive this transport. `seed` derives every per-node
  /// PRNG (node id is folded in, so nodes see distinct streams).
  explicit FaultyTransport(Transport* base, uint64_t seed = 1);

  /// Installs `spec` for calls to `node`. Replaces any previous spec and
  /// resets the node's ordinal counter and PRNG, so a schedule can be
  /// re-armed mid-test.
  void SetFaultSpec(NodeId node, const NetFaultSpec& spec);

  /// Marks a node down (kUnavailable) or revives it. RestartNode uses this
  /// to model the window between crash and recovery.
  void SetNodeDown(NodeId node, bool down);
  bool IsNodeDown(NodeId node) const;

  /// Callback fired by kill_at, with the node id, before the call
  /// dispatches. Typically wired to PsCluster::KillNode. Runs on the
  /// calling thread with no FaultyTransport lock held.
  void SetKillCallback(std::function<void(NodeId)> callback);

  NetFaultStats FaultStats(NodeId node) const;

  Status CallOnce(NodeId node, uint32_t method, const Buffer& request,
                  Buffer* response) override;

 private:
  struct NodeState {
    NetFaultSpec spec;
    Random rng;
    uint64_t ordinal = 0;  // calls seen, 1-based after increment
    bool down = false;
    NetFaultStats stats;
  };

  /// What CallOnce decided to do, computed under the lock, acted on
  /// outside it.
  struct Decision {
    bool unavailable = false;
    bool kill = false;
    bool drop = false;
    bool fail_response = false;
    bool duplicate = false;
    int64_t delay_ms = 0;
    uint64_t response_ns_per_byte = 0;
    bool disconnect_after = false;
  };

  NodeState* StateLocked(NodeId node);

  Transport* base_;
  uint64_t seed_;
  std::function<void(NodeId)> kill_callback_;

  mutable std::mutex mutex_;
  std::unordered_map<NodeId, std::unique_ptr<NodeState>> nodes_;
};

}  // namespace oe::net

#endif  // OE_NET_FAULTY_TRANSPORT_H_
