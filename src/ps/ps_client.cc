#include "ps/ps_client.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "net/message.h"
#include "ps/ps_service.h"

namespace oe::ps {

using net::Buffer;
using net::Reader;
using net::RpcCall;
using net::Writer;

namespace {

/// Process-wide client-id allocator; 0 is reserved for "no dedup".
std::atomic<uint64_t> g_next_client_id{1};

/// Writes the RpcHeader that starts every request payload. seq == 0 for
/// reads (no dedup); `route_epoch` is the slot-table epoch the request was
/// routed under (diagnostic: the service validates against the live table).
void PutHeader(Writer* writer, uint64_t client_id, uint64_t seq,
               uint64_t route_epoch) {
  writer->PutU64(client_id);
  writer->PutU64(seq);
  writer->PutU64(route_epoch);
}

/// First hard (non-wrong-owner) failure in call order, or OK. kWrongOwner
/// is the one per-call status the client handles itself — everything else
/// already went through the transport's retry policy and must surface.
Status FirstHardError(const std::vector<RpcCall>& calls) {
  for (const RpcCall& call : calls) {
    if (!call.status.ok() && !call.status.IsWrongOwner()) return call.status;
  }
  return Status::OK();
}

/// Route retry budget for keyed operations. A kWrongOwner burst lasts from
/// seal to publish; with the default RpcOptions backoff (1ms doubling,
/// 100ms cap) this budget spans well over a second of wall time — enough
/// for any in-process migration while still failing closed if routing
/// never converges.
constexpr int kMaxRouteAttempts = 16;

}  // namespace

PsClient::PsClient(net::Transport* transport, uint32_t num_nodes,
                   uint32_t dim)
    : transport_(transport),
      router_(num_nodes),
      dim_(dim),
      client_id_(g_next_client_id.fetch_add(1, std::memory_order_relaxed)) {}

Router PsClient::Route() const {
  std::lock_guard<std::mutex> lock(route_mutex_);
  return router_;
}

void PsClient::RefreshRoute() {
  if (directory_ == nullptr) return;
  std::shared_ptr<const SlotTable> current = directory_->Current();
  std::lock_guard<std::mutex> lock(route_mutex_);
  if (current->epoch > router_.epoch()) router_ = Router(std::move(current));
}

std::shared_ptr<const SlotTable> PsClient::BroadcastTable() const {
  if (directory_ != nullptr) return directory_->Current();
  std::lock_guard<std::mutex> lock(route_mutex_);
  return router_.table();
}

void PsClient::BackoffBeforeRetry(int attempt) const {
  const net::RpcOptions& opts = transport_->rpc_options();
  int64_t backoff_ms = std::max<int64_t>(1, opts.backoff_initial_ms);
  for (int i = 0; i < attempt; ++i) {
    backoff_ms = std::min<int64_t>(
        static_cast<int64_t>(backoff_ms * opts.backoff_multiplier),
        std::max<int64_t>(1, opts.backoff_max_ms));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
}

PsClient::OwnerPartition PsClient::PartitionByOwner(
    const Router& router, const storage::EntryId* keys, const size_t* subset,
    size_t n) {
  OwnerPartition part;
  part.positions.resize(router.num_nodes());
  for (size_t j = 0; j < n; ++j) {
    const size_t i = subset != nullptr ? subset[j] : j;
    part.positions[router.NodeFor(keys[i])].push_back(i);
  }
  for (uint32_t node = 0; node < router.num_nodes(); ++node) {
    if (!part.positions[node].empty()) part.nodes.push_back(node);
  }
  return part;
}

Status PsClient::Pull(const storage::EntryId* keys, size_t n, uint64_t batch,
                      float* out) {
  if (n == 0) return Status::OK();
  for (int attempt = 0; attempt < kMaxRouteAttempts; ++attempt) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt - 1);
      RefreshRoute();
    }
    const Router router = Route();
    const OwnerPartition part = PartitionByOwner(router, keys, nullptr, n);
    const auto& nodes = part.nodes;

    // One request per owning node, issued concurrently (Section IV: the
    // worker reaches every PS shard in one overlapped round trip).
    std::vector<Buffer> requests(nodes.size());
    std::vector<Buffer> responses(nodes.size());
    std::vector<RpcCall> calls(nodes.size());
    for (size_t c = 0; c < nodes.size(); ++c) {
      const auto& pos = part.positions[nodes[c]];
      Writer writer(&requests[c]);
      PutHeader(&writer, client_id_, /*seq=*/0, router.epoch());  // read
      writer.PutU64(batch);
      writer.PutU32(static_cast<uint32_t>(pos.size()));
      for (size_t i : pos) writer.PutRaw(&keys[i], sizeof(keys[i]));
      calls[c] = {nodes[c], static_cast<uint32_t>(PsMethod::kPull),
                  &requests[c], &responses[c], Status::OK()};
    }
    Status fan_out = transport_->ParallelCall(&calls);
    if (!fan_out.ok()) {
      OE_RETURN_IF_ERROR(FirstHardError(calls));
      continue;  // every failure was kWrongOwner: refresh and re-route
    }

    // Reassemble in key order. Pulls are idempotent, so a retried round
    // simply overwrites any positions already filled.
    for (size_t c = 0; c < nodes.size(); ++c) {
      const auto& pos = part.positions[nodes[c]];
      Reader reader(responses[c]);
      std::vector<float> weights;
      OE_RETURN_IF_ERROR(reader.GetFloatSpan(&weights));
      if (weights.size() != pos.size() * dim_) {
        return Status::Corruption("pull response size mismatch");
      }
      for (size_t j = 0; j < pos.size(); ++j) {
        std::memcpy(out + pos[j] * dim_, weights.data() + j * dim_,
                    dim_ * sizeof(float));
      }
    }
    return Status::OK();
  }
  return Status::Unavailable("pull: routing did not converge (kWrongOwner "
                             "persisted past the retry budget)");
}

Status PsClient::Push(const storage::EntryId* keys, size_t n,
                      const float* grads, uint64_t batch) {
  if (n == 0) return Status::OK();
  // Positions still unacknowledged after a partial fan-out failure; empty
  // until the first re-route (the first round sends every position).
  std::vector<size_t> pending;
  for (int attempt = 0; attempt < kMaxRouteAttempts; ++attempt) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt - 1);
      RefreshRoute();
    }
    const Router router = Route();
    const OwnerPartition part =
        attempt == 0 ? PartitionByOwner(router, keys, nullptr, n)
                     : PartitionByOwner(router, keys, pending.data(),
                                        pending.size());
    const auto& nodes = part.nodes;

    std::vector<Buffer> requests(nodes.size());
    std::vector<Buffer> responses(nodes.size());
    std::vector<RpcCall> calls(nodes.size());
    // One seq for the whole round: each node dedups independently, and a
    // transport-retried per-node request reuses its buffer (same header),
    // so a double-delivered gradient applies exactly once. A *re-route*
    // round uses a fresh seq — safe, because a kWrongOwner rejection is
    // wholesale (the rejecting node applied nothing under the old seq),
    // and necessary, because the new owner may have cached a reply for the
    // old seq covering different keys and would replay it without applying
    // the re-routed ones.
    const uint64_t seq = NextSeq();
    for (size_t c = 0; c < nodes.size(); ++c) {
      const auto& pos = part.positions[nodes[c]];
      Writer writer(&requests[c]);
      PutHeader(&writer, client_id_, seq, router.epoch());
      writer.PutU64(batch);
      writer.PutU32(static_cast<uint32_t>(pos.size()));
      for (size_t i : pos) writer.PutRaw(&keys[i], sizeof(keys[i]));
      writer.PutU32(static_cast<uint32_t>(pos.size() * dim_));
      for (size_t i : pos) {
        writer.PutRaw(grads + i * dim_, dim_ * sizeof(float));
      }
      calls[c] = {nodes[c], static_cast<uint32_t>(PsMethod::kPush),
                  &requests[c], &responses[c], Status::OK()};
    }
    Status fan_out = transport_->ParallelCall(&calls);
    if (fan_out.ok()) return Status::OK();
    OE_RETURN_IF_ERROR(FirstHardError(calls));

    // Only nodes that rejected with kWrongOwner (applied nothing) are
    // re-routed; acknowledged nodes are not re-sent.
    pending.clear();
    for (size_t c = 0; c < nodes.size(); ++c) {
      if (!calls[c].status.IsWrongOwner()) continue;
      const auto& pos = part.positions[nodes[c]];
      pending.insert(pending.end(), pos.begin(), pos.end());
    }
  }
  return Status::Unavailable("push: routing did not converge (kWrongOwner "
                             "persisted past the retry budget)");
}

Status PsClient::MultiGet(const storage::EntryId* keys, size_t n, float* out,
                          uint8_t* found, uint64_t* snapshot_version) {
  if (snapshot_version != nullptr) *snapshot_version = 0;
  if (n == 0) return Status::OK();

  // Each node serves its own last published checkpoint; a response set is a
  // cluster-consistent snapshot only when they all name the same version.
  // Disagreement means a cluster-wide publish was mid-flight, kWrongOwner
  // means a migration republished routing — both short-lived, so a bounded
  // retry of the whole fan-out resolves them. Attempts back off with the
  // transport's RpcOptions policy so a publish-in-flight window doesn't
  // burn the entire budget in microseconds.
  constexpr int kMaxAttempts = 8;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt - 1);
      RefreshRoute();
    }
    const Router router = Route();
    const OwnerPartition part = PartitionByOwner(router, keys, nullptr, n);
    const auto& nodes = part.nodes;

    std::vector<Buffer> requests(nodes.size());
    std::vector<Buffer> responses(nodes.size());
    std::vector<RpcCall> calls(nodes.size());
    for (size_t c = 0; c < nodes.size(); ++c) {
      const auto& pos = part.positions[nodes[c]];
      Writer writer(&requests[c]);
      PutHeader(&writer, client_id_, /*seq=*/0, router.epoch());  // read
      writer.PutU32(static_cast<uint32_t>(pos.size()));
      for (size_t i : pos) writer.PutRaw(&keys[i], sizeof(keys[i]));
      calls[c] = {nodes[c], static_cast<uint32_t>(PsMethod::kMultiGet),
                  &requests[c], &responses[c], Status::OK()};
    }
    Status fan_out = transport_->ParallelCall(&calls);
    if (!fan_out.ok()) {
      OE_RETURN_IF_ERROR(FirstHardError(calls));
      continue;  // kWrongOwner only: refresh and re-route
    }

    bool agree = true;
    uint64_t cluster_cp = 0;
    for (size_t c = 0; c < nodes.size(); ++c) {
      const auto& pos = part.positions[nodes[c]];
      Reader reader(responses[c]);
      uint64_t node_cp = 0;
      OE_RETURN_IF_ERROR(reader.GetU64(&node_cp));
      if (c == 0) {
        cluster_cp = node_cp;
      } else if (node_cp != cluster_cp) {
        agree = false;
        break;
      }
      std::vector<uint8_t> node_found(pos.size());
      OE_RETURN_IF_ERROR(reader.GetRaw(node_found.data(), node_found.size()));
      std::vector<float> weights;
      OE_RETURN_IF_ERROR(reader.GetFloatSpan(&weights));
      if (weights.size() != pos.size() * dim_) {
        return Status::Corruption("multi-get response size mismatch");
      }
      for (size_t j = 0; j < pos.size(); ++j) {
        found[pos[j]] = node_found[j];
        std::memcpy(out + pos[j] * dim_, weights.data() + j * dim_,
                    dim_ * sizeof(float));
      }
    }
    if (agree) {
      if (snapshot_version != nullptr) *snapshot_version = cluster_cp;
      return Status::OK();
    }
  }
  return Status::Unavailable(
      "PS nodes did not converge on a published checkpoint");
}

Result<std::vector<Buffer>> PsClient::Broadcast(uint32_t method,
                                                const Buffer& request) {
  const std::shared_ptr<const SlotTable> table = BroadcastTable();
  const auto& active = table->active;
  std::vector<Buffer> responses(active.size());
  std::vector<RpcCall> calls(active.size());
  for (size_t i = 0; i < active.size(); ++i) {
    calls[i] = {active[i], method, &request, &responses[i], Status::OK()};
  }
  OE_RETURN_IF_ERROR(transport_->ParallelCall(&calls));
  return responses;
}

Status PsClient::FinishPullPhase(uint64_t batch) {
  Buffer request;
  Writer writer(&request);
  PutHeader(&writer, client_id_, NextSeq(), Route().epoch());
  writer.PutU64(batch);
  return Broadcast(static_cast<uint32_t>(PsMethod::kFinishPull), request)
      .status();
}

Status PsClient::WaitMaintenance(uint64_t batch) {
  Buffer request;
  Writer writer(&request);
  PutHeader(&writer, client_id_, /*seq=*/0, Route().epoch());  // pure wait
  writer.PutU64(batch);
  return Broadcast(static_cast<uint32_t>(PsMethod::kWaitMaintenance),
                   request)
      .status();
}

Status PsClient::RequestCheckpoint(uint64_t batch) {
  Buffer request;
  Writer writer(&request);
  PutHeader(&writer, client_id_, NextSeq(), Route().epoch());
  writer.PutU64(batch);
  return Broadcast(static_cast<uint32_t>(PsMethod::kRequestCheckpoint),
                   request)
      .status();
}

Status PsClient::DrainCheckpoints() {
  Buffer request;
  Writer writer(&request);
  PutHeader(&writer, client_id_, NextSeq(), Route().epoch());
  return Broadcast(static_cast<uint32_t>(PsMethod::kDrainCheckpoints),
                   request)
      .status();
}

Status PsClient::Recover() {
  Buffer request;
  Writer writer(&request);
  PutHeader(&writer, client_id_, NextSeq(), Route().epoch());
  return Broadcast(static_cast<uint32_t>(PsMethod::kRecover), request)
      .status();
}

Result<uint64_t> PsClient::TotalEntries() {
  Buffer request;
  Writer writer(&request);
  PutHeader(&writer, client_id_, /*seq=*/0, Route().epoch());  // read
  OE_ASSIGN_OR_RETURN(
      const auto responses,
      Broadcast(static_cast<uint32_t>(PsMethod::kEntryCount), request));
  uint64_t total = 0;
  for (const Buffer& response : responses) {
    uint64_t count = 0;
    OE_RETURN_IF_ERROR(Reader(response).GetU64(&count));
    total += count;
  }
  return total;
}

Result<uint64_t> PsClient::ClusterCheckpoint() {
  Buffer request;
  Writer writer(&request);
  PutHeader(&writer, client_id_, /*seq=*/0, Route().epoch());  // read
  OE_ASSIGN_OR_RETURN(
      const auto responses,
      Broadcast(static_cast<uint32_t>(PsMethod::kPublishedCheckpoint),
                request));
  uint64_t min_cp = ~0ULL;
  for (const Buffer& response : responses) {
    uint64_t cp = 0;
    OE_RETURN_IF_ERROR(Reader(response).GetU64(&cp));
    min_cp = std::min(min_cp, cp);
  }
  return min_cp == ~0ULL ? 0 : min_cp;
}

Result<std::vector<float>> PsClient::Peek(storage::EntryId key) {
  for (int attempt = 0; attempt < kMaxRouteAttempts; ++attempt) {
    if (attempt > 0) {
      BackoffBeforeRetry(attempt - 1);
      RefreshRoute();
    }
    const Router router = Route();
    const net::NodeId node = router.NodeFor(key);
    Buffer request;
    Writer writer(&request);
    PutHeader(&writer, client_id_, /*seq=*/0, router.epoch());  // read
    writer.PutU64(key);
    Buffer response;
    Status status = transport_->Call(
        node, static_cast<uint32_t>(PsMethod::kPeek), request, &response);
    if (status.IsWrongOwner()) continue;
    OE_RETURN_IF_ERROR(status);
    std::vector<float> weights;
    OE_RETURN_IF_ERROR(Reader(response).GetFloatSpan(&weights));
    return weights;
  }
  return Status::Unavailable("peek: routing did not converge (kWrongOwner "
                             "persisted past the retry budget)");
}

}  // namespace oe::ps
