#include "ps/ps_service.h"

#include <string>
#include <vector>

#include "common/clock.h"
#include "obs/trace.h"
#include "ps/slot_table.h"
#include "storage/pipelined_store.h"

namespace oe::ps {

using net::Reader;
using net::Writer;

namespace {

/// Stable span/label name for a PsMethod (string literals, as ScopedSpan
/// requires). Out-of-range ids fall back to "unknown".
const char* PsMethodName(uint32_t method) {
  switch (static_cast<PsMethod>(method)) {
    case PsMethod::kPull:
      return "pull";
    case PsMethod::kPush:
      return "push";
    case PsMethod::kFinishPull:
      return "finish_pull";
    case PsMethod::kRequestCheckpoint:
      return "request_checkpoint";
    case PsMethod::kDrainCheckpoints:
      return "drain_checkpoints";
    case PsMethod::kRecover:
      return "recover";
    case PsMethod::kEntryCount:
      return "entry_count";
    case PsMethod::kPublishedCheckpoint:
      return "published_checkpoint";
    case PsMethod::kPeek:
      return "peek";
    case PsMethod::kWaitMaintenance:
      return "wait_maintenance";
    case PsMethod::kMultiGet:
      return "multi_get";
  }
  return "unknown";
}

}  // namespace

obs::Distribution* PsService::HandleLatencyFor(uint32_t method) {
  std::atomic<obs::Distribution*>& slot =
      handle_latency_[method <= kMaxMethodId ? method : 0];
  obs::Distribution* dist = slot.load(std::memory_order_acquire);
  if (dist != nullptr) return dist;
  // Racing registrations return the same stable pointer; idempotent.
  const obs::Labels labels = {{"service", std::to_string(obs_id_)},
                              {"method", PsMethodName(method)}};
  dist =
      obs::MetricsRegistry::Default().GetDistribution("ps.handle_ns", labels);
  slot.store(dist, std::memory_order_release);
  return dist;
}

Status PsService::Handle(uint32_t method, const net::Buffer& request,
                         net::Buffer* response) {
  obs::ScopedSpan span("ps", PsMethodName(method));
  const Nanos handle_start = WallNowNanos();
  Reader reader(request);
  RpcHeader header;
  OE_RETURN_IF_ERROR(reader.GetU64(&header.client_id));
  OE_RETURN_IF_ERROR(reader.GetU64(&header.seq));
  OE_RETURN_IF_ERROR(reader.GetU64(&header.route_epoch));

  // Dedup replay runs BEFORE any ownership check: a push that already
  // applied here must replay its cached OK even after the key's slot
  // migrated away — rejecting it with kWrongOwner would make the client
  // re-route and apply the gradient a second time at the new owner (which
  // imported the post-push state).
  const bool dedup = header.client_id != 0 && header.seq != 0 &&
                     IsMutatingMethod(static_cast<PsMethod>(method));
  if (dedup) {
    std::lock_guard<std::mutex> lock(dedup_mutex_);
    ClientWindow& window = windows_[header.client_id];
    auto it = window.replies.find(header.seq);
    if (it != window.replies.end()) {
      // Retry (or network duplicate) of an operation that already ran:
      // replay the recorded reply without touching the store.
      ++dedup_hits_;
      *response = it->second.response;
      HandleLatencyFor(method)->Record(
          static_cast<double>(WallNowNanos() - handle_start));
      return it->second.status;
    }
  }

  Status status = Dispatch(method, &reader, response, header);

  if (dedup && !status.IsWrongOwner()) {
    // Remember the outcome — errors too: re-executing a failed mutation
    // could succeed the second time and leave the client unsure how many
    // times it applied. One seq, one execution, one answer. kWrongOwner is
    // the exception: nothing was applied (the rejection is wholesale, before
    // any store access), the client abandons the seq for a fresh one on
    // re-route, and filling the FIFO window with dead rejections would
    // evict the cached replies of mutations that actually ran.
    std::lock_guard<std::mutex> lock(dedup_mutex_);
    ClientWindow& window = windows_[header.client_id];
    if (window.replies.emplace(header.seq, CachedReply{status, *response})
            .second) {
      window.order.push_back(header.seq);
      if (window.order.size() > kDedupWindow) {
        window.replies.erase(window.order.front());
        window.order.pop_front();
      }
    }
  }
  HandleLatencyFor(method)->Record(
      static_cast<double>(WallNowNanos() - handle_start));
  return status;
}

uint64_t PsService::DedupHits() const {
  std::lock_guard<std::mutex> lock(dedup_mutex_);
  return dedup_hits_;
}

void PsService::SealSlots(const std::vector<uint32_t>& slots) {
  std::unique_lock<std::shared_mutex> lock(route_mutex_);
  if (sealed_.empty()) sealed_.assign(storage::kNumRoutingSlots, false);
  for (uint32_t slot : slots) {
    if (slot < sealed_.size()) sealed_[slot] = true;
  }
}

void PsService::UnsealSlots(const std::vector<uint32_t>& slots) {
  std::unique_lock<std::shared_mutex> lock(route_mutex_);
  if (sealed_.empty()) return;
  for (uint32_t slot : slots) {
    if (slot < sealed_.size()) sealed_[slot] = false;
  }
}

Status PsService::CheckOwnership(const uint64_t* keys, size_t n,
                                 bool check_seal,
                                 const RpcHeader& header) const {
  if (directory_ == nullptr) return Status::OK();
  const std::shared_ptr<const SlotTable> table = directory_->Current();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = keys[i];
    const uint32_t slot = storage::SlotOfKey(key);
    if (table->owners[slot] != node_id_ ||
        (check_seal && !sealed_.empty() && sealed_[slot])) {
      wrong_owner_rejects_.fetch_add(1, std::memory_order_relaxed);
      return Status::WrongOwner(
          "slot " + std::to_string(slot) + " (key " + std::to_string(key) +
          ") not served by node " + std::to_string(node_id_) +
          " at epoch " + std::to_string(table->epoch) +
          " (request routed at epoch " + std::to_string(header.route_epoch) +
          ")");
    }
  }
  return Status::OK();
}

Status PsService::Dispatch(uint32_t method, Reader* reader,
                           net::Buffer* response, const RpcHeader& header) {
  Writer writer(response);
  switch (static_cast<PsMethod>(method)) {
    case PsMethod::kPull:
      return HandlePull(reader, response, header);
    case PsMethod::kPush:
      return HandlePush(reader, header);
    case PsMethod::kFinishPull: {
      uint64_t batch = 0;
      OE_RETURN_IF_ERROR(reader->GetU64(&batch));
      store_->FinishPullPhase(batch);
      return Status::OK();
    }
    case PsMethod::kRequestCheckpoint: {
      uint64_t batch = 0;
      OE_RETURN_IF_ERROR(reader->GetU64(&batch));
      return store_->RequestCheckpoint(batch);
    }
    case PsMethod::kDrainCheckpoints:
      return store_->DrainCheckpoints();
    case PsMethod::kRecover:
      return store_->RecoverFromCrash();
    case PsMethod::kEntryCount:
      writer.PutU64(store_->EntryCount());
      return Status::OK();
    case PsMethod::kPublishedCheckpoint:
      writer.PutU64(store_->PublishedCheckpoint());
      return Status::OK();
    case PsMethod::kPeek:
      return HandlePeek(reader, response, header);
    case PsMethod::kWaitMaintenance: {
      uint64_t batch = 0;
      OE_RETURN_IF_ERROR(reader->GetU64(&batch));
      if (auto* pipelined =
              dynamic_cast<storage::PipelinedStore*>(store_)) {
        pipelined->WaitMaintenance(batch);
      }
      return Status::OK();
    }
    case PsMethod::kMultiGet:
      return HandleMultiGet(reader, response, header);
  }
  return Status::NotSupported("unknown method " + std::to_string(method));
}

Status PsService::HandlePull(Reader* reader, net::Buffer* response,
                             const RpcHeader& header) {
  uint64_t batch = 0;
  OE_RETURN_IF_ERROR(reader->GetU64(&batch));
  std::vector<uint64_t> keys;
  OE_RETURN_IF_ERROR(reader->GetU64Span(&keys));
  // Held shared for the whole store access: SealSlots (exclusive) then
  // doubles as the barrier that drains in-flight pulls before an export —
  // a pull can materialize new entries, which must not slip past the
  // migration snapshot.
  std::shared_lock<std::shared_mutex> route_lock(route_mutex_);
  OE_RETURN_IF_ERROR(
      CheckOwnership(keys.data(), keys.size(), /*check_seal=*/true, header));
  const uint32_t dim = store_->config().dim;
  std::vector<float> weights(keys.size() * dim);
  OE_RETURN_IF_ERROR(
      store_->Pull(keys.data(), keys.size(), batch, weights.data()));
  Writer writer(response);
  writer.PutFloatSpan(weights.data(), weights.size());
  return Status::OK();
}

Status PsService::HandlePush(Reader* reader, const RpcHeader& header) {
  uint64_t batch = 0;
  OE_RETURN_IF_ERROR(reader->GetU64(&batch));
  std::vector<uint64_t> keys;
  OE_RETURN_IF_ERROR(reader->GetU64Span(&keys));
  std::vector<float> grads;
  OE_RETURN_IF_ERROR(reader->GetFloatSpan(&grads));
  if (grads.size() != keys.size() * store_->config().dim) {
    return Status::InvalidArgument("gradient span size mismatch");
  }
  // The wholesale check before any store access is what makes the client's
  // re-route safe: a kWrongOwner push applied *none* of its gradients, so
  // re-sending them all under a fresh seq cannot double-apply.
  std::shared_lock<std::shared_mutex> route_lock(route_mutex_);
  OE_RETURN_IF_ERROR(
      CheckOwnership(keys.data(), keys.size(), /*check_seal=*/true, header));
  return store_->Push(keys.data(), keys.size(), grads.data(), batch);
}

Status PsService::HandleMultiGet(Reader* reader, net::Buffer* response,
                                 const RpcHeader& header) {
  std::vector<uint64_t> keys;
  OE_RETURN_IF_ERROR(reader->GetU64Span(&keys));
  // Snapshot reads ignore seals (the published checkpoint a sealed slot
  // serves cannot change under the reader) but still validate table
  // ownership: after the publish the migrated range may be purged here, so
  // a stale-routed read must redirect rather than miss.
  std::shared_lock<std::shared_mutex> route_lock(route_mutex_);
  OE_RETURN_IF_ERROR(
      CheckOwnership(keys.data(), keys.size(), /*check_seal=*/false, header));
  const uint32_t dim = store_->config().dim;
  std::vector<float> values(keys.size() * dim);
  std::vector<uint8_t> found(keys.size(), 0);
  uint64_t cp = 0;
  bool resolved = false;

  if (serving_cache_ != nullptr) {
    // Probe the cache at the current serving checkpoint, fetch the misses
    // from the store's snapshot path, and keep the response only when both
    // agree on the checkpoint — a publish that lands between the probe and
    // the fetch would otherwise mix two versions. Bounded retries; training
    // publishes are batch-paced, so two consecutive collisions are rare.
    std::vector<size_t> miss_pos;
    std::vector<uint64_t> miss_keys;
    std::vector<float> fetched;
    std::vector<uint8_t> miss_found;
    for (int attempt = 0; attempt < 3 && !resolved; ++attempt) {
      const uint64_t cp_now = store_->PublishedCheckpoint();
      miss_pos.clear();
      miss_keys.clear();
      for (size_t i = 0; i < keys.size(); ++i) {
        if (serving_cache_->Lookup(keys[i], cp_now, values.data() + i * dim)) {
          found[i] = 1;
        } else {
          found[i] = 0;
          miss_pos.push_back(i);
          miss_keys.push_back(keys[i]);
        }
      }
      if (miss_keys.empty()) {
        cp = cp_now;
        resolved = true;
        break;
      }
      fetched.assign(miss_keys.size() * dim, 0.0f);
      miss_found.assign(miss_keys.size(), 0);
      uint64_t fetch_cp = 0;
      OE_RETURN_IF_ERROR(store_->MultiGet(miss_keys.data(), miss_keys.size(),
                                          fetched.data(), miss_found.data(),
                                          &fetch_cp));
      if (fetch_cp != cp_now) continue;
      for (size_t m = 0; m < miss_pos.size(); ++m) {
        const size_t i = miss_pos[m];
        std::copy_n(fetched.data() + m * dim, dim, values.data() + i * dim);
        found[i] = miss_found[m];
        if (found[i]) {
          serving_cache_->Insert(keys[i], cp_now, fetched.data() + m * dim);
        }
      }
      cp = cp_now;
      resolved = true;
    }
  }
  if (!resolved) {
    // Cache disabled, or the publish rate outran the probe/fetch window:
    // one store read is consistent by construction (single snapshot pin).
    OE_RETURN_IF_ERROR(store_->MultiGet(keys.data(), keys.size(),
                                        values.data(), found.data(), &cp));
  }

  Writer writer(response);
  writer.PutU64(cp);
  writer.PutRaw(found.data(), found.size());
  writer.PutFloatSpan(values.data(), values.size());
  return Status::OK();
}

Status PsService::HandlePeek(Reader* reader, net::Buffer* response,
                             const RpcHeader& header) {
  uint64_t key = 0;
  OE_RETURN_IF_ERROR(reader->GetU64(&key));
  std::shared_lock<std::shared_mutex> route_lock(route_mutex_);
  OE_RETURN_IF_ERROR(
      CheckOwnership(&key, 1, /*check_seal=*/false, header));
  OE_ASSIGN_OR_RETURN(std::vector<float> weights, store_->Peek(key));
  Writer writer(response);
  writer.PutFloatSpan(weights.data(), weights.size());
  return Status::OK();
}

}  // namespace oe::ps
