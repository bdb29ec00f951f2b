#include "storage/dram_store.h"

#include <cstring>

#include "common/logging.h"

namespace oe::storage {

std::string_view StoreKindToString(StoreKind kind) {
  switch (kind) {
    case StoreKind::kDram:
      return "DRAM-PS";
    case StoreKind::kPipelined:
      return "PMem-OE";
    case StoreKind::kOriCache:
      return "Ori-Cache";
    case StoreKind::kPmemHash:
      return "PMem-Hash";
  }
  return "Unknown";
}

std::string_view CachePolicyToString(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kLru:
      return "lru";
    case CachePolicy::kFreqAware:
      return "freq";
  }
  return "unknown";
}

DramStore::DramStore(const StoreConfig& config, ckpt::CheckpointLog* log)
    : config_(config),
      layout_(config.dim, config.optimizer.Slots()),
      log_(log) {}

Result<std::unique_ptr<DramStore>> DramStore::Create(
    const StoreConfig& config, ckpt::CheckpointLog* log) {
  if (config.dim == 0) return Status::InvalidArgument("dim must be > 0");
  return std::unique_ptr<DramStore>(new DramStore(config, log));
}

DramStore::DramEntry* DramStore::FindOrCreate(EntryId key, uint64_t batch) {
  auto it = entries_.find(key);
  if (it != entries_.end()) return it->second.get();
  auto entry = std::make_unique<DramEntry>();
  entry->version = batch;
  entry->data.assign(layout_.values_per_entry(), 0.0f);
  config_.initializer.Fill(key, entry->data.data(), config_.dim);
  dram_stats_.AddWrite(layout_.data_bytes());
  stats_.new_entries.fetch_add(1, std::memory_order_relaxed);
  if (log_ != nullptr) dirty_.insert(key);
  DramEntry* raw = entry.get();
  entries_.emplace(key, std::move(entry));
  return raw;
}

Status DramStore::Pull(const EntryId* keys, size_t n, uint64_t batch,
                       float* out) {
  stats_.pull_keys.fetch_add(n, std::memory_order_relaxed);
  const size_t weight_bytes = config_.dim * sizeof(float);

  // Fast path under the read lock; collect first-touch keys for a second
  // pass under the write lock (mirrors Algorithm 1 lines 6-12).
  std::vector<size_t> missing;
  {
    ReadGuard guard(lock_);
    for (size_t i = 0; i < n; ++i) {
      auto it = entries_.find(keys[i]);
      if (it == entries_.end()) {
        missing.push_back(i);
        continue;
      }
      std::memcpy(out + i * config_.dim, it->second->data.data(),
                  weight_bytes);
      dram_stats_.AddRead(weight_bytes);
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!missing.empty()) {
    WriteGuard guard(lock_);
    for (size_t i : missing) {
      DramEntry* entry = FindOrCreate(keys[i], batch);
      std::memcpy(out + i * config_.dim, entry->data.data(), weight_bytes);
      dram_stats_.AddRead(weight_bytes);
    }
  }
  return Status::OK();
}

Status DramStore::Push(const EntryId* keys, size_t n, const float* grads,
                       uint64_t batch) {
  stats_.push_keys.fetch_add(n, std::memory_order_relaxed);
  {
    ReadGuard guard(lock_);
    for (size_t i = 0; i < n; ++i) {
      auto it = entries_.find(keys[i]);
      if (it == entries_.end()) {
        return Status::NotFound(
            "push to unknown key (pull must precede push)");
      }
      DramEntry* entry = it->second.get();
      SpinLock& shard = push_locks_[keys[i] % kPushShards];
      shard.lock();
      config_.optimizer.Apply(entry->data.data(),
                              entry->data.data() + config_.dim,
                              grads + i * config_.dim, config_.dim, batch);
      entry->version = batch;
      shard.unlock();
      dram_stats_.AddWrite(layout_.data_bytes());
    }
  }
  // Dirty tracking for the incremental checkpointer.
  if (log_ != nullptr) {
    WriteGuard guard(lock_);
    for (size_t i = 0; i < n; ++i) dirty_.insert(keys[i]);
  }
  return Status::OK();
}

Status DramStore::RequestCheckpoint(uint64_t batch) {
  if (log_ == nullptr) {
    return Status::FailedPrecondition("DramStore created without a log");
  }
  // Synchronous incremental checkpoint: serialize every dirty entry and
  // append one chunk. Training is paused by the caller for the duration.
  WriteGuard guard(lock_);
  const uint64_t record_bytes = layout_.record_bytes();
  std::vector<uint8_t> buffer(dirty_.size() * record_bytes);
  uint64_t count = 0;
  for (EntryId key : dirty_) {
    auto it = entries_.find(key);
    if (it == entries_.end()) continue;
    uint8_t* record = buffer.data() + count * record_bytes;
    EntryLayout::SetRecordHeader(record, key, it->second->version);
    std::memcpy(EntryLayout::RecordData(record), it->second->data.data(),
                layout_.data_bytes());
    dram_stats_.AddRead(layout_.data_bytes());
    ++count;
  }
  OE_RETURN_IF_ERROR(log_->AppendChunk(batch, buffer.data(), count));
  dirty_.clear();
  stats_.checkpoints_published.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

uint64_t DramStore::PublishedCheckpoint() const {
  return log_ == nullptr ? 0 : log_->LatestBatch();
}

Status DramStore::RecoverFromCrash() {
  if (log_ == nullptr) {
    return Status::FailedPrecondition("no checkpoint log to recover from");
  }
  WriteGuard guard(lock_);
  entries_.clear();
  dirty_.clear();
  const uint64_t target = log_->LatestBatch();
  Status status = log_->Replay(
      target, [&](EntryId key, uint64_t version, const float* data) {
        auto& slot = entries_[key];
        if (slot == nullptr) slot = std::make_unique<DramEntry>();
        slot->version = version;
        slot->data.assign(data, data + layout_.values_per_entry());
        dram_stats_.AddWrite(layout_.data_bytes());
      });
  return status;
}

size_t DramStore::EntryCount() const {
  ReadGuard guard(lock_);
  return entries_.size();
}

Result<std::vector<float>> DramStore::Peek(EntryId key) const {
  ReadGuard guard(lock_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return Status::NotFound("no such key");
  return std::vector<float>(it->second->data.begin(),
                            it->second->data.begin() + config_.dim);
}

}  // namespace oe::storage
