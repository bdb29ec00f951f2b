#ifndef OE_STORAGE_PMEM_HASH_STORE_H_
#define OE_STORAGE_PMEM_HASH_STORE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "pmem/pool.h"
#include "storage/embedding_store.h"

namespace oe::storage {

/// "PMem-Hash": the baseline that places the entire parameter server —
/// bucket array, chains and entry records — in PMem, in the style of a
/// libpmemobj-cpp concurrent hash map (Table III / Fig. 3). No DRAM cache,
/// no DRAM index: every lookup walks PMem, every update is an in-place
/// persisted PMem write. This is what makes it 1.16x-3.17x slower than
/// DRAM-PS in the paper.
///
/// This engine is a *deliberately unimproved* baseline and must stay that
/// way: it exists so the paper's Table III gap is measured against the
/// design the paper criticizes — chained buckets, a global mutex,
/// per-record pool allocations, no fingerprints, no DRAM mirror. The
/// pipelined store's flat DRAM index and slab allocator (kv_flat.h,
/// pmem/slab_allocator.h) are the modern replacements; do not backport
/// them here. The one tunable is config.pmem_hash_buckets (chain length is the
/// dominant cost — benchmarks sweep it down to 1 bucket to show the
/// worst case).
///
/// Records chain per bucket:
///   [ next : u64 | key : u64 | version : u64 | data : f32[...] ]
class PmemHashStore final : public EmbeddingStore {
 public:
  static Result<std::unique_ptr<PmemHashStore>> Create(
      const StoreConfig& config, pmem::PmemDevice* device);

  Status Pull(const EntryId* keys, size_t n, uint64_t batch,
              float* out) override;
  Status Push(const EntryId* keys, size_t n, const float* grads,
              uint64_t batch) override;

  /// Not supported: the paper's PMem-Hash has no batch-aware checkpointing
  /// (Observation 2 — existing PMem structures lack batch atomicity).
  Status RequestCheckpoint(uint64_t batch) override;
  uint64_t PublishedCheckpoint() const override { return 0; }

  /// Data is already in PMem; reopening the pool is all recovery does. No
  /// batch-level consistency is guaranteed (the paper's point).
  Status RecoverFromCrash() override;

  size_t EntryCount() const override;
  Result<std::vector<float>> Peek(EntryId key) const override;

  const StoreStats& stats() const override { return stats_; }
  const StoreConfig& config() const override { return config_; }
  const pmem::DeviceStats& dram_stats() const override { return dram_stats_; }

 private:
  static constexpr uint64_t kBucketTag = 0xB0;
  static constexpr uint64_t kRecordTag = 0xB1;
  /// Pool *root-slot index* holding the bucket array's offset (not a
  /// bucket count — that is config.pmem_hash_buckets).
  static constexpr int kRootBucketArray = 1;
  static constexpr uint64_t kRecordHeaderBytes = 24;  // next + key + version

  PmemHashStore(const StoreConfig& config, pmem::PmemDevice* device);
  Status Init();

  uint64_t BucketOffset(EntryId key) const;
  /// Walks the chain; returns the record payload offset or kNullOffset.
  uint64_t FindRecord(EntryId key) const;
  Result<uint64_t> InsertRecord(EntryId key, uint64_t batch);

  uint64_t record_bytes() const {
    return kRecordHeaderBytes + layout_.data_bytes();
  }

  StoreConfig config_;
  EntryLayout layout_;
  pmem::PmemDevice* device_;
  std::unique_ptr<pmem::PmemPool> pool_;
  uint64_t buckets_offset_ = 0;

  mutable std::mutex mutex_;
  size_t entry_count_ = 0;

  StoreStats stats_;
  mutable pmem::DeviceStats dram_stats_;
};

}  // namespace oe::storage

#endif  // OE_STORAGE_PMEM_HASH_STORE_H_
