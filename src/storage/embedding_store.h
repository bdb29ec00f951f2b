#ifndef OE_STORAGE_EMBEDDING_STORE_H_
#define OE_STORAGE_EMBEDDING_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "pmem/device.h"
#include "storage/entry_layout.h"
#include "storage/initializer.h"
#include "storage/optimizer.h"

namespace oe::storage {

/// Which engine backs a parameter-server node (Table III of the paper).
enum class StoreKind : uint8_t {
  kDram = 0,       // "DRAM-PS": pure-DRAM classic parameter server
  kPipelined = 1,  // "PMem-OE": OpenEmbedding pipelined DRAM cache + PMem
  kOriCache = 2,   // "Ori-Cache": concurrent hash + STL-list LRU, synchronous
  kPmemHash = 3,   // "PMem-Hash": everything resident in PMem
};

std::string_view StoreKindToString(StoreKind kind);

/// DRAM-cache replacement policy of the pipelined engine.
enum class CachePolicy : uint8_t {
  /// Plain recency: evict the LRU tail (the paper's Algorithm 2 baseline).
  kLru = 0,
  /// Frequency-aware (Kal et al., arXiv 2208.05321): admission and victim
  /// selection are weighted by a per-shard count-min frequency sketch with
  /// periodic decay, and the observed hot head is pinned in DRAM.
  kFreqAware = 1,
};

std::string_view CachePolicyToString(CachePolicy policy);

/// Configuration shared by all engines. Per-engine knobs are ignored by
/// engines that do not have the corresponding mechanism.
struct StoreConfig {
  uint32_t dim = 64;
  OptimizerSpec optimizer;
  InitializerSpec initializer;

  /// DRAM cache budget for the cached engines (PMem-OE, Ori-Cache).
  uint64_t cache_bytes = 64ULL << 20;

  /// Ablation knobs for PMem-OE (Fig. 9). With pipeline disabled, cache
  /// maintenance runs synchronously on the pull path. With the cache
  /// disabled, every access goes straight to PMem.
  bool pipeline_enabled = true;
  bool cache_enabled = true;

  /// Number of cache-maintainer threads for the pipelined engine.
  int maintainer_threads = 1;

  /// Lock-striped shards for the pipelined engine: each shard owns its own
  /// RW lock, hash index, cache map, LRU list, staging buffer and a slice of
  /// the DRAM cache budget, so maintainer threads process different shards
  /// concurrently and a pull-miss write-locks only one shard. 1 restores the
  /// single-lock layout; values < 1 are clamped to 1.
  int store_shards = 16;

  /// DRAM-cache replacement policy for the pipelined engine.
  CachePolicy cache_policy = CachePolicy::kLru;
  /// Under kFreqAware: pin an entry in DRAM (never evict) once its
  /// estimated frequency reaches this many batches within the decay window;
  /// unpin when it decays below half of it.
  uint32_t hot_pin_min_freq = 8;

  /// Bucket count for the PMem-resident hash table (PMem-Hash engine).
  uint64_t pmem_hash_buckets = 1 << 14;

  /// Threads used by the pipelined engine's recovery scan. The paper notes
  /// recovery "can be further sped up by partitioning a single embedding
  /// table ... thereby parallelizing both scanning and the rebuilding";
  /// this parallelizes record classification and per-shard index builds.
  int recovery_threads = 1;
};

/// Monotonic operation counters exposed by every engine.
struct StoreStats {
  std::atomic<uint64_t> pull_keys{0};
  std::atomic<uint64_t> push_keys{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> flushes{0};        // entry write-backs to PMem
  std::atomic<uint64_t> new_entries{0};
  std::atomic<uint64_t> checkpoints_published{0};
  /// Cache loads skipped because the candidate's observed frequency did not
  /// beat the would-be victim's (kFreqAware admission filter).
  std::atomic<uint64_t> admission_rejects{0};

  /// Point-in-time copy (plain integers). Readers should work on a snapshot
  /// rather than the live reference: maintainer threads mutate the live
  /// counters concurrently (and RecoverFromCrash resets sibling state), so
  /// two reads through the reference can straddle an update and disagree.
  struct Snapshot {
    uint64_t pull_keys = 0;
    uint64_t push_keys = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t evictions = 0;
    uint64_t flushes = 0;
    uint64_t new_entries = 0;
    uint64_t checkpoints_published = 0;
    uint64_t admission_rejects = 0;

    double HitRate() const {
      const uint64_t total = cache_hits + cache_misses;
      return total == 0
                 ? 0.0
                 : static_cast<double>(cache_hits) / static_cast<double>(total);
    }
    double MissRate() const {
      const uint64_t total = cache_hits + cache_misses;
      return total == 0 ? 0.0
                        : static_cast<double>(cache_misses) /
                              static_cast<double>(total);
    }
  };
  Snapshot TakeSnapshot() const {
    Snapshot snap;
    snap.pull_keys = pull_keys.load(std::memory_order_relaxed);
    snap.push_keys = push_keys.load(std::memory_order_relaxed);
    snap.cache_hits = cache_hits.load(std::memory_order_relaxed);
    snap.cache_misses = cache_misses.load(std::memory_order_relaxed);
    snap.evictions = evictions.load(std::memory_order_relaxed);
    snap.flushes = flushes.load(std::memory_order_relaxed);
    snap.new_entries = new_entries.load(std::memory_order_relaxed);
    snap.checkpoints_published =
        checkpoints_published.load(std::memory_order_relaxed);
    snap.admission_rejects =
        admission_rejects.load(std::memory_order_relaxed);
    return snap;
  }

  double HitRate() const {
    const uint64_t h = cache_hits.load(std::memory_order_relaxed);
    const uint64_t m = cache_misses.load(std::memory_order_relaxed);
    return (h + m) == 0 ? 0.0
                        : static_cast<double>(h) / static_cast<double>(h + m);
  }
  double MissRate() const {
    const uint64_t h = cache_hits.load(std::memory_order_relaxed);
    const uint64_t m = cache_misses.load(std::memory_order_relaxed);
    return (h + m) == 0 ? 0.0
                        : static_cast<double>(m) / static_cast<double>(h + m);
  }
};

/// Abstract embedding storage engine hosted by one PS node.
///
/// Batch protocol (synchronous training):
///   1. Pull(keys, batch, out) — possibly from several worker threads.
///   2. FinishPullPhase(batch) — all pulls for `batch` issued; pipelined
///      engines start deferred cache maintenance here (overlapping the GPU
///      compute phase).
///   3. Push(keys, grads, batch) — gradients at batch end; engines apply
///      the configured optimizer server-side. Implementations that defer
///      maintenance internally wait for it to complete first.
///   4. Optionally RequestCheckpoint(batch) after the batch completes.
class EmbeddingStore {
 public:
  virtual ~EmbeddingStore() = default;

  /// Reads (initializing on first touch) the weights of `n` keys into
  /// `out` (n * dim floats, in key order).
  virtual Status Pull(const EntryId* keys, size_t n, uint64_t batch,
                      float* out) = 0;

  /// Declares the pull phase of `batch` complete.
  virtual void FinishPullPhase(uint64_t batch) { (void)batch; }

  /// Applies gradients (n * dim floats) through the configured optimizer.
  virtual Status Push(const EntryId* keys, size_t n, const float* grads,
                      uint64_t batch) = 0;

  /// Requests a checkpoint that captures the model state as of the end of
  /// `batch`. Lightweight engines only enqueue the request; incremental
  /// engines copy data before returning.
  virtual Status RequestCheckpoint(uint64_t batch) = 0;

  /// Forces all requested checkpoints to completion (end-of-training or
  /// test determinism). Engines with queue-based checkpoints flush here.
  virtual Status DrainCheckpoints() { return Status::OK(); }

  /// Batch id of the newest durable checkpoint, or 0 if none.
  virtual uint64_t PublishedCheckpoint() const = 0;

  /// Rebuilds state after a simulated crash: the model must be restored to
  /// exactly the state of PublishedCheckpoint().
  virtual Status RecoverFromCrash() = 0;

  /// Number of live entries (post-recovery: entries in the checkpoint).
  virtual size_t EntryCount() const = 0;

  /// Test/debug read of current weights without accounting; NotFound if the
  /// key does not exist.
  virtual Result<std::vector<float>> Peek(EntryId key) const = 0;

  /// Online-serving batched lookup: fills `out` with n * dim weight floats
  /// (zeros for missing keys) and found[i] = 1 for each key that exists.
  /// Engines with versioned storage serve a consistent snapshot of the last
  /// published checkpoint and report its batch id in *snapshot_version (see
  /// PipelinedStore); this default serves live values, which is only
  /// coherent for engines without concurrent maintenance.
  virtual Status MultiGet(const EntryId* keys, size_t n, float* out,
                          uint8_t* found, uint64_t* snapshot_version) {
    const uint32_t dim = config().dim;
    for (size_t i = 0; i < n; ++i) {
      auto value = Peek(keys[i]);
      if (value.ok()) {
        const std::vector<float> weights = std::move(value).ValueOrDie();
        std::copy(weights.begin(), weights.begin() + dim, out + i * dim);
        found[i] = 1;
      } else {
        std::fill(out + i * dim, out + (i + 1) * dim, 0.0f);
        found[i] = 0;
      }
    }
    if (snapshot_version != nullptr) {
      *snapshot_version = PublishedCheckpoint();
    }
    return Status::OK();
  }

  virtual const StoreStats& stats() const = 0;
  virtual const StoreConfig& config() const = 0;

  /// Consistent copies of the live counters. Prefer these over holding the
  /// stats()/dram_stats() references across concurrent store activity.
  StoreStats::Snapshot stats_snapshot() const {
    return stats().TakeSnapshot();
  }
  pmem::DeviceStats::Snapshot dram_stats_snapshot() const {
    return dram_stats().TakeSnapshot();
  }

  /// DRAM traffic generated by this engine (index, cache, copies).
  virtual const pmem::DeviceStats& dram_stats() const = 0;
};

}  // namespace oe::storage

#endif  // OE_STORAGE_EMBEDDING_STORE_H_
