#ifndef OE_STORAGE_PIPELINED_STORE_H_
#define OE_STORAGE_PIPELINED_STORE_H_

#include <array>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/access_queue.h"
#include "cache/freq_estimator.h"
#include "cache/lru_list.h"
#include "cache/tagged_ptr.h"
#include "ckpt/checkpoint_log.h"
#include "common/sync.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pmem/pool.h"
#include "pmem/slab_allocator.h"
#include "storage/embedding_store.h"
#include "storage/kv_flat.h"

namespace oe::storage {

/// "PMem-OE": the paper's OpenEmbedding engine — DRAM cache over PMem with
/// pipelined cache maintenance (Algorithm 1 + Algorithm 2) and co-designed
/// batch-aware checkpointing.
///
/// The store is lock-striped into config.store_shards shards keyed by a
/// hash of the entry id. Each shard owns its RW lock, hash index, cache
/// map, LRU list, pull-phase staging buffer, and a slice of the DRAM cache
/// budget; maintainer threads drain chunks for *different* shards
/// concurrently (per-shard chunks stay FIFO), so maintenance throughput
/// scales with maintainer_threads and a pull-miss write-locks one shard
/// instead of the whole engine.
///
/// Pull path (Algorithm 1): under a shard's read lock, weights are copied
/// from the DRAM cache (hit) or directly from the PMem record (miss).
/// First-touch keys are initialized in DRAM under a brief per-shard write
/// lock. Accessed keys are staged per shard and become per-shard cache-
/// maintenance chunks when FinishPullPhase() seals the batch — maintenance
/// then runs on dedicated threads, overlapping the GPU compute phase.
///
/// Maintenance (Algorithm 2): under the shard's write lock, per accessed
/// entry:
///   - cached & version <= pending-checkpoint batch: write back to PMem so
///     the checkpoint state is durable, then stamp the current batch and
///     move to the shard's LRU head;
///   - not cached: load into DRAM; if the shard is over capacity, evict its
///     LRU tail.
///
/// With config.cache_policy == kFreqAware the maintenance path additionally
/// keeps a per-shard count-min frequency sketch (one increment per key per
/// batch, periodic halving decay): a miss is only admitted to DRAM if its
/// observed frequency beats the would-be victim's, the eviction victim is
/// the lowest-frequency entry within the LRU-tail window, and entries whose
/// frequency crosses the hot threshold are pinned (never evicted, bounded
/// by kHotPinFraction of the shard's capacity). Victim selection removes
/// entries without reordering, so the LRU-order == version-order invariant
/// the checkpoint barrier relies on is untouched.
///
/// Checkpoint publication is a cross-shard barrier: a shard acknowledges a
/// pending checkpoint once every pre-checkpoint state it caches is durable
/// (its LRU tail's version exceeds the checkpoint batch and it holds no
/// never-maintained first-touch entries), and the Checkpointed Batch ID is
/// published with one failure-atomic PMem root store only when *all* shards
/// have acknowledged.
///
/// Write-backs copy-on-write: a record still needed by a published or
/// pending checkpoint is never overwritten; superseded records are freed
/// when a newer checkpoint publishes ("the space manager will recycle the
/// space of these entries once the new checkpoint is done").
///
/// Serving reads (MultiGet) run against the last *published* checkpoint
/// without taking the push critical section: per key, the newest PMem
/// record with version <= checkpoint is immutable by the COW invariant
/// (in-place pushes require version > every published/pending checkpoint),
/// so a snapshot reader only ever touches frozen bytes. Records superseded
/// since the checkpoint are found through snapshot_index_, and a pin
/// (AcquireSnapshot/ReleaseSnapshot) keeps deferred records alive while a
/// read is in flight — checkpoint publication is never blocked, only the
/// GC of superseded records is parked in limbo_ until the last reader
/// releases its pin.
class PipelinedStore final : public EmbeddingStore {
 public:
  /// Pool root slot holding the Checkpointed Batch ID; public so
  /// crash-consistency harnesses can check it independently of the store
  /// (see src/testing/crash_sim.h).
  static constexpr int kRootCheckpointId = 0;
  /// Pool root slot + type tag of the durable routing-ownership record
  /// (see SetOwnedSlots). Written lazily: a store that never participated
  /// in a migration has no routing root and recovers every record it finds
  /// — the legacy single-owner behavior.
  static constexpr int kRootRouting = 1;
  static constexpr uint64_t kRouteTag = 0xE8;
  /// Pool block tags of retired record layouts: entry records allocated
  /// straight from the pool (0xE5) and PMem-resident index buckets (0xE6).
  /// Open refuses a pool holding either; see DESIGN.md §5d.
  static constexpr uint64_t kRetiredEntryTag = 0xE5;
  static constexpr uint64_t kRetiredBucketTag = 0xE6;

  /// Formats `device` with a fresh pool and starts the maintainer threads.
  static Result<std::unique_ptr<PipelinedStore>> Create(
      const StoreConfig& config, pmem::PmemDevice* device);

  /// Attaches to a device that already holds a pool (e.g. a file-backed
  /// PMem image after a process restart) and recovers the model to its
  /// latest published checkpoint instead of formatting.
  static Result<std::unique_ptr<PipelinedStore>> Open(
      const StoreConfig& config, pmem::PmemDevice* device);

  ~PipelinedStore() override;

  Status Pull(const EntryId* keys, size_t n, uint64_t batch,
              float* out) override;
  void FinishPullPhase(uint64_t batch) override;
  Status Push(const EntryId* keys, size_t n, const float* grads,
              uint64_t batch) override;
  Status RequestCheckpoint(uint64_t batch) override;
  Status DrainCheckpoints() override;
  uint64_t PublishedCheckpoint() const override;
  Status RecoverFromCrash() override;

  // --- Live shard migration (versioned slot routing; see DESIGN.md §11) ---

  /// The durable routing-ownership record read back from the pool.
  struct OwnedSlots {
    bool present = false;  // false: no routing root was ever written
    uint64_t epoch = 0;
    std::vector<bool> owned;  // size kNumRoutingSlots when present
  };

  /// Durably records which routing slots this store owns as of routing
  /// `epoch`. Two persist events: the record blob
  /// ("route-blob", via the pool's kRouteTag protocol) and the
  /// failure-atomic root-slot store ("route-root") — the root store is the
  /// commit point, so a crash between them leaves the previous ownership
  /// in force. Recovery then discards any record whose key falls outside
  /// the committed ownership: on a migration target this is what makes the
  /// import atomic (imported records in not-yet-committed slots vanish),
  /// and on a source it garbage-collects the handed-off range even if the
  /// post-migration purge never ran.
  Status SetOwnedSlots(uint64_t epoch, const std::vector<bool>& owned);

  /// Reads the routing root back from the pool (recovery, tests, crash
  /// harnesses). present == false when no root was ever committed.
  /// FailedPrecondition when the root lists per-key extras: those came from
  /// the retired hot-key replication, and recovering without them would
  /// silently drop their records (see DESIGN.md §11).
  Result<OwnedSlots> ReadOwnedSlots() const;

  /// Copies the migration image of `slots` into `log`: for every key in a
  /// marked slot, the newest
  /// record at or below the published checkpoint — the snapshot the target
  /// serves to MultiGet — plus the live head when it is newer (dirty DRAM
  /// state is serialized as a record), so the target resumes training from
  /// exactly the source's state. The caller must have sealed the range:
  /// ExportRange takes every shard write lock but nothing stops a push
  /// between export and routing publish except the seal. Requires a
  /// published checkpoint on this store or an empty range.
  Status ExportRange(const std::vector<bool>& slots, ckpt::CheckpointLog* log);

  /// Merges a migration image into this (live) store. Keys already present
  /// are skipped (the local copy wins, so an image re-delivered after a
  /// partial import never rolls a key back); for new
  /// keys the newest record lands in the index and an older snapshot
  /// record is registered for snapshot readers. Persist site per record:
  /// "migrate-entry". On success appends every imported key to `imported`
  /// (for the coordinator's abort path) and raises the published
  /// checkpoint to the image's batch id if it is ahead — a fresh scale-out
  /// node must agree with the cluster's serving version immediately.
  Status ImportRange(const ckpt::CheckpointLog& log,
                     std::vector<EntryId>* imported);

  /// Abort path: removes `keys` outright — index slots, DRAM cache entries
  /// and their PMem records (parked in limbo while snapshot readers are
  /// pinned). Used to roll a half-imported range back off a target.
  Status RemoveKeys(const std::vector<EntryId>& keys);

  /// Post-handoff cleanup on the source: drops every key of the marked
  /// slots. Records a snapshot reader could still
  /// be pinned to are deferred, newer ones freed; index entries are erased
  /// so the space is reclaimed while the store keeps running.
  Status PurgeSlots(const std::vector<bool>& slots);
  size_t EntryCount() const override;
  Result<std::vector<float>> Peek(EntryId key) const override;

  /// Read-only batched lookup served from the last published checkpoint
  /// (see the class comment): every returned value reflects exactly the
  /// state checkpoint `*snapshot_version` captured, even while training
  /// pushes, maintenance flushes and seals proceed concurrently. Keys that
  /// did not exist at that checkpoint come back with found[i] == 0 and
  /// zeroed weights. With no published checkpoint yet, *snapshot_version
  /// is 0 and nothing is found.
  Status MultiGet(const EntryId* keys, size_t n, float* out, uint8_t* found,
                  uint64_t* snapshot_version) override;

  /// Superseded records currently tracked for snapshot readers (tests:
  /// bounded-growth / GC assertions). Takes ckpt_mutex_.
  size_t SnapshotIndexRecords() const;

  const StoreStats& stats() const override { return stats_; }
  const StoreConfig& config() const override { return config_; }
  const pmem::DeviceStats& dram_stats() const override { return dram_stats_; }

  /// Blocks until all maintenance chunks sealed up to and including `batch`
  /// have been processed. Push() calls this internally; the simulation
  /// driver also calls it to measure the maintenance phase.
  void WaitMaintenance(uint64_t batch);

  /// Entries currently resident in the DRAM cache (summed over shards).
  size_t CachedEntries() const;

  /// Entries currently pinned by the frequency-aware policy (summed over
  /// shards; 0 under kLru).
  size_t PinnedEntries() const;

  /// True if `key` is resident in the DRAM cache right now (tests/benches;
  /// takes the shard's read lock).
  bool IsDramCached(EntryId key) const;

  /// DRAM cache capacity in entries (config.cache_bytes / entry footprint).
  /// Per-shard capacities always sum to exactly this.
  size_t CacheCapacityEntries() const { return cache_capacity_; }

  /// Number of lock stripes (config.store_shards clamped to >= 1).
  size_t NumShards() const { return shards_.size(); }

  /// The shard stripe `key` hashes to; exposed for tests and benches that
  /// need to construct shard-local or cross-shard key sets.
  size_t ShardOfKey(EntryId key) const { return ShardOf(key); }

  pmem::PmemPool* pool() { return pool_.get(); }

  /// Invokes `fn(offset, size)` for every committed entry record via the
  /// slab bitmaps, independent of the DRAM index. Crash harnesses rescan
  /// through this.
  template <typename Fn>
  void ForEachEntryRecord(Fn&& fn) const {
    slab_->ForEachAllocated(std::forward<Fn>(fn));
  }

 private:
  struct CacheEntry {
    EntryId key = 0;
    uint64_t version = 0;       // batch of last access/update (Algorithm 2)
    uint64_t pmem_offset = kNullOffset;  // latest PMem record, if any
    uint64_t pmem_version = ~0ULL;       // version held by that record
    bool dirty = false;          // weights differ from the PMem record
    bool pinned = false;         // hot-head pin: never an eviction victim
    cache::LruNode lru;
    std::unique_ptr<float[]> data;  // weights + optimizer state
  };

  /// One lock stripe. All mutable shard state is guarded by `lock` except
  /// `staged`, which has its own leaf mutex so pullers staging accesses
  /// under the shard read lock do not race FinishPullPhase's seal.
  struct Shard {
    mutable InstrumentedRwLock lock;
    /// Key -> TaggedPtr index (see kv_flat.h for the lock contract);
    /// rebuilt from the record scan on recovery.
    FlatIndex index;
    std::unordered_map<EntryId, std::unique_ptr<CacheEntry>> cache_entries;
    cache::LruList<CacheEntry, &CacheEntry::lru> lru;
    size_t capacity = 0;  // this shard's slice of the cache budget

    // First-touch entries created by Pull that no maintenance chunk has
    // linked into the LRU yet. While > 0 the shard cannot acknowledge a
    // pending checkpoint: such an entry is dirty, invisible to the LRU-tail
    // durability test, and may carry a version the checkpoint still needs.
    size_t fresh_entries = 0;

    // Frequency-aware policy state (null / zero under kLru). The sketch is
    // touched only under the shard write lock, so the pull path stays free
    // of frequency bookkeeping.
    std::unique_ptr<cache::FreqEstimator> freq;
    uint64_t maint_batches = 0;   // decay clock
    size_t pinned_entries = 0;    // entries with pinned == true
    // Last victim whose flush failure was logged; resets on success so each
    // stuck victim is reported once, not once per eviction attempt.
    EntryId logged_victim = kNoVictim;

    std::mutex stage_mutex;
    std::vector<EntryId> staged;
  };

  static constexpr EntryId kNoVictim = ~0ULL;

  // kFreqAware policy constants.
  /// Per-shard count-min sketch width (counters per row; 4 rows of
  /// saturating 8-bit counters).
  static constexpr uint32_t kFreqCounters = 1 << 12;
  /// Every frequency counter is halved after this many maintenance batches
  /// per shard (the decay that lets stale hot keys cool off).
  static constexpr uint64_t kFreqDecayBatches = 64;
  /// At most this fraction of a shard's cache capacity may be pinned, so
  /// eviction always has an unpinned victim available.
  static constexpr double kHotPinFraction = 0.5;
  /// Victim search window: the lowest-frequency entry among this many
  /// LRU-tail candidates is evicted.
  static constexpr uint32_t kEvictWindow = 8;

  PipelinedStore(const StoreConfig& config, pmem::PmemDevice* device);

  static size_t ShardCount(const StoreConfig& config);
  size_t ShardOf(EntryId key) const {
    // Multiplicative hash: entry ids are often dense integers, and modulo
    // alone would stripe consecutive ids onto consecutive shards batch after
    // batch in lockstep.
    uint64_t h = key * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    return static_cast<size_t>(h % shards_.size());
  }

  /// Groups `keys` by shard: on return `order` holds key positions
  /// [0, n) permuted so each shard's positions are contiguous, and
  /// `begin[s]..begin[s + 1]` delimits shard s's range.
  void GroupByShard(const EntryId* keys, size_t n, std::vector<size_t>* order,
                    std::vector<size_t>* begin) const;

  Status Init();
  void MaintainerLoop();

  /// Attaches slab_ to the (re)opened pool_, one lane per shard.
  Status AttachSlab();

  // --- All *Locked methods require the write lock of shards_[shard]. ---
  CacheEntry* CreateCachedEntryLocked(size_t shard, EntryId key,
                                      uint64_t batch);
  void ProcessChunkLocked(size_t shard, uint64_t batch,
                          std::vector<EntryId>& keys);
  Status FlushEntryLocked(size_t shard, CacheEntry* entry);
  void EvictIfNeededLocked(size_t shard);

  /// Selects this shard's eviction victim per the configured policy: the
  /// LRU tail under kLru, else the lowest-frequency unpinned entry within
  /// the kEvictWindow LRU-tail candidates (ties keep the least recent).
  /// Entries in `skip` (flush-failed this round) are passed over. Returns
  /// nullptr if everything in the window is pinned or skipped.
  CacheEntry* PickVictimLocked(size_t shard,
                               const std::vector<CacheEntry*>& skip);

  /// Max pinned entries a shard may hold (kHotPinFraction of its
  /// capacity, always leaving at least one unpinned slot).
  size_t PinCapacity(const Shard& sh) const;

  /// Re-evaluates `entry`'s pin bit against its frequency estimate `freq`
  /// under the kFreqAware thresholds; updates the shard pin count.
  void UpdatePinLocked(Shard& sh, CacheEntry* entry, uint32_t freq);
  CacheEntry* LoadToDramLocked(size_t shard, EntryId key,
                               uint64_t record_offset, uint64_t batch);
  Status PullPmemDirect(size_t shard, EntryId key, uint64_t batch, float* out);

  /// Advances this shard's checkpoint acknowledgements as far as its cache
  /// state allows and publishes any checkpoint all shards have acked.
  /// Requires the shard's write lock; takes ckpt_mutex_ internally.
  void AckCheckpointsLocked(size_t shard);

  /// True if every pre-`cp` state this shard caches is already durable.
  bool ShardDurableForLocked(const Shard& shard, uint64_t cp) const;

  /// Publishes every pending checkpoint acknowledged by all shards, in
  /// order, with one failure-atomic root store each. Requires ckpt_mutex_;
  /// returns superseded record offsets to free outside the mutex.
  std::vector<uint64_t> PublishReadyLocked();

  /// Applies one gradient to a PMem-resident record. Runs under the shard's
  /// shared (read) lock plus the key's push_locks_ stripe; a COW remap
  /// publishes the new record through the atomic index slot so concurrent
  /// readers never observe a torn pointer.
  Status PushPmemRecord(size_t shard, cache::AtomicTaggedPtr* slot,
                        uint64_t record_offset, const float* grad,
                        uint64_t batch);

  /// Head of the checkpoint request queue; false if empty.
  bool PendingHead(uint64_t* cp) const;

  // --- Snapshot-read support (MultiGet) ---

  /// A superseded record awaiting GC. Until a newer checkpoint publishes
  /// (and no reader is pinned to an older one) it is still the newest
  /// record at or below some published checkpoint, so snapshot readers
  /// resolve it through snapshot_index_.
  struct DeferredRecord {
    EntryId key;
    uint64_t offset;
    uint64_t version;  // the record's own header version
  };
  struct SnapshotRecord {
    uint64_t offset;
    uint64_t version;
  };

  /// Pins the current published checkpoint for a read: while any pin is
  /// held, publication parks superseded-record GC in limbo_ instead of
  /// freeing, so every record a reader at the returned version can reach
  /// stays allocated. Returns the pinned checkpoint batch id.
  uint64_t AcquireSnapshot();
  /// Drops one pin; the last release drains limbo_ (prunes snapshot_index_
  /// and frees the parked records).
  void ReleaseSnapshot();

  /// Removes `record`'s snapshot_index_ entry. Requires ckpt_mutex_.
  void PruneSnapshotIndexLocked(const DeferredRecord& record);
  /// Records a superseded record for snapshot readers and queues its GC:
  /// into deferred_free_[gc_after] normally, or straight into limbo_ when
  /// only currently-pinned readers can still need it (gc_after already
  /// published). Requires ckpt_mutex_.
  void DeferRecordLocked(const DeferredRecord& record, uint64_t gc_after);

  /// Shared core of RemoveKeys / PurgeSlots. Requires *all* shard write
  /// locks; takes ckpt_mutex_ internally. Unlinks every victim from its
  /// index slot and DRAM cache (LRU / fresh / pin bookkeeping included,
  /// dirty state dropped), detaches the victims' superseded records from
  /// the deferred-GC queue, and appends record offsets that are safe to
  /// recycle immediately to `to_free` — records an in-flight snapshot
  /// reader could still resolve are parked for limbo GC instead.
  void DropKeysLocked(const std::unordered_set<EntryId>& victims,
                      std::vector<uint64_t>* to_free);

  StoreConfig config_;
  EntryLayout layout_;
  pmem::PmemDevice* device_;
  std::unique_ptr<pmem::PmemPool> pool_;
  // Declared after pool_ so destruction order is slab -> pool.
  std::unique_ptr<pmem::SlabAllocator> slab_;
  size_t cache_capacity_ = 0;

  // Locking protocol (see DESIGN.md §8): shards_[s].lock (shared for
  // Pull/Push, exclusive for maintenance/insertions; multi-shard operations
  // acquire shard locks in ascending index order) -> push_locks_ stripe
  // (serializes writers of one key, and makes Pull's per-key data copy
  // atomic against a concurrent in-place Apply/COW — required since
  // lookahead-prefetch fills pull concurrently with other batches' pushes)
  // -> ckpt_mutex_ / stage_mutex / maint leaf locks, never held while
  // acquiring the others. Index slots are atomic so Pull may read them
  // under the shared lock while a pusher swaps a slot.
  std::vector<Shard> shards_;

  cache::ShardedAccessQueue<EntryId> access_queue_;
  std::vector<std::thread> maintainers_;

  // Maintenance progress (Push ordering + phase measurement).
  mutable std::mutex maint_mutex_;
  std::condition_variable maint_cv_;
  uint64_t sealed_batch_ = 0;
  uint64_t appended_chunks_ = 0;
  uint64_t processed_chunks_ = 0;

  // Checkpoint queue, per-shard acknowledgements and deferred frees
  // (guarded by ckpt_mutex_). shard_acked_[s] is the highest pending
  // checkpoint batch shard s has reported durable; a pending checkpoint
  // publishes only when min(shard_acked_) reaches it.
  mutable std::mutex ckpt_mutex_;
  std::deque<uint64_t> pending_ckpts_;
  std::vector<uint64_t> shard_acked_;
  /// Superseded records keyed by the version whose publication makes them
  /// unreachable by any current or future checkpoint.
  std::map<uint64_t, std::vector<DeferredRecord>> deferred_free_;
  /// Snapshot-read side index: per key, the superseded-but-not-yet-freed
  /// records (parallel to deferred_free_ + limbo_), so a MultiGet pinned at
  /// checkpoint cp can find the newest record <= cp after the live slot
  /// moved past it. Guarded by ckpt_mutex_; entries are pruned exactly when
  /// the record is freed.
  std::unordered_map<EntryId, std::vector<SnapshotRecord>> snapshot_index_;
  /// In-flight snapshot reads (MultiGet pins). While > 0, publication moves
  /// would-be-freed records to limbo_ instead of freeing them.
  size_t snapshot_pins_ = 0;
  /// Records whose GC was parked because readers were pinned; drained by
  /// the last ReleaseSnapshot.
  std::vector<DeferredRecord> limbo_;
  std::atomic<uint64_t> published_ckpt_{0};

  static constexpr size_t kPushShards = 256;
  std::array<SpinLock, kPushShards> push_locks_;

  StoreStats stats_;
  mutable pmem::DeviceStats dram_stats_;

  // Observability (DESIGN.md §9): latency distributions on the default
  // MetricsRegistry, labeled {"engine","store"} (plus {"shard"} for
  // maintenance chunks) so concurrent store instances stay distinct.
  // Registered once in the constructor; recording is lock-free.
  obs::Distribution* pull_latency_;
  obs::Distribution* push_latency_;
  obs::Distribution* multiget_latency_;
  std::vector<obs::Distribution*> shard_maint_latency_;
  // Cache health gauges, refreshed after each maintenance chunk:
  // store.cache_hit_rate_bp (hit rate in basis points, 0..10000) and
  // store.cache_pinned_entries (current freq-policy pin count).
  obs::Gauge* hit_rate_gauge_;
  obs::Gauge* pinned_gauge_;
};

}  // namespace oe::storage

#endif  // OE_STORAGE_PIPELINED_STORE_H_
