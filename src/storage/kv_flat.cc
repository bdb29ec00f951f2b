#include "storage/kv_flat.h"

#include <cstring>

#include "common/logging.h"

namespace oe::storage {
namespace {

constexpr uint64_t kLsb = 0x0101010101010101ULL;
constexpr uint64_t kMsb = 0x8080808080808080ULL;

/// SWAR zero-of-byte: the high bit of every byte of the result is set iff
/// the corresponding byte of `word` equals `byte`.
inline uint64_t MatchByte(uint64_t word, uint8_t byte) {
  const uint64_t x = word ^ (kLsb * byte);
  return (x - kLsb) & ~x & kMsb;
}

/// Single-multiply Fibonacci hash (xor-fold then golden-ratio multiply).
/// The probe's critical path is hash -> tag load -> slot load, so hash
/// latency is paid on every lookup; one multiply (~3 cycles) beats a full
/// splitmix64 finalizer (~3 multiplies + shifts) and the multiply's upper
/// half still depends on every input bit, which is where the chunk index
/// and fingerprint are taken from.
inline uint64_t Mix(uint64_t x) {
  return (x ^ (x >> 33)) * 0x9e3779b97f4a7c15ULL;
}

/// Fibonacci hashing proper: the chunk index is the multiply's TOP
/// log2(chunks) bits. A mid-bit window (say bits 32..46) looks mixed but
/// clusters badly on dense key ranges — measured 38 keys landing on one
/// 16-slot chunk at 256 Ki sequential keys, versus max 9 for the top-bit
/// window, because floor(x * K / 2^(64-b)) is a near-equidistributed
/// rotation in x while interior windows beat against the carry chain.
/// `chunks` is always >= 4 (kInitialSlots / kChunkSlots), so the shift
/// stays in range.
inline size_t ChunkIndex(uint64_t hash, size_t chunks) {
  return static_cast<size_t>(
      hash >> (64 - static_cast<unsigned>(__builtin_ctzll(chunks))));
}

/// Low bits, deliberately disjoint from the chunk-index window: keys in
/// the same chunk share their top bits, so a top-bit fingerprint would be
/// constant per chunk and every occupied slot would need a key compare.
inline uint8_t Fingerprint(uint64_t hash) {
  return static_cast<uint8_t>(0x80 | (hash & 0x7F));
}

}  // namespace

FlatIndex::FlatIndex() { Rehash(kInitialSlots); }

size_t FlatIndex::FindSlot(EntryId key) const {
  const uint64_t h = Mix(key);
  const uint8_t fp = Fingerprint(h);
  const size_t chunks = capacity_ / kChunkSlots;
  size_t c = ChunkIndex(h, chunks);
  for (size_t probes = 0; probes < chunks; ++probes) {
    const uint8_t* tags = tags_.data() + c * kChunkSlots;
    uint64_t words[2];
    std::memcpy(words, tags, sizeof(words));
    for (int half = 0; half < 2; ++half) {
      uint64_t m = MatchByte(words[half], fp);
      while (m != 0) {
        const size_t slot = c * kChunkSlots +
                            static_cast<size_t>(half) * 8 +
                            static_cast<size_t>(__builtin_ctzll(m) >> 3);
        if (slots_[slot].key == key) return slot;
        m &= m - 1;
      }
    }
    if ((MatchByte(words[0], kEmpty) | MatchByte(words[1], kEmpty)) != 0) {
      return SIZE_MAX;  // key would have been placed no later than here
    }
    c = (c + 1) & (chunks - 1);
  }
  return SIZE_MAX;
}

cache::AtomicTaggedPtr* FlatIndex::Find(EntryId key) {
  const size_t slot = FindSlot(key);
  return slot == SIZE_MAX ? nullptr : &slots_[slot].value;
}

const cache::AtomicTaggedPtr* FlatIndex::Find(EntryId key) const {
  const size_t slot = FindSlot(key);
  return slot == SIZE_MAX ? nullptr : &slots_[slot].value;
}

void FlatIndex::FindBatch(const EntryId* keys, size_t n,
                          cache::AtomicTaggedPtr** out) {
  // Three-stage software pipeline over blocks of kStride keys. Stage 1
  // hashes every key and prefetches its home tag line; stage 2 scans the
  // (now warm) tags and prefetches the exact slot lines the fingerprint
  // candidates live in; stage 3 does the key compares against warm lines.
  // Each stage gives the next a ~kStride-key prefetch lead, so the L2/L3
  // misses of successive keys overlap instead of serializing — the win a
  // per-key Find cannot have, because its tag load, slot load and key
  // compare form one dependent chain.
  const size_t chunks = capacity_ / kChunkSlots;
  constexpr size_t kStride = 16;
  size_t home[kStride];
  uint8_t fp[kStride];
  uint64_t cand0[kStride];
  uint64_t cand1[kStride];
  bool settled[kStride];  // empty tag in home chunk: no overflow probe
  for (size_t base = 0; base < n; base += kStride) {
    const size_t block = n - base < kStride ? n - base : kStride;
    for (size_t i = 0; i < block; ++i) {
      const uint64_t h = Mix(keys[base + i]);
      home[i] = ChunkIndex(h, chunks);
      fp[i] = Fingerprint(h);
      __builtin_prefetch(tags_.data() + home[i] * kChunkSlots, 0, 1);
    }
    for (size_t i = 0; i < block; ++i) {
      uint64_t words[2];
      std::memcpy(words, tags_.data() + home[i] * kChunkSlots, sizeof(words));
      cand0[i] = MatchByte(words[0], fp[i]);
      cand1[i] = MatchByte(words[1], fp[i]);
      settled[i] =
          (MatchByte(words[0], kEmpty) | MatchByte(words[1], kEmpty)) != 0;
      const Slot* chunk = slots_.data() + home[i] * kChunkSlots;
      if (cand0[i] != 0) {
        __builtin_prefetch(
            chunk + (static_cast<size_t>(__builtin_ctzll(cand0[i])) >> 3), 0,
            1);
      }
      if (cand1[i] != 0) {
        __builtin_prefetch(
            chunk + 8 + (static_cast<size_t>(__builtin_ctzll(cand1[i])) >> 3),
            0, 1);
      }
    }
    for (size_t i = 0; i < block; ++i) {
      const EntryId key = keys[base + i];
      const size_t slot0 = home[i] * kChunkSlots;
      cache::AtomicTaggedPtr* res = nullptr;
      for (uint64_t m = cand0[i]; m != 0; m &= m - 1) {
        const size_t slot =
            slot0 + (static_cast<size_t>(__builtin_ctzll(m)) >> 3);
        if (slots_[slot].key == key) {
          res = &slots_[slot].value;
          break;
        }
      }
      for (uint64_t m = cand1[i]; res == nullptr && m != 0; m &= m - 1) {
        const size_t slot =
            slot0 + 8 + (static_cast<size_t>(__builtin_ctzll(m)) >> 3);
        if (slots_[slot].key == key) {
          res = &slots_[slot].value;
          break;
        }
      }
      if (res == nullptr && !settled[i]) {
        res = Find(key);  // probe past the home chunk (rare at 7/8 load)
      }
      out[base + i] = res;
    }
  }
}

cache::AtomicTaggedPtr* FlatIndex::Upsert(EntryId key,
                                          cache::TaggedPtr value) {
  if ((used_ + 1) * 8 > capacity_ * 7) {
    // Mostly tombstones (erase churn): rehashing in place drops them and
    // leaves the table at most half full. Doubling here instead would grow
    // capacity without bound at a fixed live size.
    Rehash(size_ * 2 <= capacity_ ? capacity_ : capacity_ * 2);
  }
  const uint64_t h = Mix(key);
  const uint8_t fp = Fingerprint(h);
  const size_t chunks = capacity_ / kChunkSlots;
  size_t c = ChunkIndex(h, chunks);
  size_t insert_slot = SIZE_MAX;
  for (size_t probes = 0; probes < chunks; ++probes) {
    const uint8_t* tags = tags_.data() + c * kChunkSlots;
    uint64_t words[2];
    std::memcpy(words, tags, sizeof(words));
    for (int half = 0; half < 2; ++half) {
      uint64_t m = MatchByte(words[half], fp);
      while (m != 0) {
        const size_t slot = c * kChunkSlots +
                            static_cast<size_t>(half) * 8 +
                            static_cast<size_t>(__builtin_ctzll(m) >> 3);
        if (slots_[slot].key == key) {
          slots_[slot].value.store(value);
          return &slots_[slot].value;
        }
        m &= m - 1;
      }
    }
    // Remember the first reusable slot (tombstone or empty) on the probe
    // path; the key goes there if no chunk before the empty one holds it.
    const uint64_t free_mask =
        MatchByte(words[0], kEmpty) | MatchByte(words[0], kTombstone);
    const uint64_t free_mask1 =
        MatchByte(words[1], kEmpty) | MatchByte(words[1], kTombstone);
    if (insert_slot == SIZE_MAX && (free_mask | free_mask1) != 0) {
      insert_slot =
          c * kChunkSlots +
          (free_mask != 0
               ? static_cast<size_t>(__builtin_ctzll(free_mask) >> 3)
               : 8 + static_cast<size_t>(__builtin_ctzll(free_mask1) >> 3));
    }
    if ((MatchByte(words[0], kEmpty) | MatchByte(words[1], kEmpty)) != 0) {
      break;  // key is absent past the first empty-bearing chunk
    }
    c = (c + 1) & (chunks - 1);
  }
  // The 7/8 load-factor gate guarantees empties exist, so the probe always
  // terminates with a reusable slot in hand.
  OE_CHECK(insert_slot != SIZE_MAX);
  if (tags_[insert_slot] == kEmpty) ++used_;
  tags_[insert_slot] = fp;
  slots_[insert_slot].key = key;
  slots_[insert_slot].value.store(value);
  ++size_;
  return &slots_[insert_slot].value;
}

bool FlatIndex::Erase(EntryId key) {
  const size_t slot = FindSlot(key);
  if (slot == SIZE_MAX) return false;
  // Tombstone, not empty: probes for other keys may pass through here.
  tags_[slot] = kTombstone;
  slots_[slot].value.store(cache::TaggedPtr());
  --size_;
  return true;
}

void FlatIndex::Clear() {
  std::fill(tags_.begin(), tags_.end(), kEmpty);
  size_ = 0;
  used_ = 0;
}

void FlatIndex::Reserve(size_t n) {
  size_t target = kInitialSlots;
  // Capacity such that n stays under the 7/8 gate.
  while (target * 7 < (n + 1) * 8) target *= 2;
  if (target > capacity_) Rehash(target);
}

void FlatIndex::ForEach(
    const std::function<void(EntryId, cache::TaggedPtr)>& fn) const {
  for (size_t i = 0; i < capacity_; ++i) {
    if (tags_[i] & 0x80) fn(slots_[i].key, slots_[i].value.load());
  }
}

void FlatIndex::InsertFresh(EntryId key, cache::TaggedPtr value) {
  const uint64_t h = Mix(key);
  const size_t chunks = capacity_ / kChunkSlots;
  size_t c = ChunkIndex(h, chunks);
  for (;;) {
    const uint8_t* tags = tags_.data() + c * kChunkSlots;
    uint64_t words[2];
    std::memcpy(words, tags, sizeof(words));
    const uint64_t e0 = MatchByte(words[0], kEmpty);
    const uint64_t e1 = MatchByte(words[1], kEmpty);
    if ((e0 | e1) != 0) {
      const size_t slot =
          c * kChunkSlots +
          (e0 != 0 ? static_cast<size_t>(__builtin_ctzll(e0) >> 3)
                   : 8 + static_cast<size_t>(__builtin_ctzll(e1) >> 3));
      tags_[slot] = Fingerprint(h);
      slots_[slot].key = key;
      slots_[slot].value.store(value);
      ++size_;
      ++used_;
      return;
    }
    c = (c + 1) & (chunks - 1);
  }
}

void FlatIndex::Rehash(size_t new_slots) {
  std::vector<uint8_t> old_tags = std::move(tags_);
  std::vector<Slot> old_slots = std::move(slots_);
  const size_t old_capacity = capacity_;

  capacity_ = new_slots;
  tags_.assign(capacity_, kEmpty);
  slots_.assign(capacity_, Slot{});
  size_ = 0;
  used_ = 0;
  for (size_t i = 0; i < old_capacity; ++i) {
    if (old_tags[i] & 0x80) {
      InsertFresh(old_slots[i].key, old_slots[i].value.load());
    }
  }
}

}  // namespace oe::storage
