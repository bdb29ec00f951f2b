// Conformance suite for the pipelined store's per-shard index, the
// F14-style flat table (storage/kv_flat.h): point operations, growth,
// batched-probe parity, randomized operations against a std::unordered_map
// reference model, and bounded capacity under erase churn.

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "cache/tagged_ptr.h"
#include "common/random.h"
#include "storage/kv_flat.h"
#include "test_util.h"

namespace oe::storage {
namespace {

using cache::AtomicTaggedPtr;
using cache::TaggedPtr;

TaggedPtr Val(uint64_t n) { return TaggedPtr::FromPmem(n * 8); }

TEST(FlatIndexTest, InsertFindUpdateEraseClear) {
  FlatIndex kv;
  EXPECT_EQ(kv.Size(), 0u);
  EXPECT_EQ(kv.Find(42), nullptr);
  EXPECT_FALSE(kv.Erase(42));

  AtomicTaggedPtr* slot = kv.Upsert(42, Val(1));
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(kv.Size(), 1u);
  EXPECT_EQ(slot->load().pmem_offset(), Val(1).pmem_offset());
  ASSERT_NE(kv.Find(42), nullptr);
  EXPECT_EQ(kv.Find(42)->load().pmem_offset(), Val(1).pmem_offset());

  // Upsert of an existing key updates in place, size unchanged.
  kv.Upsert(42, Val(2));
  EXPECT_EQ(kv.Size(), 1u);
  EXPECT_EQ(kv.Find(42)->load().pmem_offset(), Val(2).pmem_offset());

  // The slot is an atomic the push path stores through directly.
  kv.Find(42)->store(Val(3));
  EXPECT_EQ(kv.Find(42)->load().pmem_offset(), Val(3).pmem_offset());

  EXPECT_TRUE(kv.Erase(42));
  EXPECT_EQ(kv.Size(), 0u);
  EXPECT_EQ(kv.Find(42), nullptr);
  EXPECT_FALSE(kv.Erase(42));

  for (EntryId k = 1; k <= 10; ++k) kv.Upsert(k, Val(k));
  kv.Clear();
  EXPECT_EQ(kv.Size(), 0u);
  for (EntryId k = 1; k <= 10; ++k) EXPECT_EQ(kv.Find(k), nullptr);
  // And the index is reusable after Clear.
  kv.Upsert(7, Val(7));
  EXPECT_EQ(kv.Size(), 1u);
}

TEST(FlatIndexTest, GrowthKeepsEveryKeyFindable) {
  // 3000 keys: the table rehashes ~6 times from its 64-slot seed.
  constexpr EntryId kKeys = 3000;
  FlatIndex kv;
  for (EntryId k = 1; k <= kKeys; ++k) kv.Upsert(k, Val(k));
  ASSERT_EQ(kv.Size(), kKeys);
  for (EntryId k = 1; k <= kKeys; ++k) {
    const AtomicTaggedPtr* slot = kv.Find(k);
    ASSERT_NE(slot, nullptr) << "key " << k;
    EXPECT_EQ(slot->load().pmem_offset(), Val(k).pmem_offset());
  }
  EXPECT_EQ(kv.Find(kKeys + 1), nullptr);
}

TEST(FlatIndexTest, RandomizedOpsMatchReferenceMap) {
  const uint64_t seed = oe::test::TestSeed(20260809);
  SCOPED_TRACE("OE_TEST_SEED=" + std::to_string(seed));
  FlatIndex kv;
  std::unordered_map<EntryId, uint64_t> ref;
  Random rng(seed);
  for (int op = 0; op < 20000; ++op) {
    const EntryId key = 1 + rng.Uniform(600);  // dense: plenty of hits
    const uint64_t roll = rng.Uniform(10);
    if (roll < 6) {
      const uint64_t v = 1 + rng.Uniform(1u << 20);
      kv.Upsert(key, Val(v));
      ref[key] = v;
    } else if (roll < 9) {
      EXPECT_EQ(kv.Erase(key), ref.erase(key) != 0);
    } else {
      const AtomicTaggedPtr* slot = kv.Find(key);
      auto it = ref.find(key);
      ASSERT_EQ(slot != nullptr, it != ref.end());
      if (slot != nullptr) {
        EXPECT_EQ(slot->load().pmem_offset(), Val(it->second).pmem_offset());
      }
    }
  }
  ASSERT_EQ(kv.Size(), ref.size());
  // Full-scan parity: ForEach yields exactly the reference contents.
  size_t seen = 0;
  kv.ForEach([&](EntryId key, TaggedPtr value) {
    ++seen;
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "ForEach produced unknown key " << key;
    EXPECT_EQ(value.pmem_offset(), Val(it->second).pmem_offset());
  });
  EXPECT_EQ(seen, ref.size());
}

// FindBatch is the store's hot path (pipelined probe), Find the reference:
// over a mixed stream of present/absent keys — batch sizes straddling the
// internal pipeline stride — both must agree slot-for-slot.
TEST(FlatIndexTest, FindBatchMatchesFind) {
  const uint64_t seed = oe::test::TestSeed(20260810);
  SCOPED_TRACE("OE_TEST_SEED=" + std::to_string(seed));
  FlatIndex kv;
  Random rng(seed);
  for (EntryId key = 0; key < 800; ++key) {
    if (rng.Uniform(3) != 0) {  // ~1/3 of the keyspace stays absent
      kv.Upsert(key, Val(key + 1));
    }
  }
  for (size_t n : {size_t{1}, size_t{7}, size_t{16}, size_t{33},
                   size_t{256}}) {
    std::vector<EntryId> keys(n);
    for (auto& key : keys) key = rng.Uniform(1000);  // some out of range
    std::vector<AtomicTaggedPtr*> slots(n, nullptr);
    kv.FindBatch(keys.data(), n, slots.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(slots[i], kv.Find(keys[i])) << "key " << keys[i];
    }
  }
}

// Migration churn (PurgeSlots / RemoveKeys erase, imports insert) leaves
// tombstones behind, and erases never return a slot to "empty". At a fixed
// live size the table must reclaim them by rehashing in place instead of
// doubling whenever the load-factor gate trips: capacity stays at what the
// live set needs, and every live key stays findable throughout.
TEST(FlatIndexTest, EraseChurnKeepsCapacityBounded) {
  const uint64_t seed = oe::test::TestSeed(20261019);
  SCOPED_TRACE("OE_TEST_SEED=" + std::to_string(seed));
  // 1000 live keys settle at 2048 slots (1024 would exceed the 7/8 gate),
  // where they fill less than half the table.
  constexpr size_t kLive = 1000;
  FlatIndex kv;
  Random rng(seed);
  std::vector<EntryId> live(kLive);
  for (EntryId& key : live) {
    key = rng.Next();
    kv.Upsert(key, Val(key >> 8));
  }
  const size_t settled = kv.capacity();
  ASSERT_EQ(settled, size_t{2048});
  // Replace a random 10% of the live set per round with fresh random keys.
  // Without tombstone reclamation the gate trips (and the table doubles)
  // within ~100 rounds; 400 rounds trip it several times.
  for (int round = 0; round < 400; ++round) {
    for (size_t i = 0; i < kLive / 10; ++i) {
      EntryId& key = live[rng.Uniform(kLive)];
      ASSERT_TRUE(kv.Erase(key));
      key = rng.Next();
      kv.Upsert(key, Val(key >> 8));
    }
    ASSERT_EQ(kv.Size(), kLive);
    ASSERT_EQ(kv.capacity(), settled) << "round " << round;
  }
  for (EntryId key : live) {
    const AtomicTaggedPtr* slot = kv.Find(key);
    ASSERT_NE(slot, nullptr) << "key " << key;
    EXPECT_EQ(slot->load().pmem_offset(), Val(key >> 8).pmem_offset());
  }
}

}  // namespace
}  // namespace oe::storage
