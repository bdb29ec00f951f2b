// Remote-backup tier and parallel recovery (the paper's Section I two-tier
// checkpoint scheme and Section VI-E parallel-recovery note).

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "ckpt/checkpoint_log.h"
#include "common/random.h"
#include "storage/pipelined_store.h"
#include "test_util.h"

namespace oe::storage {
namespace {

using ckpt::CheckpointLog;
using pmem::CrashFidelity;
using pmem::DeviceKind;
using pmem::PmemDevice;
using pmem::PmemDeviceOptions;

constexpr uint32_t kDim = oe::test::kSmallDim;

using oe::test::SmallConfig;

std::unique_ptr<PmemDevice> MakeDevice(
    DeviceKind kind = DeviceKind::kPmem,
    CrashFidelity fidelity = CrashFidelity::kStrict) {
  return oe::test::MakeDevice(
      {.size_bytes = 32 << 20, .kind = kind, .fidelity = fidelity});
}

void TrainBatch(PipelinedStore* store, uint64_t batch,
                const std::vector<EntryId>& keys, float g) {
  std::vector<float> w(keys.size() * kDim);
  ASSERT_TRUE(store->Pull(keys.data(), keys.size(), batch, w.data()).ok());
  store->FinishPullPhase(batch);
  std::vector<float> grads(keys.size() * kDim, g);
  ASSERT_TRUE(
      store->Push(keys.data(), keys.size(), grads.data(), batch).ok());
}

// Backup is the migration export of every routing slot: per key, the
// newest record at or below the published checkpoint, plus the live head
// when training has moved past it.
Status Backup(PipelinedStore* store, CheckpointLog* remote) {
  return store->ExportRange(std::vector<bool>(kNumRoutingSlots, true), remote);
}

// Restore is the migration import into a fresh store on `device`, then the
// store's normal reopen: its recovery scan drops every imported head newer
// than the backup's checkpoint, so the restored model is exactly the
// published checkpoint.
Result<std::unique_ptr<PipelinedStore>> Restore(const CheckpointLog& remote,
                                                PmemDevice* device) {
  {
    OE_ASSIGN_OR_RETURN(auto fresh,
                        PipelinedStore::Create(SmallConfig(), device));
    std::vector<EntryId> imported;
    OE_RETURN_IF_ERROR(fresh->ImportRange(remote, &imported));
  }
  return PipelinedStore::Open(SmallConfig(), device);
}

TEST(RemoteBackupTest, ExportRequiresPublishedCheckpoint) {
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(SmallConfig(), device.get())
                   .ValueOrDie();
  auto remote_device = MakeDevice(DeviceKind::kSsd);
  EntryLayout layout(kDim, 0);
  auto remote =
      CheckpointLog::Create(remote_device.get(), layout).ValueOrDie();
  EXPECT_FALSE(Backup(store.get(), nullptr).ok());
  std::vector<EntryId> keys = {1, 2};
  TrainBatch(store.get(), 1, keys, 0.1f);
  EXPECT_EQ(Backup(store.get(), remote.get()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(RemoteBackupTest, TotalLossRestoreFromRemote) {
  EntryLayout layout(kDim, 0);
  auto remote_device = MakeDevice(DeviceKind::kSsd);
  auto remote =
      CheckpointLog::Create(remote_device.get(), layout).ValueOrDie();

  std::vector<EntryId> keys(64);
  std::iota(keys.begin(), keys.end(), 0);
  std::map<EntryId, std::vector<float>> expected;
  {
    auto device = MakeDevice();
    auto store = PipelinedStore::Create(SmallConfig(), device.get())
                     .ValueOrDie();
    TrainBatch(store.get(), 1, keys, 0.1f);
    TrainBatch(store.get(), 2, keys, 0.2f);
    ASSERT_TRUE(store->RequestCheckpoint(2).ok());
    ASSERT_TRUE(store->DrainCheckpoints().ok());
    // Periodic remote backup of the published checkpoint.
    ASSERT_TRUE(Backup(store.get(), remote.get()).ok());
    for (EntryId key : keys) expected[key] = store->Peek(key).ValueOrDie();
    // Post-backup updates that the remote tier does not know about.
    TrainBatch(store.get(), 3, keys, 0.9f);
    // The entire PS node (device included) is now lost.
  }

  // Replacement node: fresh device, restored from remote.
  auto new_device = MakeDevice();
  auto store = Restore(*remote, new_device.get()).ValueOrDie();
  EXPECT_EQ(store->PublishedCheckpoint(), 2u);
  EXPECT_EQ(store->EntryCount(), keys.size());
  for (EntryId key : keys) {
    EXPECT_EQ(store->Peek(key).ValueOrDie(), expected[key]) << key;
  }

  // The restored node trains and checkpoints normally.
  TrainBatch(store.get(), 3, keys, 0.1f);
  ASSERT_TRUE(store->RequestCheckpoint(3).ok());
  ASSERT_TRUE(store->DrainCheckpoints().ok());
  EXPECT_EQ(store->PublishedCheckpoint(), 3u);

  // And survives a local crash after the restore.
  new_device->SimulateCrash();
  ASSERT_TRUE(store->RecoverFromCrash().ok());
  EXPECT_EQ(store->PublishedCheckpoint(), 3u);
  EXPECT_EQ(store->EntryCount(), keys.size());
}

// A backup taken while training has moved past the checkpoint still
// restores exactly the checkpoint: pushes after it are absent, and a key
// first touched after it does not exist.
TEST(RemoteBackupTest, RestoreReflectsCheckpointNotLiveState) {
  EntryLayout layout(kDim, 0);
  auto remote_device = MakeDevice(DeviceKind::kPmem);
  auto remote =
      CheckpointLog::Create(remote_device.get(), layout).ValueOrDie();
  auto device = MakeDevice();
  auto store = PipelinedStore::Create(SmallConfig(), device.get())
                   .ValueOrDie();
  std::vector<EntryId> keys = {10, 11};
  TrainBatch(store.get(), 1, keys, 0.1f);
  ASSERT_TRUE(store->RequestCheckpoint(1).ok());
  ASSERT_TRUE(store->DrainCheckpoints().ok());
  std::map<EntryId, std::vector<float>> at_ckpt;
  for (EntryId key : keys) at_ckpt[key] = store->Peek(key).ValueOrDie();
  // Newer than the checkpoint: updates to 10 and 11, and a new key 12.
  TrainBatch(store.get(), 2, {10, 11, 12}, 0.5f);
  ASSERT_NE(store->Peek(10).ValueOrDie(), at_ckpt[10]);
  ASSERT_TRUE(Backup(store.get(), remote.get()).ok());

  auto new_device = MakeDevice();
  auto restored = Restore(*remote, new_device.get()).ValueOrDie();
  EXPECT_EQ(restored->PublishedCheckpoint(), 1u);
  EXPECT_EQ(restored->EntryCount(), keys.size());
  for (EntryId key : keys) {
    EXPECT_EQ(restored->Peek(key).ValueOrDie(), at_ckpt[key]) << key;
  }
  EXPECT_FALSE(restored->Peek(12).ok());
}

class ParallelRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelRecoveryTest, ThreadCountsAgree) {
  auto device = MakeDevice();
  StoreConfig config = SmallConfig();
  config.recovery_threads = GetParam();
  auto store = PipelinedStore::Create(config, device.get()).ValueOrDie();

  Random rng(99);
  std::vector<EntryId> keys(1024);
  std::iota(keys.begin(), keys.end(), 0);
  for (uint64_t batch = 1; batch <= 12; ++batch) {
    TrainBatch(store.get(), batch, keys, rng.UniformFloat(-0.2f, 0.2f));
    if (batch % 4 == 0) {
      ASSERT_TRUE(store->RequestCheckpoint(batch).ok());
      ASSERT_TRUE(store->DrainCheckpoints().ok());
    }
  }
  std::map<EntryId, std::vector<float>> expected;
  for (EntryId key : keys) expected[key] = store->Peek(key).ValueOrDie();

  device->SimulateCrash();
  ASSERT_TRUE(store->RecoverFromCrash().ok());
  EXPECT_EQ(store->PublishedCheckpoint(), 12u);
  EXPECT_EQ(store->EntryCount(), keys.size());
  for (EntryId key : keys) {
    auto got = store->Peek(key).ValueOrDie();
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_NEAR(got[d], expected[key][d], 1e-6)
          << "key " << key << " threads " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelRecoveryTest,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace oe::storage
