// Pool inspector: a small operator tool that opens a (file-backed) PMem
// image, validates the pool, and prints what a recovery would see —
// checkpoint id, record census per version, space accounting. Useful when
// deciding whether a crashed node can be recovered locally or needs a
// remote-backup import.
//
// Usage: pool_inspector [image-path]
// Without arguments it builds a demo image first, then inspects it.

#include <cstdio>
#include <map>
#include <numeric>
#include <string>

#include "common/format.h"
#include "pmem/pool.h"
#include "pmem/slab_allocator.h"
#include "storage/pipelined_store.h"

namespace {

constexpr uint32_t kDim = 16;

oe::Status BuildDemoImage(const std::string& path) {
  oe::pmem::PmemDeviceOptions device_options;
  device_options.size_bytes = 32 << 20;
  device_options.backing_file = path;
  device_options.crash_fidelity = oe::pmem::CrashFidelity::kNone;
  OE_ASSIGN_OR_RETURN(auto device,
                      oe::pmem::PmemDevice::Create(device_options));
  oe::storage::StoreConfig config;
  config.dim = kDim;
  config.cache_bytes = 16 << 10;
  OE_ASSIGN_OR_RETURN(auto store, oe::storage::PipelinedStore::Create(
                                      config, device.get()));
  std::vector<uint64_t> keys(512);
  std::iota(keys.begin(), keys.end(), 0);
  std::vector<float> weights(keys.size() * kDim);
  std::vector<float> grads(keys.size() * kDim, 0.1f);
  for (uint64_t batch = 1; batch <= 6; ++batch) {
    OE_RETURN_IF_ERROR(
        store->Pull(keys.data(), keys.size(), batch, weights.data()));
    store->FinishPullPhase(batch);
    OE_RETURN_IF_ERROR(
        store->Push(keys.data(), keys.size(), grads.data(), batch));
    if (batch == 4) {
      // Checkpoint right after batch 4 completes, then keep training:
      // batches 5-6 leave "future" records that recovery would discard.
      OE_RETURN_IF_ERROR(store->RequestCheckpoint(4));
      OE_RETURN_IF_ERROR(store->DrainCheckpoints());
    }
  }
  return oe::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : "/tmp/oe_demo_pool.img";
  if (argc <= 1) {
    std::printf("no image given; building demo image at %s\n", path.c_str());
    if (auto status = BuildDemoImage(path); !status.ok()) {
      std::fprintf(stderr, "demo build failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  oe::pmem::PmemDeviceOptions device_options;
  device_options.size_bytes = 32 << 20;
  device_options.backing_file = path;
  device_options.crash_fidelity = oe::pmem::CrashFidelity::kNone;
  auto device_result = oe::pmem::PmemDevice::Create(device_options);
  if (!device_result.ok()) {
    std::fprintf(stderr, "open device: %s\n",
                 device_result.status().ToString().c_str());
    return 1;
  }
  auto device = std::move(device_result).ValueOrDie();
  auto pool_result = oe::pmem::PmemPool::Open(device.get());
  if (!pool_result.ok()) {
    std::fprintf(stderr, "pool invalid: %s\n",
                 pool_result.status().ToString().c_str());
    return 1;
  }
  auto pool = std::move(pool_result).ValueOrDie();
  // Entry records live in slab extents; attaching only reads the bitmaps.
  auto slab_result = oe::pmem::SlabAllocator::Attach(
      pool.get(), oe::pmem::SlabAllocatorOptions());
  if (!slab_result.ok()) {
    std::fprintf(stderr, "slab extents invalid: %s\n",
                 slab_result.status().ToString().c_str());
    return 1;
  }
  auto slab = std::move(slab_result).ValueOrDie();

  const uint64_t checkpoint = pool->RootGet(0);
  std::printf("\n=== pool report: %s ===\n", path.c_str());
  std::printf("checkpointed batch id : %llu\n",
              static_cast<unsigned long long>(checkpoint));
  std::printf("allocated             : %s\n",
              oe::FormatBytes(pool->AllocatedBytes()).c_str());
  std::printf("free                  : %s\n",
              oe::FormatBytes(pool->FreeBytes()).c_str());

  std::map<uint64_t, uint64_t> census;  // version -> records
  uint64_t records = 0;
  uint64_t recoverable = 0;
  uint64_t discardable = 0;
  slab->ForEachAllocated([&](uint64_t offset, uint64_t size) {
    (void)size;
    const uint8_t* record = pool->Translate(offset);
    const uint64_t version =
        oe::storage::EntryLayout::RecordVersion(record);
    ++census[version];
    ++records;
    if (version <= checkpoint) {
      ++recoverable;
    } else {
      ++discardable;
    }
  });
  std::printf("entry records         : %llu (%llu recoverable, %llu newer "
              "than the checkpoint)\n",
              static_cast<unsigned long long>(records),
              static_cast<unsigned long long>(recoverable),
              static_cast<unsigned long long>(discardable));
  std::printf("records per version:\n");
  for (const auto& [version, count] : census) {
    std::printf("  batch %4llu : %6llu %s\n",
                static_cast<unsigned long long>(version),
                static_cast<unsigned long long>(count),
                version <= checkpoint ? "(in checkpoint)" : "(discard)");
  }
  std::printf("verdict: %s\n",
              checkpoint > 0 && recoverable > 0
                  ? "locally recoverable"
                  : "no local checkpoint — import from remote backup");
  return 0;
}
