#include "layers.h"

#include <string>

namespace pb {

void DeclareLayers(Report* report) {
  struct Metric {
    const char* name;
    const char* unit;
    bool percentiles;
  };
  static constexpr Metric kLayers[] = {
      {"gen.lag_us", "us", true},
      {"read.open_p50_us", "us", false},
      {"read.open_tail_us", "us", false},
      {"read.max_qps", "1/s", false},
      {"train.pull_ms", "ms", true},
      {"train.compute_ms", "ms", true},
      {"train.push_ms", "ms", true},
      {"train.sync_ms", "ms", true},
      {"client.multiget_us", "us", true},
      {"client.pull_us", "us", true},
      {"client.push_us", "us", true},
      {"client.ckpt_us", "us", true},
      {"net.rpc_us", "us", true},
      {"net.rpcs_per_op", "count", false},
      {"net.bytes_per_key", "B", false},
      {"handler.multi_get_us", "us", true},
      {"handler.pull_us", "us", true},
      {"handler.push_us", "us", true},
      {"handler.wait_maintenance_us", "us", true},
      {"multiget.rpcs_per_read", "ratio", false},
      {"serving_cache.hit_rate", "ratio", false},
      {"store.pull_us", "us", true},
      {"store.push_us", "us", true},
      {"store.multiget_us", "us", true},
      {"store.maintenance_chunk_us", "us", true},
      {"store.hit_rate", "ratio", false},
      {"store.evictions_per_batch", "count", false},
      {"store.flushes_per_batch", "count", false},
      {"pmem.read_bytes_per_pull_key", "B", false},
      {"pmem.write_bytes_per_push_key", "B", false},
      {"pmem.persists_per_batch", "count", false},
      {"recover.entries_per_s", "1/s", false},
      {"ckpt.publish_lag_ms", "ms", true},
      {"residual", "us", false},
      {"trace_overhead", "%", false},
  };
  for (const Metric& m : kLayers) {
    if (m.percentiles) {
      report->Layer(std::string(m.name) + ".p50", 0, m.unit);
      report->Layer(std::string(m.name) + ".p99", 0, m.unit);
    } else {
      report->Layer(m.name, 0, m.unit);
    }
  }
}


ClusterCounters TakeCounters(ps::PsCluster* cluster,
                             const net::Transport& transport) {
  ClusterCounters c;
  for (uint32_t node = 0; node < cluster->num_nodes(); ++node) {
    const auto s = cluster->store(node)->stats_snapshot();
    c.store.pull_keys += s.pull_keys;
    c.store.push_keys += s.push_keys;
    c.store.cache_hits += s.cache_hits;
    c.store.cache_misses += s.cache_misses;
    c.store.evictions += s.evictions;
    c.store.flushes += s.flushes;
    if (const ps::ServingCache* cache = cluster->service(node)->serving_cache();
        cache != nullptr) {
      c.serving_hits += cache->stats().hits.load();
      c.serving_misses += cache->stats().misses.load();
    }
  }
  c.pmem = cluster->TotalPmemTraffic();
  c.net = transport.stats().TakeSnapshot();
  return c;
}

void ReportClusterLayers(const ClusterCounters& before,
                         const ClusterCounters& after,
                         const obs::MetricsSnapshot& reg_before,
                         const obs::MetricsSnapshot& reg_after,
                         const PhaseWork& work, Report* report) {
  auto delta = [&](std::string_view name, const obs::Labels& labels = {}) {
    return DistributionDelta(reg_before, reg_after, name, labels);
  };
  report->LayerPercentilesUs("net.rpc_us", delta("net.rpc_ns"));
  report->LayerPercentilesUs("store.pull_us", delta("store.pull_ns"));
  report->LayerPercentilesUs("store.push_us", delta("store.push_ns"));
  report->LayerPercentilesUs("store.multiget_us", delta("store.multiget_ns"));
  report->LayerPercentilesUs("store.maintenance_chunk_us",
                             delta("store.maintenance_chunk_ns"));
  for (const char* method : {"multi_get", "pull", "push", "wait_maintenance"}) {
    report->LayerPercentilesUs(std::string("handler.") + method + "_us",
                               delta("ps.handle_ns", {{"method", method}}));
  }

  const auto d = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double pull_keys = d(before.store.pull_keys, after.store.pull_keys);
  const double push_keys = d(before.store.push_keys, after.store.push_keys);
  const double hits = d(before.store.cache_hits, after.store.cache_hits);
  const double misses = d(before.store.cache_misses, after.store.cache_misses);
  const double bytes = d(before.net.bytes_sent, after.net.bytes_sent) +
                       d(before.net.bytes_received, after.net.bytes_received);
  const double s_hits = d(before.serving_hits, after.serving_hits);
  const double s_misses = d(before.serving_misses, after.serving_misses);
  const pmem::DeviceStats::Snapshot pmem = after.pmem - before.pmem;
  report->Layer("net.rpcs_per_op",
                Ratio(d(before.net.requests, after.net.requests), work.ops),
                "count");
  report->Layer("net.bytes_per_key",
                Ratio(bytes, work.read_keys + pull_keys + push_keys), "B");
  report->Layer("serving_cache.hit_rate", Ratio(s_hits, s_hits + s_misses),
                "ratio");
  report->Layer("store.hit_rate", Ratio(hits, hits + misses), "ratio");
  report->Layer("store.evictions_per_batch",
                Ratio(d(before.store.evictions, after.store.evictions),
                      work.batches),
                "count");
  report->Layer("store.flushes_per_batch",
                Ratio(d(before.store.flushes, after.store.flushes),
                      work.batches),
                "count");
  report->Layer("pmem.read_bytes_per_pull_key",
                Ratio(static_cast<double>(pmem.read_bytes), pull_keys), "B");
  report->Layer("pmem.write_bytes_per_push_key",
                Ratio(static_cast<double>(pmem.write_bytes), push_keys), "B");
  report->Layer("pmem.persists_per_batch",
                Ratio(static_cast<double>(pmem.persist_ops), work.batches),
                "count");
}

}  // namespace pb
