// Pipeline throughput benchmarks (ROADMAP "Pipeline architecture").
//
// Measures the tiers of the observation path on one realistic workload
// (bursty merged-feed stream, 1-in-16 groups hijack-relevant):
//   * BM_BatchPath/<B>       — hub.publish_batch spans of B into
//                              process_batch: the production path.
//   * BM_TableBatchPath/owned:<N> — BM_BatchPath at B=256 against N
//                              owned prefixes (1k / 100k / 1M), with a
//                              mixed-length stream over the table's space.
//   * BM_DetectionBatch/<B>  — process_batch alone (no hub), isolating
//                              the detection-side amortization.
//   * BM_HubPublish/sources:<S> — publish_batch alone (no subscriber):
//                              the hub's per-source accounting over S
//                              sources interleaved record by record, as
//                              an MRT import's collector peers arrive.
//   * BM_ShardedInline/<N>   — inline hash dispatch across N shards.
//   * BM_InlineRpki          — one shard with a dense ROA table: the
//                              route-origin validation path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "artemis/detection.hpp"
#include "feeds/monitor_hub.hpp"
#include "pipeline/sharded_detector.hpp"
#include "rpki/roa.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

using namespace artemis;

namespace {

core::Config make_config() {
  core::Config config;
  core::OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  config.add_owned(std::move(owned));
  return config;
}

net::Prefix random_prefix(Rng& rng) {
  return net::Prefix(net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
                     static_cast<int>(rng.uniform_int(8, 24)));
}

/// The shared workload: 64k observations in bursts of 8 (a collector
/// message / archive window repeats the same route), 1 in 16 bursts
/// touching the owned prefix — the mix a deployed ARTEMIS sees.
const std::vector<feeds::Observation>& workload() {
  static const std::vector<feeds::Observation> stream = [] {
    Rng rng(6);
    std::vector<feeds::Observation> out;
    constexpr int kBursts = 8192;
    constexpr int kBurstLen = 8;
    out.reserve(kBursts * kBurstLen);
    for (int g = 0; g < kBursts; ++g) {
      feeds::Observation obs;
      obs.type = feeds::ObservationType::kAnnouncement;
      obs.source = feeds::intern_source((g % 3 == 0)   ? "ris-live"
                                        : (g % 3 == 1) ? "bgpmon"
                                                       : "periscope");
      obs.vantage = 9;
      obs.prefix = (g % 16 == 0) ? net::Prefix::must_parse("10.0.0.0/23")
                                 : random_prefix(rng);
      obs.attrs.as_path = bgp::AsPath({9, 3356, (g % 16 == 0) ? 666u : 65001u});
      obs.event_time = SimTime::at_seconds(g);
      obs.delivered_at = SimTime::at_seconds(g + 5);
      for (int i = 0; i < kBurstLen; ++i) out.push_back(obs);
    }
    return out;
  }();
  return stream;
}

void BM_BatchPath(benchmark::State& state) {
  const core::Config config = make_config();
  core::DetectionService detector(config);
  feeds::MonitorHub hub;
  detector.attach(hub);  // batch subscription
  const auto& stream = workload();
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(batch_size, stream.size() - i);
    hub.publish_batch({stream.data() + i, n});
    i += n;
    if (i >= stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_BatchPath)->Arg(64)->Arg(256)->Arg(1024);

/// BM_BatchPath's hub -> process_batch path at B=256 against production-
/// sized ownership tables: `owned` prefixes of mixed length (v4 /16-/24,
/// a quarter v6 /32-/48) across 100 tenants. The stream keeps the bursts
/// of 8 but draws each burst's prefix from the table's own space — an
/// owned entry exactly, a more-specific of one (up to 4 bits longer) or
/// a less-specific (up to 4 bits shorter) — half the time, and from
/// random space of the same length mix otherwise; 1 in 16 bursts is a
/// hijack. Read owned:100000 against owned:1000 for how detection holds
/// up once the table outgrows the cache.
struct OwnedWorkload {
  std::shared_ptr<const core::OwnershipTable> table;
  std::vector<feeds::Observation> stream;
};

const OwnedWorkload& owned_workload(std::size_t owned) {
  // One table at a time: google-benchmark re-enters a bench once per
  // iteration-count probe, and a 1M-prefix table takes seconds to build.
  static std::size_t cached_size = 0;
  static OwnedWorkload cached;
  if (cached_size == owned) return cached;
  cached = {};
  Rng rng(owned);
  const auto mixed_prefix = [&rng] {
    if (rng.chance(0.25)) {
      return net::Prefix(net::IpAddress::v6(rng.next_u64(), 0),
                         static_cast<int>(rng.uniform_int(32, 48)));
    }
    return net::Prefix(net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
                       static_cast<int>(rng.uniform_int(16, 24)));
  };
  std::vector<core::OwnedPrefix> entries(owned);
  std::vector<core::TenantInfo> tenants(100);
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    tenants[t].id = static_cast<core::TenantId>(t);
    tenants[t].name = "tenant" + std::to_string(t);
  }
  for (std::size_t i = 0; i < owned; ++i) {
    entries[i].prefix = mixed_prefix();
    entries[i].legitimate_origins.insert(65001);
    entries[i].tenant = static_cast<core::TenantId>(i % tenants.size());
  }
  constexpr int kBursts = 8192;
  constexpr int kBurstLen = 8;
  cached.stream.reserve(kBursts * kBurstLen);
  for (int g = 0; g < kBursts; ++g) {
    feeds::Observation obs;
    obs.type = feeds::ObservationType::kAnnouncement;
    obs.source = feeds::intern_source((g % 3 == 0)   ? "ris-live"
                                      : (g % 3 == 1) ? "bgpmon"
                                                     : "periscope");
    obs.vantage = 9;
    if (rng.chance(0.5)) {
      const net::Prefix& base = entries[rng.uniform_u64(owned)].prefix;
      const int len = std::clamp(base.length() + static_cast<int>(rng.uniform_int(-4, 4)),
                                 0, base.is_v4() ? 32 : 128);
      obs.prefix = net::Prefix(base.address(), len);
    } else {
      obs.prefix = mixed_prefix();
    }
    obs.attrs.as_path = bgp::AsPath({9, 3356, (g % 16 == 0) ? 666u : 65001u});
    obs.event_time = SimTime::at_seconds(g);
    obs.delivered_at = SimTime::at_seconds(g + 5);
    for (int i = 0; i < kBurstLen; ++i) cached.stream.push_back(obs);
  }
  cached.table =
      std::make_shared<const core::OwnershipTable>(std::move(entries), std::move(tenants));
  cached_size = owned;
  return cached;
}

void BM_TableBatchPath(benchmark::State& state) {
  const OwnedWorkload& work = owned_workload(static_cast<std::size_t>(state.range(0)));
  core::DetectionService detector(work.table);
  feeds::MonitorHub hub;
  detector.attach(hub);
  const auto& stream = work.stream;
  constexpr std::size_t kBatch = 256;
  std::size_t i = 0;
  for (auto _ : state) {
    hub.publish_batch({stream.data() + i, kBatch});
    i += kBatch;
    if (i >= stream.size()) i = 0;
  }
  benchmark::DoNotOptimize(detector.observations_matched());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_TableBatchPath)->ArgNames({"owned"})->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_DetectionBatch(benchmark::State& state) {
  const core::Config config = make_config();
  core::DetectionService detector(config);
  const auto& stream = workload();
  const std::size_t batch_size = static_cast<std::size_t>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(batch_size, stream.size() - i);
    detector.process_batch({stream.data() + i, n});
    i += n;
    if (i >= stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_DetectionBatch)->Arg(64)->Arg(256)->Arg(1024);

void BM_HubPublish(benchmark::State& state) {
  const auto sources = static_cast<std::size_t>(state.range(0));
  std::vector<feeds::SourceId> ids;
  for (std::size_t s = 0; s < sources; ++s) {
    ids.push_back(feeds::intern_source("mrt:AS" + std::to_string(64512 + s)));
  }
  std::vector<feeds::Observation> stream(workload().begin(), workload().begin() + 4096);
  for (std::size_t i = 0; i < stream.size(); ++i) stream[i].source = ids[i % sources];
  feeds::MonitorHub hub;
  constexpr std::size_t kBatch = 256;
  std::size_t i = 0;
  for (auto _ : state) {
    hub.publish_batch({stream.data() + i, kBatch});
    i = (i + kBatch) % stream.size();
  }
  benchmark::DoNotOptimize(hub.total_observations());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_HubPublish)->ArgNames({"sources"})->Arg(1)->Arg(32);

/// The telemetry cost gate (ISSUE 8): BM_BatchPath's exact hub->detection
/// workload at B=1024, with metrics:0 = bare and metrics:1 = a registry
/// wired into the detection service (counters + the detection-delay
/// histogram fed from batch-local tallies). The acceptance bar: the
/// metrics:1 leg stays within 5% of metrics:0 items/s — roughly one
/// relaxed store per counter per batch, nothing per observation.
void BM_MetricsOverhead(benchmark::State& state) {
  const core::Config config = make_config();
  core::DetectionService detector(config);
  telemetry::MetricsRegistry registry;
  if (state.range(0) != 0) {
    detector.set_metrics(telemetry::register_detection(registry));
  }
  feeds::MonitorHub hub;
  if (state.range(0) != 0) hub.set_metrics(&registry);
  detector.attach(hub);
  const auto& stream = workload();
  constexpr std::size_t kBatch = 1024;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(kBatch, stream.size() - i);
    hub.publish_batch({stream.data() + i, n});
    i += n;
    if (i >= stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_MetricsOverhead)->ArgNames({"metrics"})->Arg(0)->Arg(1);

void BM_ShardedInline(benchmark::State& state) {
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  pipeline::ShardedDetector detector(config, options);
  const auto& stream = workload();
  constexpr std::size_t kBatch = 1024;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(kBatch, stream.size() - i);
    detector.submit_batch({stream.data() + i, n});
    i += n;
    if (i >= stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_ShardedInline)->Arg(1)->Arg(2)->Arg(4);

/// A dense ROA table so every out-of-owned-space announcement pays an
/// RPKI origin validation (the realistic "heavy" per-observation cost).
const rpki::RoaTable& dense_roa_table() {
  static const rpki::RoaTable table = [] {
    Rng rng(7);
    rpki::RoaTable t;
    for (int i = 0; i < 100000; ++i) {
      rpki::Roa roa;
      roa.prefix = net::Prefix(
          net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
          static_cast<int>(rng.uniform_int(8, 20)));
      roa.asn = 65001;  // authorizes the workload's legitimate origin
      roa.max_length = 24;
      t.add(roa);
    }
    return t;
  }();
  return table;
}

void BM_InlineRpki(benchmark::State& state) {
  // The surviving route-origin validation path: BM_ShardedInline/1's
  // workload, with every out-of-owned-space announcement validated
  // against 100k ROAs.
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.detection.roa_table = &dense_roa_table();
  pipeline::ShardedDetector detector(config, options);
  const auto& stream = workload();
  constexpr std::size_t kBatch = 1024;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(kBatch, stream.size() - i);
    detector.submit_batch({stream.data() + i, n});
    i += n;
    if (i >= stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_InlineRpki);

}  // namespace

BENCHMARK_MAIN();
