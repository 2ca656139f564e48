// Pipeline throughput benchmarks (ROADMAP "Pipeline architecture").
//
// Measures the three tiers of the observation path on one realistic
// workload (bursty merged-feed stream, 1-in-16 groups hijack-relevant):
//   * BM_CallbackPath        — per-observation publish through the hub's
//                              per-observation shim into process(): the
//                              pre-batching architecture, kept as the
//                              comparison baseline.
//   * BM_BatchPath/<B>       — hub.publish_batch spans of B into
//                              process_batch: the batch-first path. The
//                              acceptance bar is ≥ 2x BM_CallbackPath
//                              items/s at B ≥ 256.
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
//   * BM_ShardedThreaded/<N> — SPSC rings + N workers; submit+flush per
//                              iteration. Multi-shard scaling.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "artemis/detection.hpp"
#include "feeds/monitor_hub.hpp"
#include "pipeline/batch_ring.hpp"
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

void BM_CallbackPath(benchmark::State& state) {
  const core::Config config = make_config();
  core::DetectionService detector(config);
  feeds::MonitorHub hub;
  // The pre-pipeline wiring: a per-observation handler chain.
  hub.subscribe([&detector](const feeds::Observation& obs) { detector.process(obs); });
  const auto& stream = workload();
  std::size_t i = 0;
  for (auto _ : state) {
    hub.publish(stream[i]);
    i = (i + 1) & (stream.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CallbackPath);

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

void BM_ShardedThreaded(benchmark::State& state) {
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  options.threaded = true;
  options.queue_capacity = 1024;
  options.drain_batch = 128;
  pipeline::ShardedDetector detector(config, options);
  const auto& stream = workload();
  constexpr std::size_t kChunk = 1024;
  for (auto _ : state) {
    // One iteration = the full 64k-observation workload, fanned out and
    // fully drained (flush is the barrier the wall clock must include).
    for (std::size_t i = 0; i < stream.size(); i += kChunk) {
      detector.submit_batch({stream.data() + i, std::min(kChunk, stream.size() - i)});
    }
    detector.flush();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ShardedThreaded)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// The acceptance bench for the batch-granular handoff: N shard workers
/// draining BatchRings, full workload fan-out + flush per iteration, under
/// both wait policies (futex:0 = busy_poll, futex:1 = std::atomic::wait).
/// The scaling bar — threads:4 >= 2x threads:1 items/s — holds on a
/// >= 4-core runner; a 1-CPU container serializes the workers and this
/// bench then measures handoff overhead instead of scaling.
void BM_ShardedThroughput(benchmark::State& state) {
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  options.threaded = true;
  options.queue_capacity = 1024;
  options.drain_batch = 128;
  options.wait_policy = state.range(1) != 0 ? pipeline::WaitPolicy::kFutex
                                            : pipeline::WaitPolicy::kBusyPoll;
  pipeline::ShardedDetector detector(config, options);
  const auto& stream = workload();
  constexpr std::size_t kChunk = 1024;
  for (auto _ : state) {
    for (std::size_t i = 0; i < stream.size(); i += kChunk) {
      detector.submit_batch({stream.data() + i, std::min(kChunk, stream.size() - i)});
    }
    detector.flush();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ShardedThroughput)
    ->ArgNames({"threads", "futex"})
    ->Args({1, 0})->Args({2, 0})->Args({4, 0})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})
    ->UseRealTime();

// ---- handoff micro-benches -------------------------------------------------
//
// Pure cross-thread transfer cost, no detection work: the per-observation
// SpscRing handoff (one release store + one copy per observation, the
// pre-BatchRing design) against the batch-granular BatchRing (one release
// store per ~128 observations, observations copy-assigned into recycled
// slots). The acceptance bar: BM_HandoffBatchRing >= 5x BM_HandoffPerObsRing
// items/s. Consumer-side waits yield so the pair stays meaningful on a
// single-CPU runner.

void BM_HandoffPerObsRing(benchmark::State& state) {
  pipeline::SpscRing<feeds::Observation> ring(1024);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> drained{0};
  std::thread consumer([&] {
    feeds::Observation slot;  // recycled out-buffer, as the real worker has
    for (;;) {
      if (ring.try_pop(slot)) {
        drained.fetch_add(1, std::memory_order_release);
      } else if (stop.load(std::memory_order_acquire)) {
        if (!ring.try_pop(slot)) return;
        drained.fetch_add(1, std::memory_order_release);
      } else {
        std::this_thread::yield();
      }
    }
  });
  const auto& stream = workload();
  std::uint64_t pushed = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    while (!ring.try_push(stream[i])) std::this_thread::yield();
    ++pushed;
    i = (i + 1) & (stream.size() - 1);
  }
  while (drained.load(std::memory_order_acquire) < pushed) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  consumer.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HandoffPerObsRing)->UseRealTime();

void BM_HandoffBatchRing(benchmark::State& state) {
  pipeline::BatchRing ring(8, 128);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> drained{0};
  std::thread consumer([&] {
    for (;;) {
      pipeline::ObservationBatch* batch = ring.take(stop);
      if (batch == nullptr) return;
      drained.fetch_add(batch->size(), std::memory_order_release);
      ring.release(batch);
    }
  });
  const auto& stream = workload();
  pipeline::ObservationBatch* staging = nullptr;
  std::uint64_t pushed = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    if (staging == nullptr) staging = ring.acquire();
    staging->emplace_back() = stream[i];
    ++pushed;
    if (staging->size() == ring.batch_capacity()) {
      ring.publish(staging);
      staging = nullptr;
    }
    i = (i + 1) & (stream.size() - 1);
  }
  if (staging != nullptr && !staging->empty()) {
    ring.publish(staging);
    staging = nullptr;
  }
  while (drained.load(std::memory_order_acquire) < pushed) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  ring.wake_consumer();
  consumer.join();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HandoffBatchRing)->UseRealTime();

/// A dense ROA table so every out-of-owned-space announcement pays an
/// RPKI origin validation (the realistic "heavy" per-observation cost —
/// this is where sharding starts to pay: the handoff copy is fixed, the
/// per-observation work now dwarfs it and parallelizes).
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

void BM_ShardedThreadedRpki(benchmark::State& state) {
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  options.threaded = true;
  options.queue_capacity = 1024;
  options.drain_batch = 128;
  options.detection.roa_table = &dense_roa_table();
  pipeline::ShardedDetector detector(config, options);
  const auto& stream = workload();
  constexpr std::size_t kChunk = 1024;
  for (auto _ : state) {
    for (std::size_t i = 0; i < stream.size(); i += kChunk) {
      detector.submit_batch({stream.data() + i, std::min(kChunk, stream.size() - i)});
    }
    detector.flush();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size()));
}
BENCHMARK(BM_ShardedThreadedRpki)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_InlineRpki(benchmark::State& state) {
  // Single-thread reference for BM_ShardedThreadedRpki's scaling.
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
