// Journal throughput benchmarks (ROADMAP "Observation journal").
//
// Tracked trajectory points (bench/record_bench.sh merges these into
// BENCH_<n>.json alongside bench_micro and bench_pipeline):
//   * BM_JournalCodecEncode   — varint/delta encode into a warm buffer,
//                               no I/O: the codec's ceiling.
//   * BM_JournalCodecDecode   — mirror decode from memory.
//   * BM_JournalAppend        — the real writer tap: encode + buffered
//                               write(2) + segment rotation. Acceptance
//                               bar: ≥ 10M obs/s.
//   * BM_JournalReplay/<N>    — JournalReader -> ReplayFeed -> hub ->
//                               N-shard inline detection: the restarted-
//                               monitor path. Acceptance bar: within 2×
//                               of the PR-2 hub->detection batch path
//                               (BM_BatchPath in bench_pipeline).
//   * BM_JournalIndexedQuery  — prefix+time predicate over a ~29-segment
//                               journal, footers pruning the scan; its
//                               BM_JournalQueryFullScan twin runs the
//                               same query with indexing off (the gap is
//                               the index's whole value proposition).
#include <benchmark/benchmark.h>

#include <filesystem>
#include <vector>

#include "artemis/detection.hpp"
#include "feeds/monitor_hub.hpp"
#include "journal/codec.hpp"
#include "journal/reader.hpp"
#include "journal/replay.hpp"
#include "journal/writer.hpp"
#include "pipeline/sharded_detector.hpp"
#include "util/rng.hpp"

using namespace artemis;

namespace {

namespace fs = std::filesystem;

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

/// Same shape as bench_pipeline's workload: 64k observations in bursts
/// of 8, three sources, 1 in 16 bursts hijack-relevant.
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

std::string bench_dir(const char* tag) {
  const auto dir = fs::temp_directory_path() / (std::string("artemis_bench_journal_") + tag);
  fs::remove_all(dir);
  return dir.string();
}

/// A journal of the full workload, recorded once and shared by the
/// read-side benches.
const std::string& recorded_workload_dir() {
  static const std::string dir = [] {
    std::string d = bench_dir("recorded");
    journal::JournalWriter writer(d);
    const auto& stream = workload();
    constexpr std::size_t kChunk = 1024;
    for (std::size_t i = 0; i < stream.size(); i += kChunk) {
      writer.append_batch({stream.data() + i, std::min(kChunk, stream.size() - i)});
    }
    writer.close();
    return d;
  }();
  return dir;
}

void BM_JournalCodecEncode(benchmark::State& state) {
  const auto& stream = workload();
  journal::RecordEncoder encoder;
  std::vector<std::uint8_t> out;
  constexpr std::size_t kChunk = 1024;  // divides the workload evenly
  std::size_t i = 0;
  std::int64_t encoded_bytes = 0;
  for (auto _ : state) {
    out.clear();  // capacity retained: steady state allocates nothing
    for (std::size_t k = 0; k < kChunk; ++k) encoder.encode(stream[i + k], out);
    benchmark::DoNotOptimize(out.data());
    encoded_bytes += static_cast<std::int64_t>(out.size());
    i += kChunk;
    if (i >= stream.size()) {
      i = 0;
      encoder.reset();
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kChunk));
  state.SetBytesProcessed(encoded_bytes);
}
BENCHMARK(BM_JournalCodecEncode);

void BM_JournalCodecDecode(benchmark::State& state) {
  // Encode one 1024-record chunk, then decode it over and over.
  const auto& stream = workload();
  journal::RecordEncoder encoder;
  std::vector<std::uint8_t> wire;
  constexpr std::size_t kChunk = 1024;
  for (std::size_t k = 0; k < kChunk; ++k) encoder.encode(stream[k], wire);

  journal::RecordDecoder decoder;
  feeds::Observation obs;
  for (auto _ : state) {
    decoder.reset();
    const std::uint8_t* cursor = wire.data();
    const std::uint8_t* const end = wire.data() + wire.size();
    while (cursor != end) {
      std::uint64_t length = 0;
      journal::get_varint(cursor, end, length);
      decoder.decode(cursor, static_cast<std::size_t>(length), obs);
      cursor += length + 4;
    }
    benchmark::DoNotOptimize(obs);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kChunk));
}
BENCHMARK(BM_JournalCodecDecode);

void BM_JournalAppend(benchmark::State& state) {
  const auto& stream = workload();
  const std::string dir = bench_dir("append");
  journal::JournalWriter writer(dir);
  constexpr std::size_t kChunk = 1024;
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t n = std::min(kChunk, stream.size() - i);
    writer.append_batch({stream.data() + i, n});
    i += n;
    if (i >= stream.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kChunk));
  state.counters["bytes_per_obs"] = benchmark::Counter(
      static_cast<double>(writer.bytes_written()) /
          static_cast<double>(writer.records_written()),
      benchmark::Counter::kAvgThreads);
  writer.close();
  fs::remove_all(dir);
}
BENCHMARK(BM_JournalAppend);

/// A multi-segment recording of the workload (64 KiB segments, ~29 of
/// them) for the query benches — with or without index footers.
const std::string& segmented_workload_dir(bool indexed) {
  static std::string dirs[2];
  std::string& dir = dirs[indexed ? 1 : 0];
  if (dir.empty()) {
    dir = bench_dir(indexed ? "segmented_indexed" : "segmented_noindex");
    journal::JournalWriterOptions options;
    options.segment_bytes = 64u << 10;
    options.index_segments = indexed;
    journal::JournalWriter writer(dir, options);
    const auto& stream = workload();
    constexpr std::size_t kChunk = 1024;
    for (std::size_t i = 0; i < stream.size(); i += kChunk) {
      writer.append_batch({stream.data() + i, std::min(kChunk, stream.size() - i)});
    }
    writer.close();
  }
  return dir;
}

void run_query_bench(benchmark::State& state, bool indexed) {
  // The forensics shape: owned prefix inside a narrow time window at the
  // journal's tail. With footers the reader opens only the overlapping
  // segment(s); without them every segment is decoded.
  const std::string& dir = segmented_workload_dir(indexed);
  journal::QueryFilter filter;
  filter.prefix = net::Prefix::must_parse("10.0.0.0/23");
  filter.min_event_us = SimTime::at_seconds(8000).as_micros();
  filter.max_event_us = SimTime::at_seconds(8191).as_micros();
  std::uint64_t matched = 0;
  std::uint64_t scanned = 0;
  std::uint64_t skipped = 0;
  for (auto _ : state) {
    journal::JournalReader reader(dir);
    reader.set_filter(filter);
    pipeline::ObservationBatch batch;
    matched = 0;
    while (reader.read_batch(batch, 1024) > 0) matched += batch.size();
    benchmark::DoNotOptimize(matched);
    scanned = reader.segments_scanned();
    skipped = reader.segments_skipped();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(matched));
  state.counters["matches"] = benchmark::Counter(static_cast<double>(matched),
                                                 benchmark::Counter::kAvgThreads);
  state.counters["segments_scanned"] = benchmark::Counter(
      static_cast<double>(scanned), benchmark::Counter::kAvgThreads);
  state.counters["segments_skipped"] = benchmark::Counter(
      static_cast<double>(skipped), benchmark::Counter::kAvgThreads);
}

void BM_JournalIndexedQuery(benchmark::State& state) {
  run_query_bench(state, /*indexed=*/true);
}
BENCHMARK(BM_JournalIndexedQuery);

void BM_JournalQueryFullScan(benchmark::State& state) {
  run_query_bench(state, /*indexed=*/false);
}
BENCHMARK(BM_JournalQueryFullScan);

void BM_JournalReadDecode(benchmark::State& state) {
  // Reader + decode alone (null sink): isolates the read side of replay
  // from the pipeline it feeds.
  const std::string& dir = recorded_workload_dir();
  for (auto _ : state) {
    journal::JournalReader reader(dir);
    journal::ReplayFeed feed(reader);
    feed.replay_all([](std::span<const feeds::Observation> batch) {
      benchmark::DoNotOptimize(batch.data());
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(workload().size()));
}
BENCHMARK(BM_JournalReadDecode);

void BM_JournalReplay(benchmark::State& state) {
  // One iteration = replay the whole recorded 64k-observation journal
  // from disk (page cache warm) into N inline detection shards — the
  // crash-recovery / state-rebuild path. The detector persists across
  // iterations, so this measures the steady state, like
  // BM_DetectionBatch.
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  pipeline::ShardedDetector detector(config, options);
  const std::string& dir = recorded_workload_dir();
  for (auto _ : state) {
    journal::JournalReader reader(dir);
    journal::ReplayFeed feed(reader);
    feed.replay_all([&detector](std::span<const feeds::Observation> batch) {
      detector.submit_batch(batch);
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(workload().size()));
}
BENCHMARK(BM_JournalReplay)->Arg(1)->Arg(4);

void BM_JournalReplayHub(benchmark::State& state) {
  // Same replay, but through the hub (per-source accounting included):
  // the full restarted-app wiring replay_scenario_journal uses.
  const core::Config config = make_config();
  pipeline::ShardedDetectorOptions options;
  options.shards = static_cast<std::size_t>(state.range(0));
  pipeline::ShardedDetector detector(config, options);
  feeds::MonitorHub hub;
  detector.attach(hub);
  const std::string& dir = recorded_workload_dir();
  for (auto _ : state) {
    journal::JournalReader reader(dir);
    journal::ReplayFeed feed(reader);
    feed.replay_all(hub);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(workload().size()));
}
BENCHMARK(BM_JournalReplayHub)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
