// MRT archive import throughput (ROADMAP "mrt -> journal import").
//
// Tracked trajectory points (bench/record_bench.sh merges these into
// BENCH_<n>.json alongside bench_micro, bench_pipeline, bench_journal):
//   * BM_MrtConvertUpdates  — streaming decode of a BGP4MP update window
//                             into recycled Observation batches (null
//                             sink): the converter's ceiling. bytes/s is
//                             MRT input consumed.
//   * BM_MrtConvertRib      — same for a TABLE_DUMP_V2 RIB snapshot
//                             (per-entry attribute decode dominates).
//   * BM_MrtImportToJournal — the full mrt2journal hot path: decode ->
//                             ObservationBatch -> JournalWriter append
//                             (encode + buffered write(2)). The
//                             bytes_per_obs counter tracks journal
//                             density.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "journal/writer.hpp"
#include "mrt/observation_convert.hpp"
#include "util/rng.hpp"

using namespace artemis;

namespace {

namespace fs = std::filesystem;

/// The shape real update archives have: four collector peers, one
/// attribute set per record shared by 1-4 announced NLRI (BGP packs a
/// burst of same-path prefixes into one UPDATE), 1 in 16 records
/// touching the hijacked prefix, occasional withdrawals.
const std::vector<std::uint8_t>& updates_window() {
  static const std::vector<std::uint8_t> window = [] {
    Rng rng(7);
    std::vector<std::uint8_t> out;
    constexpr int kRecords = 8192;
    const bgp::Asn peers[4] = {9, 8, 7, 6};
    for (int g = 0; g < kRecords; ++g) {
      mrt::UpdateRecord rec;
      rec.peer_asn = peers[g % 4];
      rec.peer_ip = net::IpAddress::v4(0x0A000000 | rec.peer_asn);
      rec.timestamp = SimTime::at_seconds(g / 8);
      rec.update.sender = rec.peer_asn;
      const auto nlri = rng.uniform_int(1, 4);
      for (std::int64_t n = 0; n < nlri; ++n) {
        const auto addr = static_cast<std::uint32_t>(rng.next_u64());
        rec.update.announced.push_back(
            (g % 16 == 0 && n == 0)
                ? net::Prefix::must_parse("10.0.0.0/23")
                : net::Prefix(net::IpAddress::v4(addr),
                              static_cast<int>(rng.uniform_int(8, 24))));
      }
      rec.update.attrs.as_path =
          bgp::AsPath({rec.peer_asn, 3356, (g % 16 == 0) ? 666u : 65001u});
      if (g % 32 == 0) {
        rec.update.withdrawn.push_back(net::Prefix::must_parse("203.0.113.0/24"));
      }
      const auto bytes = mrt::encode_update_record(rec);
      out.insert(out.end(), bytes.begin(), bytes.end());
    }
    return out;
  }();
  return window;
}

/// A RIB snapshot in the real collector shape: one record per prefix
/// carrying one entry per peer (2048 prefixes x 4 peers = 8192 entries).
const std::vector<std::uint8_t>& rib_window() {
  static const std::vector<std::uint8_t> window = [] {
    Rng rng(8);
    std::vector<mrt::RibEntryRecord> entries;
    const bgp::Asn peers[4] = {9, 8, 7, 6};
    for (int i = 0; i < 2048; ++i) {
      const net::Prefix prefix(
          net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
          static_cast<int>(rng.uniform_int(8, 24)));
      for (const auto peer : peers) {
        mrt::RibEntryRecord entry;
        entry.peer_asn = peer;
        entry.timestamp = SimTime::at_seconds(7200);
        entry.route.prefix = prefix;
        entry.route.attrs.as_path = bgp::AsPath({peer, 3356, 65001});
        entries.push_back(std::move(entry));
      }
    }
    return mrt::encode_table_dump(entries, SimTime::at_seconds(7200));
  }();
  return window;
}

/// A realistic dual-stack update window: v6 NLRI in MP_REACH/MP_UNREACH
/// attributes (the only way v6 appears in BGP4MP update archives), 32-byte
/// next hops on half the records, 1-4 NLRI per record, occasional
/// MP_UNREACH withdrawals, 1 in 16 records touching the hijacked v6 /32.
const std::vector<std::uint8_t>& mp_updates_window() {
  static const std::vector<std::uint8_t> window = [] {
    Rng rng(9);
    std::vector<std::uint8_t> out;
    constexpr int kRecords = 8192;
    const bgp::Asn peers[4] = {9, 8, 7, 6};
    for (int g = 0; g < kRecords; ++g) {
      mrt::UpdateRecord rec;
      rec.peer_asn = peers[g % 4];
      rec.peer_ip = net::IpAddress::v4(0x0A000000 | rec.peer_asn);
      rec.timestamp = SimTime::at_seconds(g / 8);
      rec.update.sender = rec.peer_asn;
      const auto nlri = rng.uniform_int(1, 4);
      for (std::int64_t n = 0; n < nlri; ++n) {
        if (g % 16 == 0 && n == 0) {
          rec.update.announced.push_back(net::Prefix::must_parse("2001:db8::/32"));
          continue;
        }
        const std::uint64_t hi = (0x2600ull << 48) | (rng.next_u64() & 0xFFFFFFFFFFFFull);
        rec.update.announced.push_back(
            net::Prefix(net::IpAddress::from_words(net::IpFamily::kIpv6, hi,
                                                   rng.next_u64()),
                        static_cast<int>(rng.uniform_int(32, 48))));
      }
      rec.update.attrs.as_path =
          bgp::AsPath({rec.peer_asn, 3356, (g % 16 == 0) ? 667u : 65001u});
      if (g % 32 == 0) {
        rec.update.withdrawn.push_back(net::Prefix::must_parse("2001:db8:dead::/48"));
      }
      mrt::UpdateEncodeOptions options;
      options.mp_next_hop_len = (g % 2 == 0) ? 16 : 32;
      const auto bytes = mrt::encode_update_record(rec, options);
      out.insert(out.end(), bytes.begin(), bytes.end());
    }
    return out;
  }();
  return window;
}

std::uint64_t count_observations(const std::vector<std::uint8_t>& window) {
  mrt::ObservationConverter converter;
  const auto stats = converter.convert_file(
      window, [](std::span<const feeds::Observation>) {});
  return stats.observations;
}

void convert_window_bench(benchmark::State& state,
                          const std::vector<std::uint8_t>& window) {
  const std::uint64_t obs_per_pass = count_observations(window);
  mrt::ObservationConverter converter;
  for (auto _ : state) {
    const auto stats = converter.convert_file(
        window, [](std::span<const feeds::Observation> batch) {
          benchmark::DoNotOptimize(batch.data());
        });
    benchmark::DoNotOptimize(stats.records);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(obs_per_pass));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(window.size()));
}

void BM_MrtConvertUpdates(benchmark::State& state) {
  convert_window_bench(state, updates_window());
}
BENCHMARK(BM_MrtConvertUpdates);

void BM_MrtConvertRib(benchmark::State& state) {
  convert_window_bench(state, rib_window());
}
BENCHMARK(BM_MrtConvertRib);

/// The dual-stack decode path: MP_REACH/MP_UNREACH attribute parsing
/// into recycled batch slots. Gated in CI alongside the v4 decode benches.
void BM_MrtDecodeMpReach(benchmark::State& state) {
  convert_window_bench(state, mp_updates_window());
}
BENCHMARK(BM_MrtDecodeMpReach);

void BM_MrtImportToJournal(benchmark::State& state) {
  const auto& window = updates_window();
  const std::uint64_t obs_per_pass = count_observations(window);
  const auto dir =
      (fs::temp_directory_path() / "artemis_bench_mrt_import").string();
  fs::remove_all(dir);
  {
    journal::JournalWriter writer(dir);
    mrt::ObservationConverter converter;
    const feeds::ObservationBatchHandler sink = writer.tap();
    for (auto _ : state) {
      const auto stats = converter.convert_file(window, sink);
      benchmark::DoNotOptimize(stats.records);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(obs_per_pass));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(window.size()));
    state.counters["bytes_per_obs"] = benchmark::Counter(
        static_cast<double>(writer.bytes_written()) /
            static_cast<double>(writer.records_written()),
        benchmark::Counter::kAvgThreads);
    writer.close();
  }
  fs::remove_all(dir);
}
BENCHMARK(BM_MrtImportToJournal);

}  // namespace

BENCHMARK_MAIN();
