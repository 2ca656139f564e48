// The batched/sharded observation pipeline (src/pipeline/).
//
// The two load-bearing suites are the oracles the ISSUE asks for:
//   * BatchVsLoopOracle — DetectionService::process_batch must equal
//     repeated process() exactly (alerts, counts, first-seen times).
//   * ShardedEquivalence — ShardedDetector{N=1} and {N=4} must produce
//     bit-identical merged output.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "artemis/detection.hpp"
#include "feeds/monitor_hub.hpp"
#include "pipeline/observation_batch.hpp"
#include "pipeline/sharded_detector.hpp"
#include "rpki/roa.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"

namespace artemis::pipeline {
namespace {

using core::AlertKey;
using core::Config;
using core::DetectionOptions;
using core::DetectionService;
using core::HijackAlert;
using core::OwnedPrefix;
using feeds::Observation;
using feeds::ObservationType;

Config make_config() {
  Config config;
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  config.add_owned(std::move(owned));
  OwnedPrefix second;
  second.prefix = net::Prefix::must_parse("192.0.2.0/24");
  second.legitimate_origins.insert(65002);
  config.add_owned(std::move(second));
  return config;
}

Observation make_obs(std::string_view prefix, std::vector<bgp::Asn> path,
                     std::string source, double at_seconds,
                     ObservationType type = ObservationType::kAnnouncement) {
  Observation obs;
  obs.type = type;
  obs.source = feeds::intern_source(source);
  obs.vantage = path.empty() ? 9 : path.front();
  obs.prefix = net::Prefix::must_parse(prefix);
  obs.attrs.as_path = bgp::AsPath(std::move(path));
  obs.event_time = SimTime::at_seconds(at_seconds - 5);
  obs.delivered_at = SimTime::at_seconds(at_seconds);
  return obs;
}

/// A mixed scenario stream: hijacks against both owned prefixes (exact,
/// sub-prefix, super-prefix), legitimate announcements, unrelated noise,
/// several sources and offenders, with bursty repetition — the shape a
/// real merged feed has.
std::vector<Observation> scenario_stream(std::uint64_t seed, int count) {
  Rng rng(seed);
  const std::vector<std::string> prefixes = {
      "10.0.0.0/23",    // owned #1 exact
      "10.0.1.0/24",    // sub-prefix of owned #1
      "10.0.0.0/16",    // super-prefix of owned #1
      "192.0.2.0/24",   // owned #2 exact
      "192.0.2.128/25", // sub-prefix of owned #2
      "203.0.113.0/24", // unrelated
      "198.51.100.0/24" // unrelated
  };
  const std::vector<bgp::Asn> origins = {666, 667, 65001, 65002};
  const std::vector<std::string> sources = {"ris-live", "bgpmon", "periscope"};
  std::vector<Observation> stream;
  stream.reserve(static_cast<std::size_t>(count));
  double t = 100.0;
  while (static_cast<int>(stream.size()) < count) {
    const auto& prefix = prefixes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(prefixes.size()) - 1))];
    const auto origin = origins[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const auto& source = sources[static_cast<std::size_t>(rng.uniform_int(0, 2))];
    const auto burst = rng.uniform_int(1, 6);
    for (std::int64_t b = 0; b < burst && static_cast<int>(stream.size()) < count; ++b) {
      t += 0.25;
      stream.push_back(make_obs(prefix, {9, 3356, origin}, source, t));
    }
  }
  return stream;
}

void expect_same_alert(const HijackAlert& a, const HijackAlert& b) {
  EXPECT_EQ(a.type, b.type);
  EXPECT_EQ(a.owned_prefix, b.owned_prefix);
  EXPECT_EQ(a.observed_prefix, b.observed_prefix);
  EXPECT_EQ(a.offender, b.offender);
  EXPECT_EQ(a.observed_path.to_string(), b.observed_path.to_string());
  EXPECT_EQ(a.vantage, b.vantage);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.event_time, b.event_time);
  EXPECT_EQ(a.detected_at, b.detected_at);
}

// --------------------------------------------------------- ObservationBatch

TEST(ObservationBatchTest, ClearRetainsElementsForReuse) {
  ObservationBatch batch;
  batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100));
  batch.push_back(make_obs("10.0.1.0/24", {9, 667}, "bgpmon", 101));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.view().size(), 2u);
  const feeds::Observation* slot0 = &batch[0];
  batch.clear();
  EXPECT_TRUE(batch.empty());
  // emplace_back after clear hands back the same storage.
  EXPECT_EQ(&batch.emplace_back(), slot0);
  EXPECT_EQ(batch.size(), 1u);
}

TEST(ObservationBatchTest, PopBackUndoesEmplace) {
  ObservationBatch batch;
  batch.emplace_back();
  batch.pop_back();
  EXPECT_TRUE(batch.empty());
}

// ------------------------------------------------------- batch-vs-loop oracle

TEST(PipelineOracleTest, ProcessBatchEqualsRepeatedProcess) {
  const Config config = make_config();
  const auto stream = scenario_stream(42, 3000);

  DetectionService loop_service(config);
  for (const auto& obs : stream) loop_service.process(obs);

  // Feed the identical stream through process_batch at several chunk
  // sizes, including pathological ones (1, prime, larger than stream).
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{997}, stream.size() + 1}) {
    DetectionService batch_service(config);
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - i);
      batch_service.process_batch({stream.data() + i, n});
    }
    EXPECT_EQ(batch_service.observations_processed(),
              loop_service.observations_processed());
    EXPECT_EQ(batch_service.observations_matched(), loop_service.observations_matched());
    ASSERT_EQ(batch_service.alerts().size(), loop_service.alerts().size())
        << "chunk=" << chunk;
    for (std::size_t i = 0; i < loop_service.alerts().size(); ++i) {
      expect_same_alert(batch_service.alerts()[i], loop_service.alerts()[i]);
      const AlertKey key = loop_service.alerts()[i].key();
      EXPECT_EQ(batch_service.observation_count(key), loop_service.observation_count(key));
      const auto* loop_seen = loop_service.first_seen_by_source(key);
      const auto* batch_seen = batch_service.first_seen_by_source(key);
      ASSERT_NE(loop_seen, nullptr);
      ASSERT_NE(batch_seen, nullptr);
      EXPECT_EQ(*loop_seen, *batch_seen);
    }
  }
}

TEST(PipelineOracleTest, MemoizationRespectsTypeAndPathChanges) {
  // Adjacent observations that differ ONLY in type / origin / first hop
  // must not reuse a stale classification.
  const Config config = make_config();
  DetectionService service(config);
  std::vector<Observation> batch;
  batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100));    // hijack
  batch.push_back(make_obs("10.0.0.0/23", {9, 65001}, "ris-live", 101));  // legit
  batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 102));    // hijack again
  batch.push_back(make_obs("10.0.0.0/23", {9, 667}, "ris-live", 103));    // new offender
  batch.push_back(make_obs("10.0.0.0/23", {9, 667}, "ris-live", 104,
                           ObservationType::kWithdrawal));                // withdrawal
  service.process_batch(batch);
  EXPECT_EQ(service.alerts().size(), 2u);  // offenders 666 and 667
  EXPECT_EQ(service.observations_matched(), 3u);
  EXPECT_EQ(service.observations_processed(), 5u);
}

// Edges of process_batch that the generic oracle above exercises only
// incidentally: a batch nothing in owned space touches, withdrawals mixed
// into a batch, RPKI alerts outside owned space, and owned sets of every
// size up to one above OwnershipTable::kInterleaveMinEntries, where the
// batch's lookups run interleaved. In every configuration the
// batch-vs-loop equivalence must hold bit-for-bit.

/// Runs `stream` through process() one-by-one and through process_batch
/// as a single span, asserting identical counters and alerts.
void expect_batch_equals_loop(const Config& config, DetectionOptions options,
                              const std::vector<Observation>& stream) {
  DetectionService loop_service(config, options);
  for (const auto& obs : stream) loop_service.process(obs);
  DetectionService batch_service(config, options);
  batch_service.process_batch(stream);
  EXPECT_EQ(batch_service.observations_processed(),
            loop_service.observations_processed());
  EXPECT_EQ(batch_service.observations_matched(),
            loop_service.observations_matched());
  ASSERT_EQ(batch_service.alerts().size(), loop_service.alerts().size());
  for (std::size_t i = 0; i < loop_service.alerts().size(); ++i) {
    expect_same_alert(batch_service.alerts()[i], loop_service.alerts()[i]);
  }
}

TEST(PrescreenOracleTest, AllIrrelevantBatchSkipsButCountsEverything) {
  const Config config = make_config();
  std::vector<Observation> stream;
  for (int i = 0; i < 64; ++i) {  // none overlaps owned space
    stream.push_back(make_obs("203.0.113.0/24", {9, 3356, 666}, "ris-live",
                              100.0 + i));
  }
  DetectionService service(config);
  service.process_batch(stream);
  EXPECT_EQ(service.observations_processed(), 64u);  // unmatched != uncounted
  EXPECT_EQ(service.observations_matched(), 0u);
  EXPECT_TRUE(service.alerts().empty());
  expect_batch_equals_loop(config, {}, stream);
}

TEST(PrescreenOracleTest, MixedBatchWithWithdrawalsAndSubprefixes) {
  const Config config = make_config();
  auto stream = scenario_stream(21, 500);
  // Withdrawals never classify, even when their prefix overlaps owned
  // space, and owe no ownership lookup: the batch must still pair every
  // announcement with its own lookup.
  for (std::size_t i = 0; i < stream.size(); i += 7) {
    stream[i].type = ObservationType::kWithdrawal;
    stream[i].attrs = {};
  }
  expect_batch_equals_loop(config, {}, stream);
}

TEST(PrescreenOracleTest, RoaTableDisablesPrescreenNotDetection) {
  // With a ROA table, observations outside owned space can still raise
  // kRpkiInvalid — an ownership miss must not end their classification.
  const Config config = make_config();
  rpki::RoaTable roas;
  roas.add({net::Prefix::must_parse("203.0.113.0/24"), 64500, 0});
  DetectionOptions options;
  options.roa_table = &roas;
  std::vector<Observation> stream;
  for (int i = 0; i < 48; ++i) {
    // Outside owned space, violates the ROA: must alert despite matching
    // no owned entry.
    stream.push_back(make_obs("203.0.113.0/24", {9, 3356, 666}, "ris-live",
                              100.0 + i));
  }
  DetectionService service(config, options);
  service.process_batch(stream);
  EXPECT_GT(service.alerts().size(), 0u);
  expect_batch_equals_loop(config, options, stream);
}

TEST(PrescreenOracleTest, LargeOwnedSetFallsBackToScalarPath) {
  // A few dozen owned prefixes: still the plain lookup loop, with
  // entries that neighbour the scenario's own.
  Config config = make_config();
  for (int i = 0; i < 20; ++i) {
    OwnedPrefix extra;
    extra.prefix = net::Prefix::must_parse("172.16." + std::to_string(i) + ".0/24");
    extra.legitimate_origins.insert(65010);
    config.add_owned(std::move(extra));
  }
  expect_batch_equals_loop(config, {}, scenario_stream(23, 400));
}

TEST(PipelineOracleTest, InterleavedLookupsAboveThresholdEqualLoop) {
  // Over kInterleaveMinEntries owned /24s across three tenants, so
  // process_batch resolves its lookups interleaved while process() runs
  // one at a time. The stream mixes exact, sub- and super-prefix
  // announcements of the large set (a /20 covers sixteen owned /24s and
  // nothing covers it), the scenario's own prefixes, and withdrawals.
  Config config = make_config();
  const core::TenantId tenants[] = {config.add_tenant("acme"),
                                    config.add_tenant("globex"),
                                    config.add_tenant("initech")};
  constexpr int kOwned = static_cast<int>(core::OwnershipTable::kInterleaveMinEntries) + 904;
  const auto slash24 = [](int i) {
    return "100." + std::to_string(64 + i / 256) + "." + std::to_string(i % 256) + ".0";
  };
  for (int i = 0; i < kOwned; ++i) {
    OwnedPrefix owned;
    owned.prefix = net::Prefix::must_parse(slash24(i) + "/24");
    owned.legitimate_origins.insert(65100);
    config.add_owned(tenants[i % 3], std::move(owned));
  }
  ASSERT_GT(config.build_table()->owned().size(),
            core::OwnershipTable::kInterleaveMinEntries);

  Rng rng(31);
  auto stream = scenario_stream(29, 1500);
  for (int i = 0; i < 3000; ++i) {
    const int n = static_cast<int>(rng.uniform_int(0, kOwned + 999));  // some unowned
    const std::int64_t kind = rng.uniform_int(0, 2);
    const std::string prefix = kind == 2   ? slash24(n / 16 * 16) + "/20"
                               : kind == 1 ? slash24(n) + "/25"
                                           : slash24(n) + "/24";
    const bgp::Asn origin = rng.chance(0.5) ? 65100 : 666;
    const auto at = static_cast<std::size_t>(rng.uniform_u64(stream.size() + 1));
    const auto burst = static_cast<std::size_t>(rng.uniform_int(1, 3));
    stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at), burst,
                  make_obs(prefix, {9, 3356, origin}, "ris-live", 200.0 + i));
  }
  for (std::size_t i = 0; i < stream.size(); i += 11) {
    stream[i].type = ObservationType::kWithdrawal;
    stream[i].attrs = {};
  }
  DetectionService service(config);
  service.process_batch(stream);
  EXPECT_GT(service.alerts().size(), 100u);
  expect_batch_equals_loop(config, {}, stream);
}

// ------------------------------------------------------- sharded equivalence

TEST(ShardedDetectorTest, ShardOfIsStableAndInRange) {
  const auto p = net::Prefix::must_parse("10.0.0.0/23");
  for (std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
    const auto s = ShardedDetector::shard_of(p, n);
    EXPECT_LT(s, n);
    EXPECT_EQ(s, ShardedDetector::shard_of(p, n));
  }
  EXPECT_EQ(ShardedDetector::shard_of(p, 1), 0u);
}

TEST(ShardedDetectorTest, ShardedVsSingleThreadEquivalence) {
  const Config config = make_config();
  const auto stream = scenario_stream(7, 4000);

  // Reference: the deterministic N=1 detector.
  ShardedDetectorOptions ref_options;
  ref_options.shards = 1;
  ShardedDetector reference(config, ref_options);
  reference.submit_batch(stream);

  auto check = [&](ShardedDetector& other) {
    EXPECT_EQ(other.observations_processed(), reference.observations_processed());
    EXPECT_EQ(other.observations_matched(), reference.observations_matched());
    const auto ref_alerts = reference.merged_alerts();
    const auto other_alerts = other.merged_alerts();
    ASSERT_EQ(other_alerts.size(), ref_alerts.size());
    for (std::size_t i = 0; i < ref_alerts.size(); ++i) {
      expect_same_alert(other_alerts[i], ref_alerts[i]);
      const AlertKey key = ref_alerts[i].key();
      EXPECT_EQ(other.observation_count(key), reference.observation_count(key));
      const auto* ref_seen = reference.first_seen_by_source(key);
      const auto* other_seen = other.first_seen_by_source(key);
      ASSERT_NE(ref_seen, nullptr);
      ASSERT_NE(other_seen, nullptr);
      EXPECT_EQ(*ref_seen, *other_seen);  // identical per-source first-seen times
    }
  };

  {
    ShardedDetectorOptions options;
    options.shards = 4;
    ShardedDetector inline4(config, options);
    inline4.submit_batch(stream);
    // Observations of one prefix all live in one shard.
    std::uint64_t across = 0;
    for (std::size_t s = 0; s < inline4.shard_count(); ++s) {
      across += inline4.shard(s).observations_processed();
    }
    EXPECT_EQ(across, stream.size());
    check(inline4);
  }
}

TEST(ShardedDetectorTest, AlertHandlersFireOnEveryShard) {
  const Config config = make_config();
  ShardedDetectorOptions options;
  options.shards = 4;
  ShardedDetector detector(config, options);
  std::vector<HijackAlert> seen;
  detector.on_alert([&](const HijackAlert& alert) { seen.push_back(alert); });
  const auto stream = scenario_stream(9, 1000);
  detector.submit_batch(stream);
  EXPECT_EQ(seen.size(), detector.merged_alerts().size());
  EXPECT_GT(seen.size(), 0u);
}

TEST(ShardedDetectorTest, AttachConsumesHubBatches) {
  const Config config = make_config();
  feeds::MonitorHub hub;
  ShardedDetector detector(config, {});
  detector.attach(hub);
  const auto stream = scenario_stream(11, 500);
  hub.publish_batch(stream);
  EXPECT_EQ(detector.observations_processed(), stream.size());
  EXPECT_EQ(hub.total_observations(), stream.size());
  EXPECT_GT(detector.merged_alerts().size(), 0u);
}

TEST(ShardedDetectorTest, DeterminismMatrixAcrossModesPoliciesAndPinning) {
  // The acceptance matrix: shards {1,4} reproduce the N=1 reference
  // bit-for-bit, whether a stream arrives as one span or in uneven
  // chunks.
  const Config config = make_config();
  const auto stream = scenario_stream(13, 3000);

  ShardedDetectorOptions ref_options;
  ref_options.shards = 1;
  ShardedDetector reference(config, ref_options);
  reference.submit_batch(stream);
  const auto ref_alerts = reference.merged_alerts();
  ASSERT_GT(ref_alerts.size(), 0u);

  auto check = [&](ShardedDetector& other) {
    EXPECT_EQ(other.observations_processed(), reference.observations_processed());
    EXPECT_EQ(other.observations_matched(), reference.observations_matched());
    const auto other_alerts = other.merged_alerts();
    ASSERT_EQ(other_alerts.size(), ref_alerts.size());
    for (std::size_t i = 0; i < ref_alerts.size(); ++i) {
      expect_same_alert(other_alerts[i], ref_alerts[i]);
    }
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    {
      ShardedDetectorOptions options;
      options.shards = shards;
      ShardedDetector inline_run(config, options);
      inline_run.submit_batch(stream);
      check(inline_run);
    }
    {
      // Uneven submit chunks: same-shard runs split at every boundary.
      ShardedDetectorOptions options;
      options.shards = shards;
      ShardedDetector chunked(config, options);
      std::size_t i = 0;
      for (std::size_t chunk = 1; i < stream.size(); chunk = chunk % 97 + 13) {
        const std::size_t n = std::min(chunk, stream.size() - i);
        chunked.submit_batch({stream.data() + i, n});
        i += n;
      }
      check(chunked);
    }
  }
}

TEST(ShardedDetectorTest, MetricsDoNotPerturbDeterminismMatrix) {
  // Telemetry is observation-only by contract: re-running the acceptance
  // matrix with a registry wired in must reproduce the metrics-OFF N=1
  // inline reference bit-for-bit — alerts, counts, first-seen — while
  // the merged counters account for every observation and alert.
  const Config config = make_config();
  const auto stream = scenario_stream(13, 3000);

  ShardedDetectorOptions ref_options;  // no registry: the plain baseline
  ref_options.shards = 1;
  ShardedDetector reference(config, ref_options);
  reference.submit_batch(stream);
  const auto ref_alerts = reference.merged_alerts();
  ASSERT_GT(ref_alerts.size(), 0u);

  auto check = [&](ShardedDetector& other,
                   const telemetry::MetricsRegistry& registry) {
    EXPECT_EQ(other.observations_processed(), reference.observations_processed());
    const auto other_alerts = other.merged_alerts();
    ASSERT_EQ(other_alerts.size(), ref_alerts.size());
    for (std::size_t i = 0; i < ref_alerts.size(); ++i) {
      expect_same_alert(other_alerts[i], ref_alerts[i]);
    }
    // The merged per-shard cells see the whole stream and every alert,
    // and each alert recorded its detection delay.
    const std::string text = registry.render_prometheus();
    EXPECT_NE(text.find("artemis_detection_observations_total " +
                        std::to_string(stream.size())),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("artemis_detection_alerts_total " +
                        std::to_string(ref_alerts.size())),
              std::string::npos)
        << text;
    const auto delay =
        registry.histogram_snapshot("artemis_detection_delay_seconds");
    EXPECT_EQ(delay.total, ref_alerts.size());
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    {
      telemetry::MetricsRegistry registry;
      ShardedDetectorOptions options;
      options.shards = shards;
      options.metrics = &registry;
      ShardedDetector inline_run(config, options);
      inline_run.submit_batch(stream);
      check(inline_run, registry);
    }
  }
}

TEST(ShardedDetectorTest, ReloadUnderLoadMatrixIsDeterministic) {
  // Incremental reload mid-stream: swapping the ownership snapshot after
  // K observations must (a) reproduce, at every point of the acceptance
  // matrix, the N=1 inline reference that swaps at the same point, and
  // (b) from the swap on, behave bit-identically to a FRESH run against
  // the final config — no restart, no re-replay, no perturbation of
  // in-flight batches.
  const Config before = make_config();  // v1 single-operator (tenant 0)
  // Final config: dedicated tenants for both prefixes (ids 1 and 2 — a
  // fleet tenant occupies id 0 — so every post-swap alert key is
  // tenant-scoped away from the pre-swap records), plus a newly
  // onboarded prefix that was pure noise before the reload.
  Config after;
  after.add_tenant("fleet");
  const auto acme = after.add_tenant("acme");
  const auto globex = after.add_tenant("globex");
  {
    OwnedPrefix owned;
    owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
    owned.legitimate_origins.insert(65001);
    after.add_owned(acme, std::move(owned));
    OwnedPrefix second;
    second.prefix = net::Prefix::must_parse("192.0.2.0/24");
    second.legitimate_origins.insert(65002);
    after.add_owned(globex, std::move(second));
    OwnedPrefix onboarded;
    onboarded.prefix = net::Prefix::must_parse("203.0.113.0/24");
    onboarded.legitimate_origins.insert(65003);
    after.add_owned(acme, std::move(onboarded));
  }
  const auto after_table = after.build_table();

  const auto stream = scenario_stream(29, 3000);
  const std::size_t swap_at = stream.size() / 2;
  const std::span<const Observation> head{stream.data(), swap_at};
  const std::span<const Observation> tail{stream.data() + swap_at,
                                          stream.size() - swap_at};

  // Reference: the trivially correct single-shard inline reload.
  ShardedDetectorOptions ref_options;
  ref_options.shards = 1;
  ShardedDetector reference(before, ref_options);
  reference.submit_batch(head);
  reference.reload(after_table);
  reference.submit_batch(tail);
  const auto ref_alerts = reference.merged_alerts();
  ASSERT_GT(ref_alerts.size(), 0u);
  // The reload demonstrably took effect: the onboarded tenant alerts.
  ASSERT_TRUE(std::any_of(ref_alerts.begin(), ref_alerts.end(),
                          [](const HijackAlert& a) {
                            return a.tenant_name == "acme" &&
                                   a.observed_prefix ==
                                       net::Prefix::must_parse("203.0.113.0/24");
                          }));

  // (b): a fresh detector born on the final config, fed only the tail,
  // must produce exactly the reference's post-swap (tenant != 0) alerts.
  {
    ShardedDetector fresh(after_table, ref_options);
    fresh.submit_batch(tail);
    const auto fresh_alerts = fresh.merged_alerts();
    std::vector<HijackAlert> post_swap;
    for (const auto& alert : ref_alerts) {
      if (alert.tenant != core::kDefaultTenantId) post_swap.push_back(alert);
    }
    ASSERT_EQ(fresh_alerts.size(), post_swap.size());
    for (std::size_t i = 0; i < post_swap.size(); ++i) {
      expect_same_alert(fresh_alerts[i], post_swap[i]);
      EXPECT_EQ(fresh_alerts[i].tenant, post_swap[i].tenant);
      EXPECT_EQ(fresh_alerts[i].tenant_name, post_swap[i].tenant_name);
    }
  }

  // (a): the matrix. Reload fires at the same stream position in every
  // leg.
  auto check = [&](ShardedDetector& other) {
    EXPECT_EQ(other.observations_processed(), reference.observations_processed());
    EXPECT_EQ(other.observations_matched(), reference.observations_matched());
    const auto other_alerts = other.merged_alerts();
    ASSERT_EQ(other_alerts.size(), ref_alerts.size());
    for (std::size_t i = 0; i < ref_alerts.size(); ++i) {
      expect_same_alert(other_alerts[i], ref_alerts[i]);
      EXPECT_EQ(other_alerts[i].tenant, ref_alerts[i].tenant);
      EXPECT_EQ(other_alerts[i].tenant_name, ref_alerts[i].tenant_name);
    }
  };

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    {
      ShardedDetectorOptions options;
      options.shards = shards;
      ShardedDetector inline_run(before, options);
      inline_run.submit_batch(head);
      inline_run.reload(after_table);
      EXPECT_EQ(inline_run.ownership().version(), after_table->version());
      inline_run.submit_batch(tail);
      check(inline_run);
    }
  }
}

// ------------------------------------------------------------- hub batching

TEST(MonitorHubBatchTest, PublishBatchAndInletAgree) {
  feeds::MonitorHub hub;
  std::size_t batch_total = 0;
  std::size_t batch_calls = 0;
  hub.subscribe_batch([&](std::span<const Observation> batch) {
    ++batch_calls;
    batch_total += batch.size();
  });

  std::vector<Observation> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 100 + i));
  }
  for (int i = 0; i < 3; ++i) {
    batch.push_back(make_obs("10.0.0.0/23", {9, 666}, "bgpmon", 110 + i));
  }
  hub.publish_batch(batch);
  hub.batch_inlet()(batch);

  EXPECT_EQ(batch_calls, 2u);
  EXPECT_EQ(batch_total, 16u);
  EXPECT_EQ(hub.total_observations(), 16u);
  // Mixed-source batch: the run-length accounting still splits correctly.
  EXPECT_EQ(hub.source_count("ris-live"), 10u);
  EXPECT_EQ(hub.source_count("bgpmon"), 6u);
  EXPECT_EQ(hub.source_count("never-seen"), 0u);
  EXPECT_EQ(hub.per_source_counts().at("ris-live"), 10u);
  EXPECT_EQ(hub.source_table_size(), 2u);
}

TEST(MonitorHubBatchTest, InternKeepsIdsStableAcrossInsertionOrder) {
  feeds::MonitorHub hub;
  // Interleave names that sort in the opposite order of first sight.
  for (const char* name : {"zebra", "alpha", "zebra", "mid", "alpha", "zebra"}) {
    Observation obs;
    obs.source = feeds::intern_source(name);
    hub.publish_batch({&obs, 1});
  }
  EXPECT_EQ(hub.source_count("zebra"), 3u);
  EXPECT_EQ(hub.source_count("alpha"), 2u);
  EXPECT_EQ(hub.source_count("mid"), 1u);
  const auto map = hub.per_source_counts();
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.begin()->first, "alpha");  // map-shaped accessor sorts
}

}  // namespace
}  // namespace artemis::pipeline
