// Record/replay determinism (the PR's headline invariant): a scenario
// run with the journal tap enabled, then replayed from disk into a fresh
// app, yields bit-identical merged_alerts() for any shard count — and a
// crash-recovery replay (writer torn mid-segment) rebuilds identical
// detection state from every record that survived.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "artemis/detection.hpp"
#include "artemis/scenario.hpp"
#include "journal/reader.hpp"
#include "journal/replay.hpp"
#include "journal/writer.hpp"
#include "pipeline/sharded_detector.hpp"
#include "util/rng.hpp"

namespace artemis::journal {
namespace {

namespace fs = std::filesystem;

std::string make_temp_dir(const char* tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "artemis_replay_" + tag + "_" +
                          info->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

constexpr std::string_view kRecordedScenario = R"({
  "seed": 7,
  "topology": {"tier1": 4, "tier2": 20, "stubs": 80},
  "network": {"mrai_s": 10, "max_prefix_len": 24},
  "experiment": {
    "victim_prefix": "10.0.0.0/23",
    "victim": "stub:0",
    "attacker": "stub:-1",
    "hijack_at_s": 600,
    "horizon_min": 15
  }
})";

void expect_same_alert(const core::HijackAlert& a, const core::HijackAlert& b) {
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

TEST(JournalReplayTest, RecordedScenarioReplaysBitIdentically) {
  const std::string dir = make_temp_dir("scenario");
  core::Scenario scenario = core::load_scenario_text(kRecordedScenario);
  scenario.experiment.app.journal_dir = dir;

  // The recording run: live simulation with the journal tap on. Capture
  // the recording app's own view for the comparison before it goes away.
  std::vector<core::HijackAlert> recorded_alerts;
  std::uint64_t recorded_observations = 0;
  std::map<std::string, std::uint64_t> recorded_by_source;
  {
    Rng rng(scenario.seed);
    core::HijackExperiment experiment(scenario.graph, scenario.network,
                                      scenario.experiment, rng.fork("experiment"));
    const auto result = experiment.run();
    ASSERT_TRUE(result.detected_at.has_value());
    recorded_alerts = experiment.app().sharded_detection().merged_alerts();
    recorded_observations = experiment.app().hub().total_observations();
    recorded_by_source = experiment.app().hub().per_source_counts();
    ASSERT_NE(experiment.app().journal_writer(), nullptr);
    experiment.app().journal_writer()->close();
    EXPECT_EQ(experiment.app().journal_writer()->records_written(),
              recorded_observations);
  }
  ASSERT_FALSE(recorded_alerts.empty());

  // Replay into fresh apps at shard counts 1 and 4; both must reproduce
  // the recording's merged alerts bit-for-bit (and the hub statistics).
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    core::ReplayRunOptions options;
    options.detection_shards = shards;
    const auto replayed = core::replay_scenario_journal(scenario, dir, options);
    EXPECT_EQ(replayed.at("replayed").as_int(),
              static_cast<std::int64_t>(recorded_observations));
    EXPECT_FALSE(replayed.at("truncated_tail").as_bool());

    // Independent structural check against the JSON view.
    const auto& alerts = replayed.at("alerts").as_array();
    ASSERT_EQ(alerts.size(), recorded_alerts.size()) << "shards=" << shards;

    // Full-fidelity check at the object level.
    Rng rng(scenario.seed);
    auto params = scenario.experiment;
    params.app.journal_dir.clear();
    params.app.detection_shards = shards;
    core::HijackExperiment fresh(scenario.graph, scenario.network, params,
                                 rng.fork("experiment"));
    JournalReader reader(dir);
    ReplayFeed feed(reader);
    feed.replay_all(fresh.app().hub());
    const auto fresh_alerts = fresh.app().sharded_detection().merged_alerts();
    ASSERT_EQ(fresh_alerts.size(), recorded_alerts.size()) << "shards=" << shards;
    for (std::size_t i = 0; i < recorded_alerts.size(); ++i) {
      expect_same_alert(fresh_alerts[i], recorded_alerts[i]);
    }
    EXPECT_EQ(fresh.app().hub().total_observations(), recorded_observations);
    EXPECT_EQ(fresh.app().hub().per_source_counts(), recorded_by_source);
    // Replay drives mitigation too: the same first alert, the same plan.
    EXPECT_EQ(fresh.app().mitigation().records().empty(), false);
  }
}

TEST(JournalReplayTest, TimeWarpedReplayMatchesAndCompressesTheTimeline) {
  const std::string dir = make_temp_dir("warp");
  core::Scenario scenario = core::load_scenario_text(kRecordedScenario);
  scenario.experiment.app.journal_dir = dir;
  std::vector<core::HijackAlert> recorded_alerts;
  {
    Rng rng(scenario.seed);
    core::HijackExperiment experiment(scenario.graph, scenario.network,
                                      scenario.experiment, rng.fork("experiment"));
    experiment.run();
    recorded_alerts = experiment.app().sharded_detection().merged_alerts();
    experiment.app().journal_writer()->close();
  }
  ASSERT_FALSE(recorded_alerts.empty());

  constexpr double kWarp = 8.0;
  auto params = scenario.experiment;
  params.app.journal_dir.clear();
  params.app.detection_shards = 4;
  // The restarted monitor: a bare app (no live feeds) whose only
  // observation source is the journal, paced through the sim clock.
  const auto helpers = core::recruit_helpers(scenario.graph, params);
  auto config = core::build_experiment_config(scenario.graph, params, helpers);
  Rng rng(scenario.seed);
  sim::Network network(scenario.graph, scenario.network, rng.fork("network"));
  core::ArtemisApp app(std::move(config), network, params.victim, params.app);
  JournalReader reader(dir);
  ReplayOptions options;
  options.speedup = kWarp;
  ReplayFeed feed(reader, options);
  auto& sim = network.simulator();
  feed.schedule(sim, app.hub().batch_inlet());
  sim.run_all();

  const auto fresh_alerts = app.sharded_detection().merged_alerts();
  ASSERT_EQ(fresh_alerts.size(), recorded_alerts.size());
  for (std::size_t i = 0; i < recorded_alerts.size(); ++i) {
    // The observation *content* (event/delivery stamps) replays verbatim;
    // only the wall position on the replay simulator is warped.
    expect_same_alert(fresh_alerts[i], recorded_alerts[i]);
  }
  // The replay clock ran ~kWarp× compressed: the last scheduled emission
  // sits at recorded/Warp (alert handlers saw recorded timestamps).
  EXPECT_LE(sim.now().as_micros(),
            recorded_alerts.back().detected_at.as_micros());
  EXPECT_GT(feed.replayed(), 0u);
}

TEST(JournalReplayTest, CrashRecoveryRebuildsIdenticalDetectionState) {
  const std::string dir = make_temp_dir("crash");
  core::Scenario scenario = core::load_scenario_text(kRecordedScenario);
  scenario.experiment.app.journal_dir = dir;
  {
    Rng rng(scenario.seed);
    core::HijackExperiment experiment(scenario.graph, scenario.network,
                                      scenario.experiment, rng.fork("experiment"));
    experiment.run();
    experiment.app().journal_writer()->close();
  }

  // Simulate the crash: tear bytes off the journal's tail mid-record.
  // (Record-bearing segments only — the directory also holds the framing
  // and index sidecars, which are not the journal's tail.)
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (is_segment_file_name(entry.path().filename().string())) {
      segments.push_back(entry.path().string());
    }
  }
  std::sort(segments.begin(), segments.end());
  const std::string& last = segments.back();
  const auto size = fs::file_size(last);
  ASSERT_GT(size, kSegmentHeaderSize + 40);
  fs::resize_file(last, size - 13);

  // Recovery replay: every complete record is delivered, in order.
  JournalReader recovery(dir);
  pipeline::ObservationBatch batch;
  std::vector<feeds::Observation> recovered;
  while (recovery.read_batch(batch, 256) > 0) {
    for (const auto& obs : batch) recovered.push_back(obs);
  }
  EXPECT_TRUE(recovery.truncated_tail());
  ASSERT_GT(recovered.size(), 0u);

  // The restarted monitor: rebuild detection state by replay through the
  // sharded pipeline. Reference: a service fed the same recovered stream
  // directly. Both must agree bit-identically — same alerts, same dedup
  // counters, same per-source first-seen times.
  core::Config config;
  core::OwnedPrefix owned;
  owned.prefix = scenario.experiment.victim_prefix;
  owned.legitimate_origins.insert(scenario.experiment.victim);
  config.add_owned(std::move(owned));

  core::DetectionService reference(config);
  for (const auto& obs : recovered) reference.process(obs);

  pipeline::ShardedDetectorOptions sharded_options;
  sharded_options.shards = 4;
  pipeline::ShardedDetector rebuilt(config, sharded_options);
  JournalReader rebuild_reader(dir);
  ReplayFeed rebuild_feed(rebuild_reader);
  rebuild_feed.replay_all(
      [&rebuilt](std::span<const feeds::Observation> span) {
        rebuilt.submit_batch(span);
      });

  EXPECT_EQ(rebuilt.observations_processed(), recovered.size());
  const auto rebuilt_alerts = rebuilt.merged_alerts();
  ASSERT_EQ(rebuilt_alerts.size(), reference.alerts().size());
  for (std::size_t i = 0; i < rebuilt_alerts.size(); ++i) {
    expect_same_alert(rebuilt_alerts[i], reference.alerts()[i]);
    const auto key = reference.alerts()[i].key();
    EXPECT_EQ(rebuilt.observation_count(key), reference.observation_count(key));
    const auto* ref_seen = reference.first_seen_by_source(key);
    const auto* new_seen = rebuilt.first_seen_by_source(key);
    ASSERT_NE(ref_seen, nullptr);
    ASSERT_NE(new_seen, nullptr);
    EXPECT_EQ(*ref_seen, *new_seen);
  }
}

TEST(JournalReplayTest, ReplayChunkSizeDoesNotChangeTheOutcome) {
  // Journal chunking is a replay parameter, not a semantic one: any
  // batch_size yields the same detection state (the batch-vs-loop oracle
  // extended through the journal layer).
  const std::string dir = make_temp_dir("chunks");
  const int kCount = 700;
  std::vector<feeds::Observation> stream;
  {
    Rng rng(5);
    double t = 100.0;
    for (int i = 0; i < kCount; ++i) {
      feeds::Observation obs;
      obs.type = feeds::ObservationType::kAnnouncement;
      obs.source = feeds::intern_source((i % 2) != 0 ? "ris-live" : "bgpmon");
      obs.vantage = 9;
      obs.prefix = (i % 5) == 0 ? net::Prefix::must_parse("10.0.0.0/23")
                                : net::Prefix::must_parse("203.0.113.0/24");
      obs.attrs.as_path =
          bgp::AsPath({9, 3356, (i % 5) == 0 ? 666u : 65001u});
      t += 0.5;
      obs.event_time = SimTime::at_seconds(t - 5);
      obs.delivered_at = SimTime::at_seconds(t);
      stream.push_back(obs);
    }
    JournalWriter writer(dir);
    writer.append_batch(stream);
  }

  core::Config config;
  core::OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  config.add_owned(std::move(owned));

  core::DetectionService reference(config);
  for (const auto& obs : stream) reference.process(obs);

  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7},
                                       std::size_t{256}, std::size_t{4096}}) {
    core::DetectionService service(config);
    JournalReader reader(dir);
    ReplayOptions options;
    options.batch_size = batch_size;
    ReplayFeed feed(reader, options);
    feed.replay_all([&service](std::span<const feeds::Observation> span) {
      service.process_batch(span);
    });
    EXPECT_EQ(service.observations_processed(), reference.observations_processed());
    ASSERT_EQ(service.alerts().size(), reference.alerts().size());
    for (std::size_t i = 0; i < service.alerts().size(); ++i) {
      expect_same_alert(service.alerts()[i], reference.alerts()[i]);
    }
  }
}

TEST(JournalReplayTest, RecordedFramingReproducesExactBatchBoundaries) {
  // The framing sidecar (ISSUE 8 satellite): with use_recorded_framing,
  // replay re-emits the writer's exact append_batch boundaries, so a
  // replayed hub reproduces per-batch statistics — not just detection
  // output, which is batch-boundary independent anyway.
  const std::string dir = make_temp_dir("framing");
  const std::vector<std::size_t> recorded_sizes = {17, 1, 128, 5, 64, 3};
  std::vector<feeds::Observation> stream;
  {
    double t = 100.0;
    JournalWriter writer(dir);
    for (const std::size_t size : recorded_sizes) {
      std::vector<feeds::Observation> batch;
      for (std::size_t i = 0; i < size; ++i) {
        feeds::Observation obs;
        obs.type = feeds::ObservationType::kAnnouncement;
        obs.source = feeds::intern_source((i % 2) != 0 ? "ris-live" : "bgpmon");
        obs.vantage = 9;
        obs.prefix = net::Prefix::must_parse("203.0.113.0/24");
        obs.attrs.as_path = bgp::AsPath({9, 65001});
        t += 0.25;
        obs.event_time = SimTime::at_seconds(t - 5);
        obs.delivered_at = SimTime::at_seconds(t);
        batch.push_back(obs);
        stream.push_back(obs);
      }
      writer.append_batch(batch);
    }
    writer.close();
    EXPECT_EQ(writer.batches_written(), recorded_sizes.size());
  }
  ASSERT_TRUE(fs::exists(fs::path(dir) / std::string(kFramesFileName)));

  // Framed replay: the emitted chunking IS the recorded chunking.
  {
    JournalReader reader(dir);
    ReplayOptions options;
    options.use_recorded_framing = true;
    options.batch_size = 1024;  // would otherwise emit one big batch
    ReplayFeed feed(reader, options);
    std::vector<std::size_t> seen;
    std::uint64_t total = 0;
    feed.replay_all([&](std::span<const feeds::Observation> span) {
      seen.push_back(span.size());
      total += span.size();
    });
    EXPECT_EQ(total, stream.size());
    ASSERT_EQ(seen.size(), recorded_sizes.size());
    for (std::size_t i = 0; i < recorded_sizes.size(); ++i) {
      EXPECT_EQ(seen[i], recorded_sizes[i]) << "batch " << i;
    }
    ASSERT_EQ(feed.recorded_frames().size(), recorded_sizes.size());
  }

  // A lost sidecar is not an error: framed replay falls back to
  // batch_size chunks and still delivers every record.
  {
    fs::remove(fs::path(dir) / std::string(kFramesFileName));
    JournalReader reader(dir);
    ReplayOptions options;
    options.use_recorded_framing = true;
    options.batch_size = 100;
    ReplayFeed feed(reader, options);
    std::uint64_t total = 0;
    std::vector<std::size_t> seen;
    feed.replay_all([&](std::span<const feeds::Observation> span) {
      seen.push_back(span.size());
      total += span.size();
    });
    EXPECT_EQ(total, stream.size());
    EXPECT_TRUE(feed.recorded_frames().empty());
    EXPECT_EQ(seen.front(), 100u);  // plain fixed-size chunking
  }
}

TEST(JournalReplayTest, TornOrLyingFramesSidecarNeverLosesRecords) {
  // Crash tolerance: a torn trailing varint ends the frame list cleanly
  // (replay falls back to fixed chunks for the rest), and a sidecar that
  // over-counts (records lost to a torn segment tail) is clamped to what
  // is actually on disk. Either way every surviving record replays once.
  const std::string dir = make_temp_dir("torn_frames");
  const std::vector<std::size_t> recorded_sizes = {40, 40, 40};
  {
    double t = 100.0;
    JournalWriter writer(dir);
    for (const std::size_t size : recorded_sizes) {
      std::vector<feeds::Observation> batch;
      for (std::size_t i = 0; i < size; ++i) {
        feeds::Observation obs;
        obs.type = feeds::ObservationType::kAnnouncement;
        obs.source = feeds::intern_source("ris-live");
        obs.vantage = 9;
        obs.prefix = net::Prefix::must_parse("203.0.113.0/24");
        obs.attrs.as_path = bgp::AsPath({9, 65001});
        t += 0.25;
        obs.event_time = SimTime::at_seconds(t - 5);
        obs.delivered_at = SimTime::at_seconds(t);
        batch.push_back(obs);
      }
      writer.append_batch(batch);
    }
    writer.close();
  }
  const fs::path sidecar = fs::path(dir) / std::string(kFramesFileName);

  // Append a lying frame claiming 200 more records than exist.
  {
    std::ofstream out(sidecar, std::ios::binary | std::ios::app);
    out.put(static_cast<char>(0xC8));  // varint 200 = 0xC8 0x01
    out.put(static_cast<char>(0x01));
  }
  {
    JournalReader reader(dir);
    ReplayOptions options;
    options.use_recorded_framing = true;
    ReplayFeed feed(reader, options);
    std::uint64_t total = 0;
    feed.replay_all(
        [&](std::span<const feeds::Observation> span) { total += span.size(); });
    EXPECT_EQ(total, 120u);  // the lying frame was clamped, nothing duplicated
  }

  // Tear the sidecar mid-varint: the parser stops at the torn tail.
  {
    std::error_code ec;
    const auto size = fs::file_size(sidecar, ec);
    ASSERT_FALSE(ec);
    fs::resize_file(sidecar, size - 1, ec);
    ASSERT_FALSE(ec);
  }
  {
    JournalReader reader(dir);
    ReplayOptions options;
    options.use_recorded_framing = true;
    options.batch_size = 7;
    ReplayFeed feed(reader, options);
    std::uint64_t total = 0;
    feed.replay_all(
        [&](std::span<const feeds::Observation> span) { total += span.size(); });
    EXPECT_EQ(total, 120u);
    EXPECT_EQ(feed.recorded_frames().size(), recorded_sizes.size());
  }
}

}  // namespace
}  // namespace artemis::journal
