#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "artemis/scenario.hpp"

namespace artemis::core {
namespace {

constexpr std::string_view kSmallScenario = R"({
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

TEST(ScenarioTest, LoadsAndResolvesActors) {
  const auto scenario = load_scenario_text(kSmallScenario);
  EXPECT_EQ(scenario.seed, 7u);
  EXPECT_EQ(scenario.graph.as_count(), 104u);
  const auto stubs = scenario.graph.ases_in_tier(topo::Tier::kStub);
  EXPECT_EQ(scenario.experiment.victim, stubs.front());
  EXPECT_EQ(scenario.experiment.attacker, stubs.back());
  EXPECT_EQ(scenario.network.mrai, SimDuration::seconds(10));
  EXPECT_EQ(scenario.experiment.hijack_at, SimTime::at_seconds(600));
}

TEST(ScenarioTest, RunsEndToEnd) {
  const auto scenario = load_scenario_text(kSmallScenario);
  const auto result = scenario.run();
  ASSERT_TRUE(result.detected_at.has_value());
  EXPECT_TRUE(result.deaggregation_possible);
  ASSERT_TRUE(result.truth_converged_at.has_value());
}

TEST(ScenarioTest, DeterministicAcrossLoads) {
  const auto a = load_scenario_text(kSmallScenario).run();
  const auto b = load_scenario_text(kSmallScenario).run();
  ASSERT_TRUE(a.detected_at && b.detected_at);
  EXPECT_EQ(*a.detected_at, *b.detected_at);
  EXPECT_EQ(a.max_hijacked_fraction, b.max_hijacked_fraction);
}

TEST(ScenarioTest, ExplicitAsnActors) {
  // Generate once to learn valid ASNs, then reference them numerically.
  const auto probe = load_scenario_text(kSmallScenario);
  const auto stubs = probe.graph.ases_in_tier(topo::Tier::kStub);
  const std::string text = std::string(R"({
    "seed": 7,
    "topology": {"tier1": 4, "tier2": 20, "stubs": 80},
    "experiment": {"victim": ")") +
                           std::to_string(stubs[3]) + R"(", "attacker": ")" +
                           std::to_string(stubs[4]) + R"("}})";
  const auto scenario = load_scenario_text(text);
  EXPECT_EQ(scenario.experiment.victim, stubs[3]);
  EXPECT_EQ(scenario.experiment.attacker, stubs[4]);
}

TEST(ScenarioTest, NegativeAndTierIndexing) {
  const auto scenario = load_scenario_text(R"({
    "seed": 1,
    "topology": {"tier1": 3, "tier2": 10, "stubs": 20},
    "experiment": {"victim": "tier2:2", "attacker": "tier1:-1"}})");
  EXPECT_EQ(scenario.experiment.victim,
            scenario.graph.ases_in_tier(topo::Tier::kTier2)[2]);
  EXPECT_EQ(scenario.experiment.attacker,
            scenario.graph.ases_in_tier(topo::Tier::kTier1).back());
}

TEST(ScenarioTest, ForgedFirstHopBuildsType1Path) {
  const auto scenario = load_scenario_text(R"({
    "seed": 1,
    "topology": {"tier1": 3, "tier2": 10, "stubs": 20},
    "experiment": {"victim": "stub:0", "attacker": "stub:1",
                   "forged_first_hop": true, "detect_fake_first_hop": true}})");
  ASSERT_TRUE(scenario.experiment.forged_path.has_value());
  EXPECT_EQ(scenario.experiment.forged_path->hops(),
            (std::vector<bgp::Asn>{scenario.experiment.attacker,
                                   scenario.experiment.victim}));
  EXPECT_TRUE(scenario.experiment.app.detection.detect_fake_first_hop);
}

TEST(ScenarioTest, JournalFsyncPolicyParses) {
  const auto scenario = load_scenario_text(R"({
    "seed": 1,
    "topology": {"tier1": 3, "tier2": 10, "stubs": 20},
    "experiment": {"victim": "stub:0", "attacker": "stub:1",
                   "journal_dir": "/tmp/j", "journal_fsync": "interval:250"}})");
  EXPECT_EQ(scenario.experiment.app.journal.fsync_policy,
            journal::FsyncPolicy::kInterval);
  EXPECT_EQ(scenario.experiment.app.journal.fsync_interval_ms, 250);
  EXPECT_EQ(journal::fsync_policy_to_string(scenario.experiment.app.journal),
            "interval:250");

  EXPECT_THROW(load_scenario_text(R"({"experiment":{"victim":"stub:0",
      "attacker":"stub:1","journal_fsync":"sometimes"}})"),
               std::invalid_argument);
}

TEST(ScenarioTest, LegacyDetectionKeysLoadAndReplayToTheSameAlerts) {
  // Scenario files written for older builds may carry detection dispatch
  // keys that no longer exist. The loader ignores unknown keys, so such a
  // file still loads, runs and replays to exactly the alerts of the same
  // scenario without them.
  const auto scenario_with = [](const std::string& journal_dir,
                                const std::string& extra) {
    return load_scenario_text(R"({
      "seed": 7,
      "topology": {"tier1": 4, "tier2": 20, "stubs": 80},
      "network": {"mrai_s": 10, "max_prefix_len": 24},
      "experiment": {
        "victim_prefix": "10.0.0.0/23",
        "victim": "stub:0",
        "attacker": "stub:-1",
        "hijack_at_s": 600,
        "horizon_min": 15,)" + extra + R"(
        "journal_dir": ")" + journal_dir + R"("
      }
    })");
  };
  const std::string base_dir = ::testing::TempDir() + "artemis_scenario_plain";
  const std::string legacy_dir = ::testing::TempDir() + "artemis_scenario_legacy";
  std::filesystem::remove_all(base_dir);
  std::filesystem::remove_all(legacy_dir);
  const auto base = scenario_with(base_dir, "");
  const auto legacy = scenario_with(legacy_dir, R"(
        "detection_threaded": true,
        "detection_wait_policy": "futex",
        "detection_pin": true,)");

  EXPECT_EQ(result_to_json(legacy.run()).dump(), result_to_json(base.run()).dump());

  const auto base_replay = replay_scenario_journal(base, base_dir);
  const auto legacy_replay = replay_scenario_journal(legacy, legacy_dir);
  ASSERT_GT(base_replay.at("alerts").as_array().size(), 0u);
  EXPECT_EQ(legacy_replay.at("alerts").dump(), base_replay.at("alerts").dump());
  EXPECT_EQ(legacy_replay.at("replayed").as_int(), base_replay.at("replayed").as_int());
  std::filesystem::remove_all(base_dir);
  std::filesystem::remove_all(legacy_dir);
}

TEST(ScenarioTest, RejectsBadDocuments) {
  EXPECT_THROW(load_scenario_text(R"({})"), json::JsonError);  // no experiment
  EXPECT_THROW(load_scenario_text(R"({"experiment":{"victim":"stub:0",
      "attacker":"stub:0"}})"),
               std::invalid_argument);  // same actor
  EXPECT_THROW(load_scenario_text(R"({"experiment":{"victim":"nope:0",
      "attacker":"stub:1"}})"),
               std::invalid_argument);  // bad tier
  EXPECT_THROW(load_scenario_text(R"({"experiment":{"victim":"stub:99999",
      "attacker":"stub:1"}})"),
               std::invalid_argument);  // index out of range
  EXPECT_THROW(load_scenario_text(R"({"experiment":{"victim":"999999",
      "attacker":"stub:1"}})"),
               std::invalid_argument);  // unknown ASN
  EXPECT_THROW(load_scenario_text(R"({"experiment":{"victim_prefix":"zzz",
      "victim":"stub:0","attacker":"stub:1"}})"),
               std::invalid_argument);  // bad prefix
}

TEST(ScenarioResultJsonTest, SerializesKeyFields) {
  const auto scenario = load_scenario_text(kSmallScenario);
  const auto result = scenario.run();
  const auto doc = result_to_json(result);
  EXPECT_TRUE(doc.at("detected").as_bool());
  EXPECT_GT(doc.at("detection_delay_s").as_number(), 0.0);
  EXPECT_TRUE(doc.at("deaggregation_possible").as_bool());
  EXPECT_GE(doc.at("timeline").as_array().size(), 2u);
  EXPECT_EQ(doc.at("mitigation_announcements").as_array().size(),
            result.mitigation_announcements.size());
  // The document is valid JSON end to end.
  EXPECT_NO_THROW(json::parse(doc.dump()));
}

}  // namespace
}  // namespace artemis::core
