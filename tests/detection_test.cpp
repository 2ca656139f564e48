#include <gtest/gtest.h>

#include "artemis/detection.hpp"

namespace artemis::core {
namespace {

Config victim_config() {
  Config config;
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins.insert(65001);
  owned.legitimate_neighbors = {100, 200};
  config.add_owned(std::move(owned));
  return config;
}

feeds::Observation make_obs(std::string_view prefix, std::vector<bgp::Asn> path,
                            std::string source = "ris-live", bgp::Asn vantage = 9,
                            double at_seconds = 100.0) {
  feeds::Observation obs;
  obs.type = feeds::ObservationType::kAnnouncement;
  obs.source = feeds::intern_source(source);
  obs.vantage = vantage;
  obs.prefix = net::Prefix::must_parse(prefix);
  obs.attrs.as_path = bgp::AsPath(std::move(path));
  obs.event_time = SimTime::at_seconds(at_seconds - 5);
  obs.delivered_at = SimTime::at_seconds(at_seconds);
  return obs;
}

TEST(DetectionTest, LegitimateAnnouncementIgnored) {
  const auto config = victim_config();
  DetectionService detector(config);
  detector.process(make_obs("10.0.0.0/23", {9, 100, 65001}));
  EXPECT_TRUE(detector.alerts().empty());
  EXPECT_EQ(detector.observations_processed(), 1u);
  EXPECT_EQ(detector.observations_matched(), 0u);
}

TEST(DetectionTest, UnrelatedPrefixIgnored) {
  const auto config = victim_config();
  DetectionService detector(config);
  detector.process(make_obs("203.0.113.0/24", {9, 666}));
  EXPECT_TRUE(detector.alerts().empty());
}

TEST(DetectionTest, ExactOriginHijackAlerts) {
  const auto config = victim_config();
  DetectionService detector(config);
  detector.process(make_obs("10.0.0.0/23", {9, 300, 666}));
  ASSERT_EQ(detector.alerts().size(), 1u);
  const auto& alert = detector.alerts()[0];
  EXPECT_EQ(alert.type, HijackType::kExactOrigin);
  EXPECT_EQ(alert.offender, 666u);
  EXPECT_EQ(alert.owned_prefix.to_string(), "10.0.0.0/23");
  EXPECT_EQ(alert.observed_prefix.to_string(), "10.0.0.0/23");
  EXPECT_EQ(alert.vantage, 9u);
  EXPECT_EQ(alert.source, "ris-live");
  EXPECT_EQ(alert.detected_at, SimTime::at_seconds(100));
}

TEST(DetectionTest, SubPrefixHijackAlerts) {
  const auto config = victim_config();
  DetectionService detector(config);
  detector.process(make_obs("10.0.1.0/24", {9, 666}));
  ASSERT_EQ(detector.alerts().size(), 1u);
  EXPECT_EQ(detector.alerts()[0].type, HijackType::kSubPrefix);
  EXPECT_EQ(detector.alerts()[0].observed_prefix.to_string(), "10.0.1.0/24");
}

TEST(DetectionTest, OwnSubPrefixMitigationDoesNotSelfAlert) {
  const auto config = victim_config();
  DetectionService detector(config);
  // The victim's own de-aggregated /24s (origin 65001) must not alert.
  detector.process(make_obs("10.0.0.0/24", {9, 100, 65001}));
  detector.process(make_obs("10.0.1.0/24", {9, 100, 65001}));
  EXPECT_TRUE(detector.alerts().empty());
}

TEST(DetectionTest, SuperPrefixHijackAlerts) {
  const auto config = victim_config();
  DetectionService detector(config);
  detector.process(make_obs("10.0.0.0/16", {9, 666}));
  ASSERT_EQ(detector.alerts().size(), 1u);
  EXPECT_EQ(detector.alerts()[0].type, HijackType::kSuperPrefix);
}

TEST(DetectionTest, SubPrefixCheckCanBeDisabled) {
  const auto config = victim_config();
  DetectionOptions options;
  options.detect_subprefix = false;
  options.detect_superprefix = false;
  DetectionService detector(config, options);
  detector.process(make_obs("10.0.1.0/24", {9, 666}));
  detector.process(make_obs("10.0.0.0/16", {9, 666}));
  EXPECT_TRUE(detector.alerts().empty());
  // The demo's exact-origin check stays active.
  detector.process(make_obs("10.0.0.0/23", {9, 666}));
  EXPECT_EQ(detector.alerts().size(), 1u);
}

TEST(DetectionTest, FakeFirstHopDetectedWhenEnabled) {
  const auto config = victim_config();
  DetectionOptions options;
  options.detect_fake_first_hop = true;
  DetectionService detector(config, options);
  // Correct origin 65001 but adjacent AS 666 is not a known neighbor.
  detector.process(make_obs("10.0.0.0/23", {9, 666, 65001}));
  ASSERT_EQ(detector.alerts().size(), 1u);
  EXPECT_EQ(detector.alerts()[0].type, HijackType::kFakeFirstHop);
  EXPECT_EQ(detector.alerts()[0].offender, 666u);
}

TEST(DetectionTest, FakeFirstHopIgnoresKnownNeighbors) {
  const auto config = victim_config();
  DetectionOptions options;
  options.detect_fake_first_hop = true;
  DetectionService detector(config, options);
  detector.process(make_obs("10.0.0.0/23", {9, 100, 65001}));
  detector.process(make_obs("10.0.0.0/23", {9, 200, 65001}));
  EXPECT_TRUE(detector.alerts().empty());
}

TEST(DetectionTest, FakeFirstHopOffByDefault) {
  const auto config = victim_config();
  DetectionService detector(config);
  detector.process(make_obs("10.0.0.0/23", {9, 666, 65001}));
  EXPECT_TRUE(detector.alerts().empty());
}

TEST(DetectionTest, WithdrawalsNeverAlert) {
  const auto config = victim_config();
  DetectionService detector(config);
  auto obs = make_obs("10.0.0.0/23", {9, 666});
  obs.type = feeds::ObservationType::kWithdrawal;
  detector.process(obs);
  EXPECT_TRUE(detector.alerts().empty());
}

TEST(DetectionTest, RouteStateObservationsAlertToo) {
  // LG answers and RIB dumps carry kRouteState; they must be checked.
  const auto config = victim_config();
  DetectionService detector(config);
  auto obs = make_obs("10.0.0.0/23", {9, 666}, "periscope");
  obs.type = feeds::ObservationType::kRouteState;
  detector.process(obs);
  EXPECT_EQ(detector.alerts().size(), 1u);
}

TEST(DetectionTest, DuplicateObservationsDeduplicated) {
  const auto config = victim_config();
  DetectionService detector(config);
  detector.process(make_obs("10.0.0.0/23", {9, 666}, "ris-live", 9, 100));
  detector.process(make_obs("10.0.0.0/23", {8, 666}, "bgpmon", 8, 105));
  detector.process(make_obs("10.0.0.0/23", {7, 300, 666}, "ris-live", 7, 110));
  ASSERT_EQ(detector.alerts().size(), 1u);
  const auto key = detector.alerts()[0].dedup_key();
  EXPECT_EQ(detector.observation_count(key), 3u);
}

TEST(DetectionTest, DistinctOffendersAreDistinctAlerts) {
  const auto config = victim_config();
  DetectionService detector(config);
  detector.process(make_obs("10.0.0.0/23", {9, 666}));
  detector.process(make_obs("10.0.0.0/23", {9, 777}));
  EXPECT_EQ(detector.alerts().size(), 2u);
}

TEST(DetectionTest, FirstSeenBySourceTracksRace) {
  const auto config = victim_config();
  DetectionService detector(config);
  detector.process(make_obs("10.0.0.0/23", {9, 666}, "bgpmon", 9, 100));
  detector.process(make_obs("10.0.0.0/23", {8, 666}, "ris-live", 8, 103));
  detector.process(make_obs("10.0.0.0/23", {7, 666}, "bgpmon", 7, 110));  // later
  const auto key = detector.alerts()[0].dedup_key();
  const auto* by_source = detector.first_seen_by_source(key);
  ASSERT_NE(by_source, nullptr);
  EXPECT_EQ(by_source->at("bgpmon"), SimTime::at_seconds(100));
  EXPECT_EQ(by_source->at("ris-live"), SimTime::at_seconds(103));
  EXPECT_EQ(detector.first_seen_by_source("nonsense"), nullptr);
  EXPECT_EQ(detector.observation_count("nonsense"), 0u);
}

TEST(DetectionTest, AlertHandlersFireOnce) {
  const auto config = victim_config();
  DetectionService detector(config);
  int fired = 0;
  detector.on_alert([&](const HijackAlert&) { ++fired; });
  detector.process(make_obs("10.0.0.0/23", {9, 666}));
  detector.process(make_obs("10.0.0.0/23", {8, 666}));
  EXPECT_EQ(fired, 1);
}

TEST(DetectionTest, AlertToStringReadable) {
  const auto config = victim_config();
  DetectionService detector(config);
  detector.process(make_obs("10.0.0.0/23", {9, 666}));
  const auto s = detector.alerts()[0].to_string();
  EXPECT_NE(s.find("exact-origin"), std::string::npos);
  EXPECT_NE(s.find("AS666"), std::string::npos);
  EXPECT_NE(s.find("10.0.0.0/23"), std::string::npos);
}

TEST(DetectionTest, MultiOriginConfigAcceptsAllOrigins) {
  Config config;
  OwnedPrefix owned;
  owned.prefix = net::Prefix::must_parse("10.0.0.0/23");
  owned.legitimate_origins = {65001, 65002};
  config.add_owned(std::move(owned));
  DetectionService detector(config);
  detector.process(make_obs("10.0.0.0/23", {9, 65001}));
  detector.process(make_obs("10.0.0.0/23", {9, 65002}));
  EXPECT_TRUE(detector.alerts().empty());
  detector.process(make_obs("10.0.0.0/23", {9, 65003}));
  EXPECT_EQ(detector.alerts().size(), 1u);
}

}  // namespace
}  // namespace artemis::core
