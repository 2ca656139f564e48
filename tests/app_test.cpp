// ArtemisApp wiring: hub -> detection -> mitigation -> controller ->
// network, end to end on a tiny topology, without the experiment harness.
#include <gtest/gtest.h>

#include "artemis/app.hpp"
#include "feeds/stream_feed.hpp"
#include "topology/as_graph.hpp"

namespace artemis::core {
namespace {

struct AppFixture {
  topo::AsGraph graph;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<ArtemisApp> app;
  std::unique_ptr<feeds::StreamFeed> feed;

  const net::Prefix prefix = net::Prefix::must_parse("10.0.0.0/23");
  static constexpr bgp::Asn kVictim = 3;
  static constexpr bgp::Asn kAttacker = 4;

  explicit AppFixture(bool auto_mitigate = true) {
    graph.add_as(1, topo::Tier::kTier1);
    graph.add_as(2, topo::Tier::kTier2);
    graph.add_as(kVictim, topo::Tier::kStub);
    graph.add_as(kAttacker, topo::Tier::kStub);
    graph.add_as(5, topo::Tier::kTier2);
    graph.add_customer_link(1, 2);
    graph.add_customer_link(2, kVictim);
    graph.add_customer_link(1, 4);
    graph.add_customer_link(1, 5);

    sim::NetworkParams params;
    params.mrai = SimDuration::seconds(5);  // keep the test brisk
    network = std::make_unique<sim::Network>(graph, params, Rng(1));

    Config config;
    OwnedPrefix owned;
    owned.prefix = prefix;
    owned.legitimate_origins.insert(kVictim);
    config.add_owned(std::move(owned));
    config.mitigation().auto_mitigate = auto_mitigate;
    config.mitigation().reannounce_exact = false;

    AppOptions options;
    options.controller_latency = SimDuration::seconds(15);
    app = std::make_unique<ArtemisApp>(std::move(config), *network, kVictim, options);

    feeds::StreamFeedParams feed_params;
    feed_params.vantages = {1, 2, 5};
    feed_params.median_latency = SimDuration::seconds(2);
    feed = std::make_unique<feeds::StreamFeed>(*network, feed_params, Rng(2));
    feed->subscribe_batch(app->hub().batch_inlet());
  }

  void run_hijack_scenario() {
    auto& sim = network->simulator();
    sim.at(SimTime::zero(), [this] { network->speaker(kVictim).originate(prefix); });
    sim.at(SimTime::at_seconds(300),
           [this] { network->speaker(kAttacker).originate(prefix); });
    sim.run_until(SimTime::at_seconds(900));
  }
};

TEST(AppTest, FullLoopDetectsAndMitigates) {
  AppFixture f;
  f.run_hijack_scenario();

  // Detection fired from the merged stream.
  ASSERT_FALSE(f.app->detection().alerts().empty());
  const auto& alert = f.app->detection().alerts().front();
  EXPECT_EQ(alert.type, HijackType::kExactOrigin);
  EXPECT_EQ(alert.offender, AppFixture::kAttacker);
  EXPECT_GT(alert.detected_at, SimTime::at_seconds(300));

  // Mitigation pushed the two /24s through the controller.
  ASSERT_EQ(f.app->mitigation().records().size(), 1u);
  const auto& log = f.app->controller().log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].prefix.to_string(), "10.0.0.0/24");
  EXPECT_EQ(log[1].prefix.to_string(), "10.0.1.0/24");
  EXPECT_EQ(log[0].applied_at - log[0].issued_at, SimDuration::seconds(15));

  // The network actually recovered: every vantage routes to the victim.
  for (const bgp::Asn vantage : {1u, 2u, 5u}) {
    EXPECT_EQ(f.network->resolve_origin(vantage,
                                        net::IpAddress::parse("10.0.0.1").value()),
              AppFixture::kVictim);
    EXPECT_EQ(f.network->resolve_origin(vantage,
                                        net::IpAddress::parse("10.0.1.1").value()),
              AppFixture::kVictim);
  }

  // Monitoring converged back to all-legitimate.
  EXPECT_TRUE(f.app->monitoring().all_legitimate(f.prefix));
  EXPECT_FALSE(f.app->monitoring().changes().empty());
}

TEST(AppTest, DetectOnlyModeRaisesAlertsButNeverAnnounces) {
  AppFixture f(/*auto_mitigate=*/false);
  f.run_hijack_scenario();
  EXPECT_FALSE(f.app->detection().alerts().empty());
  EXPECT_TRUE(f.app->mitigation().records().empty());
  EXPECT_TRUE(f.app->controller().log().empty());
  // Hijack persists: the tier-1 still routes to the attacker.
  EXPECT_EQ(f.network->resolve_origin(1, net::IpAddress::parse("10.0.0.1").value()),
            AppFixture::kAttacker);
}

TEST(AppTest, MonitoringTracksCaptureAndRecovery) {
  AppFixture f;
  f.run_hijack_scenario();
  // The change log must contain at least one capture (false) followed
  // eventually by a recovery (true) for some vantage.
  bool saw_capture = false;
  bool saw_recovery_after_capture = false;
  for (const auto& change : f.app->monitoring().changes()) {
    if (!change.legitimate) saw_capture = true;
    if (change.legitimate && saw_capture) saw_recovery_after_capture = true;
  }
  EXPECT_TRUE(saw_capture);
  EXPECT_TRUE(saw_recovery_after_capture);
}

TEST(AppTest, ConfigAccessibleAndHubCounts) {
  AppFixture f;
  f.run_hijack_scenario();
  EXPECT_EQ(f.app->config().owned().size(), 1u);
  EXPECT_GT(f.app->hub().total_observations(), 0u);
  EXPECT_EQ(f.app->hub().per_source_counts().count("ris-live"), 1u);
}

}  // namespace
}  // namespace artemis::core
