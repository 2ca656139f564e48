// Tests for the benchmark's own helpers: percentile selection, span
// self-time arithmetic, open-loop lateness, and generator determinism
// and ground truth.
#include <gtest/gtest.h>

#include <numeric>

#include "artemis/config.hpp"
#include "mrt/observation_convert.hpp"

#include "gen.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRank) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50), 0);
}

TEST(PercentileTest, HighestPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(10'000), 99.9);
  EXPECT_EQ(highest_supported_percentile(1'000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_FALSE(highest_supported_percentile(19).has_value());
  EXPECT_EQ(samples_beyond(1'000, 99.0), 10u);
}

TEST(PercentileTest, TailFallsBackToSupportedPercentile) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  double used = 0;
  EXPECT_EQ(tail_percentile(v, 99, used), 90);
  EXPECT_EQ(used, 90);
  std::vector<double> big(2'000);
  std::iota(big.begin(), big.end(), 1.0);
  EXPECT_EQ(tail_percentile(big, 99, used), 1'980);
  EXPECT_EQ(used, 99);
}

Span span(std::uint32_t name, std::uint32_t parent, std::int64_t start, std::int64_t end) {
  return Span{name, parent, kNoSpan, start, end};
}

TEST(SelfTimeTest, SubtractsNestedAndOverlappingChildren) {
  const std::vector<Span> spans = {
      span(0, kNoSpan, 0, 100),  // 0 root
      span(1, 0, 10, 40),        // 1 child
      span(2, 1, 20, 30),        // 2 grandchild
      span(1, 0, 50, 60),        // 3 child
      span(1, 0, 55, 70),        // 4 child overlapping 3
      span(0, kNoSpan, 200, 210),  // 5 second root
      span(1, 5, 205, 220),        // 6 child running past its parent
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 30 - 20);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 15);
  EXPECT_EQ(self[5], 5);
  EXPECT_EQ(self[6], 15);
}

TEST(SelfTimeTest, SummaryAttributesLayersPerPhase) {
  Tracer t;
  const auto pass = t.name("phase.pass");
  const auto inflate = t.name("mrt.inflate");
  const auto convert = t.name("mrt.convert");
  const auto append = t.name("journal.append");
  {
    Tracer::Scope root(&t, pass);
    Tracer::Scope a(&t, inflate);
    {
      Tracer::Scope b(&t, convert);
      Tracer::Scope c(&t, append);
    }
  }
  const TraceSummary s = summarize(t);
  const auto& layers = s.layer_self_s.at("phase.pass");
  const double wall = s.phase_wall_s.at("phase.pass");
  EXPECT_NEAR(layers.at("mrt") + layers.at("journal") + layers.at("bench"), wall, 1e-12);
  EXPECT_NEAR(s.coverage("phase.pass"), (wall - layers.at("bench")) / wall, 1e-12);
  EXPECT_EQ(t.spans()[2].parent, 1u);
  EXPECT_EQ(t.spans()[3].parent, 2u);
}

TEST(OpenLoopTest, LatenessIsChargedFromTheDueTime) {
  OpenLoopLedger ledger;
  constexpr std::int64_t ms = 1'000'000;
  // Due every 10 ms; the send of the third is stalled until 35 ms, and
  // the fourth queues behind it.
  EXPECT_EQ(ledger.on_send(0, 0), 0);
  ledger.on_wait(10 * ms);
  EXPECT_EQ(ledger.on_send(10 * ms, 10 * ms), 0);
  EXPECT_EQ(ledger.on_send(20 * ms, 35 * ms), 15 * ms);
  EXPECT_EQ(ledger.on_send(30 * ms, 36 * ms), 6 * ms);
  EXPECT_EQ(ledger.on_send(40 * ms, 39 * ms), 0);  // early sends are not late
  EXPECT_EQ(ledger.sent(), 5u);
  EXPECT_EQ(ledger.waited_ns(), 10 * ms);
  // The stalled operation's latency includes the stall.
  EXPECT_DOUBLE_EQ(OpenLoopLedger::latency_ms(20 * ms, 37 * ms), 17.0);
  double used = 0;
  EXPECT_DOUBLE_EQ(ledger.lateness_tail_ms(used), 0.0);  // 5 samples: the median
  EXPECT_EQ(used, 50.0);
}

WindowSpec small_spec() {
  WindowSpec spec;
  spec.rib_v4 = 200;
  spec.rib_v6 = 100;
  spec.rib_peers = 8;
  spec.updates = 20'000;
  spec.owned_share = 0.3;
  spec.as_set_share = 0.01;
  spec.hijacks = 50;
  spec.burst = 2'000;
  spec.burst_hijacks = 5;
  return spec;
}

TEST(GeneratorTest, SameSeedSameBytesAndGroundTruth) {
  const UniverseSpec us{4'000, 1'000, 5, 100};
  const Universe a = make_universe(us, 7);
  const Universe b = make_universe(us, 7);
  EXPECT_EQ(universe_hash(a), universe_hash(b));
  EXPECT_NE(universe_hash(a), universe_hash(make_universe(us, 8)));
  const Window wa = make_window(a, small_spec(), 7);
  const Window wb = make_window(b, small_spec(), 7);
  EXPECT_EQ(wa.mrt, wb.mrt);
  EXPECT_EQ(gzip_bytes(wa.mrt), gzip_bytes(wb.mrt));
  ASSERT_EQ(wa.hijacks.size(), wb.hijacks.size());
  for (std::size_t i = 0; i < wa.hijacks.size(); ++i) {
    EXPECT_EQ(wa.hijacks[i].obs_index, wb.hijacks[i].obs_index);
    EXPECT_EQ(wa.hijacks[i].observed, wb.hijacks[i].observed);
    EXPECT_EQ(wa.hijacks[i].offender, wb.hijacks[i].offender);
  }
  EXPECT_NE(wa.mrt, make_window(a, small_spec(), 8).mrt);
}

TEST(GeneratorTest, ImporterAgreesWithTheGroundTruth) {
  const Universe u = make_universe({4'000, 1'000, 5, 100}, 3);
  const Window w = make_window(u, small_spec(), 3);
  ASSERT_EQ(w.hijacks.size(), 55u);
  ASSERT_GT(w.skipped_records, 0u);
  std::vector<artemis::feeds::Observation> seen;
  artemis::mrt::ObservationConverter converter;
  const auto stats = converter.convert_file(
      w.mrt, [&seen](std::span<const artemis::feeds::Observation> batch) {
        seen.insert(seen.end(), batch.begin(), batch.end());
      });
  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(stats.records, w.records);
  EXPECT_EQ(stats.observations, w.observations);
  EXPECT_EQ(stats.skipped_records, w.skipped_records);
  ASSERT_EQ(seen.size(), w.observations);

  artemis::core::Config config;
  for (std::size_t t = 0; t < u.tenant_routes.size(); ++t) {
    const auto id = config.add_tenant("t" + std::to_string(t));
    for (const auto index : u.tenant_routes[t]) {
      artemis::core::OwnedPrefix owned;
      owned.prefix = u.routes[index].prefix.to_net();
      owned.legitimate_origins = {u.routes[index].origin};
      config.add_owned(id, std::move(owned));
    }
  }
  const auto table = config.build_table();
  for (const Hijack& h : w.hijacks) {
    const auto& obs = seen[h.obs_index];
    EXPECT_EQ(obs.prefix, h.observed.to_net());
    EXPECT_EQ(obs.origin_as(), h.offender);  // AS4_PATH merge included
    EXPECT_EQ(obs.event_time.as_micros(), h.sightings_us.front());
    // Single-tenant owned space: the expected alert does not depend on
    // how overlapping tenants are tie-broken.
    const auto ref = table->match(obs.prefix);
    ASSERT_TRUE(ref.valid());
    EXPECT_EQ(ref.tenant, h.tenant);
    EXPECT_EQ(table->entry(ref).prefix, h.owned.to_net());
  }
}

}  // namespace
}  // namespace perfbench
