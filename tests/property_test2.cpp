// Second property suite: cross-checks of whole components against naive
// reference implementations, plus end-to-end experiment invariants swept
// over seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

#include "artemis/experiment.hpp"
#include "json/json.hpp"
#include "rpki/roa.hpp"
#include "topology/generator.hpp"
#include "util/stats.hpp"

namespace artemis {
namespace {

class SeededProperty2 : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng{GetParam()};
};

// ----------------------------------------- as-rel serialize/parse identity

using GraphRoundTrip = SeededProperty2;

TEST_P(GraphRoundTrip, SerializeParsePreservesStructure) {
  topo::GeneratorParams params;
  params.tier1_count = 3 + static_cast<int>(rng.uniform_int(0, 4));
  params.tier2_count = static_cast<int>(rng.uniform_int(5, 40));
  params.stub_count = static_cast<int>(rng.uniform_int(10, 120));
  auto topo_rng = rng.fork("topo");
  const auto graph = topo::generate_topology(params, topo_rng);

  const auto parsed = topo::AsGraph::parse(graph.serialize());
  EXPECT_EQ(parsed.as_count(), graph.as_count());
  EXPECT_EQ(parsed.link_count(), graph.link_count());
  for (const auto asn : graph.all_ases()) {
    for (const auto& neighbor : graph.neighbors(asn)) {
      EXPECT_EQ(parsed.relationship(asn, neighbor.asn), neighbor.relationship)
          << asn << "-" << neighbor.asn;
    }
  }
  // Serialization is stable: a second round-trip produces identical text.
  EXPECT_EQ(parsed.serialize(), topo::AsGraph::parse(parsed.serialize()).serialize());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphRoundTrip, ::testing::Values(60, 61, 62, 63));

// -------------------------------------------------- ROA table vs naive scan

using RoaVsNaive = SeededProperty2;

TEST_P(RoaVsNaive, ValidateMatchesLinearReference) {
  std::vector<rpki::Roa> roas;
  rpki::RoaTable table;
  for (int i = 0; i < 120; ++i) {
    rpki::Roa roa;
    roa.prefix = net::Prefix(net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
                             static_cast<int>(rng.uniform_int(8, 24)));
    roa.asn = static_cast<bgp::Asn>(rng.uniform_int(1, 20));
    const int slack = static_cast<int>(rng.uniform_int(0, 4));
    roa.max_length = std::min(32, roa.prefix.length() + slack);
    roas.push_back(roa);
    table.add(roa);
  }
  auto naive_validate = [&roas](const net::Prefix& p, bgp::Asn origin) {
    bool any = false;
    bool valid = false;
    for (const auto& roa : roas) {
      if (!roa.prefix.covers(p)) continue;
      any = true;
      if (roa.asn == origin && p.length() <= roa.effective_max_length()) valid = true;
    }
    if (!any) return rpki::Validity::kNotFound;
    return valid ? rpki::Validity::kValid : rpki::Validity::kInvalid;
  };
  for (int i = 0; i < 3000; ++i) {
    const net::Prefix p(net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
                        static_cast<int>(rng.uniform_int(8, 28)));
    const auto origin = static_cast<bgp::Asn>(rng.uniform_int(1, 20));
    ASSERT_EQ(table.validate(p, origin), naive_validate(p, origin))
        << p.to_string() << " origin " << origin;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoaVsNaive, ::testing::Values(70, 71, 72, 73));

// --------------------------------------------------- Summary vs naive stats

using SummaryVsNaive = SeededProperty2;

TEST_P(SummaryVsNaive, MomentsMatchDirectComputation) {
  Summary summary;
  std::vector<double> xs;
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 2000));
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 5.0);
    xs.push_back(x);
    summary.add(x);
  }
  double sum = 0.0;
  for (const double x : xs) sum += x;
  const double mean = sum / n;
  EXPECT_NEAR(summary.mean(), mean, 1e-9);
  EXPECT_NEAR(summary.min(), *std::min_element(xs.begin(), xs.end()), 0);
  EXPECT_NEAR(summary.max(), *std::max_element(xs.begin(), xs.end()), 0);
  if (n >= 2) {
    double acc = 0.0;
    for (const double x : xs) acc += (x - mean) * (x - mean);
    EXPECT_NEAR(summary.stddev(), std::sqrt(acc / (n - 1)), 1e-9);
  }
  // Percentiles bracket the data and are monotone in q.
  double previous = summary.percentile(0);
  for (int q = 5; q <= 100; q += 5) {
    const double value = summary.percentile(q);
    EXPECT_GE(value, previous);
    previous = value;
  }
  // CDF of the median is ~0.5 for odd n of distinct values.
  EXPECT_NEAR(summary.cdf_at(summary.median()), 0.5, 0.5001 / n + 0.51);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SummaryVsNaive, ::testing::Values(80, 81, 82));

// ------------------------------------------------------- JSON fuzz round-trip

json::Value random_json(Rng& rng, int depth) {
  const auto kind = rng.uniform_int(0, depth <= 0 ? 3 : 5);
  switch (kind) {
    case 0: return json::Value(nullptr);
    case 1: return json::Value(rng.chance(0.5));
    case 2: {
      if (rng.chance(0.5)) return json::Value(rng.uniform_int(-1000000, 1000000));
      return json::Value(rng.normal(0, 1000));
    }
    case 3: {
      std::string s;
      const auto len = rng.uniform_int(0, 12);
      for (int i = 0; i < len; ++i) {
        // Printable ASCII plus the escapes.
        const char options[] = "abcXYZ 012\"\\\n\t/";
        s += options[rng.uniform_u64(sizeof(options) - 1)];
      }
      return json::Value(std::move(s));
    }
    case 4: {
      json::Array arr;
      const auto len = rng.uniform_int(0, 6);
      for (int i = 0; i < len; ++i) arr.push_back(random_json(rng, depth - 1));
      return json::Value(std::move(arr));
    }
    default: {
      json::Object obj;
      const auto len = rng.uniform_int(0, 6);
      for (int i = 0; i < len; ++i) {
        std::string key = "k";
        key += std::to_string(rng.uniform_int(0, 20));
        obj[key] = random_json(rng, depth - 1);
      }
      return json::Value(std::move(obj));
    }
  }
}

using JsonFuzz = SeededProperty2;

TEST_P(JsonFuzz, DumpParseIsIdentity) {
  for (int i = 0; i < 200; ++i) {
    const auto original = random_json(rng, 4);
    const auto compact = json::parse(original.dump());
    EXPECT_EQ(compact, original);
    const auto pretty = json::parse(original.dump(2));
    EXPECT_EQ(pretty, original);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz, ::testing::Values(90, 91, 92, 93));

// ------------------------------------------- end-to-end experiment invariants

using ExperimentInvariants = SeededProperty2;

TEST_P(ExperimentInvariants, TimingAndTimelineInvariantsHold) {
  topo::GeneratorParams topo_params;
  topo_params.tier1_count = 5;
  topo_params.tier2_count = 25;
  topo_params.stub_count = 100;
  auto topo_rng = rng.fork("topo");
  const auto graph = topo::generate_topology(topo_params, topo_rng);
  const auto stubs = graph.ases_in_tier(topo::Tier::kStub);

  core::ExperimentParams params;
  params.victim = stubs[rng.uniform_u64(stubs.size())];
  do {
    params.attacker = stubs[rng.uniform_u64(stubs.size())];
  } while (params.attacker == params.victim);
  params.victim_prefix = net::Prefix::must_parse("10.0.0.0/23");
  params.horizon = SimDuration::minutes(20);

  core::HijackExperiment experiment(graph, sim::NetworkParams{}, params,
                                    rng.fork("exp"));
  const auto result = experiment.run();

  // Event ordering: hijack <= detected <= applied <= converged.
  ASSERT_TRUE(result.detected_at.has_value());
  EXPECT_GE(*result.detected_at, result.hijack_at);
  ASSERT_TRUE(result.announcements_applied_at.has_value());
  EXPECT_GE(*result.announcements_applied_at, *result.detected_at);
  if (result.truth_converged_at) {
    EXPECT_GE(*result.truth_converged_at, *result.announcements_applied_at);
  }
  // Fractions stay within [0, 1]; timeline times are non-decreasing.
  SimTime previous = SimTime::zero();
  for (const auto& sample : result.timeline) {
    EXPECT_GE(sample.truth_fraction, 0.0);
    EXPECT_LE(sample.truth_fraction, 1.0);
    EXPECT_GE(sample.feed_fraction, 0.0);
    EXPECT_LE(sample.feed_fraction, 1.0);
    EXPECT_GE(sample.when, previous);
    previous = sample.when;
  }
  EXPECT_LE(result.max_hijacked_fraction, 1.0);
  EXPECT_LE(result.max_hijacked_impact, 1.0);
  // Detection-by-source entries can never precede the hijack.
  for (const auto& [source, when] : result.detection_by_source) {
    EXPECT_GE(when, result.hijack_at) << source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExperimentInvariants,
                         ::testing::Values(100, 101, 102, 103, 104, 105));

}  // namespace
}  // namespace artemis
