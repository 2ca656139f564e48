#include <gtest/gtest.h>

#include <map>
#include <string>

#include "netbase/prefix_trie.hpp"

namespace artemis::net {
namespace {

Prefix P(std::string_view s) { return Prefix::must_parse(s); }
IpAddress A(std::string_view s) { return IpAddress::parse(s).value(); }

TEST(PrefixTrieTest, InsertFindErase) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_TRUE(trie.insert(P("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(P("10.0.0.0/8"), 2));  // overwrite, not new
  EXPECT_EQ(trie.size(), 1u);
  ASSERT_NE(trie.find(P("10.0.0.0/8")), nullptr);
  EXPECT_EQ(*trie.find(P("10.0.0.0/8")), 2);
  EXPECT_EQ(trie.find(P("10.0.0.0/9")), nullptr);
  EXPECT_TRUE(trie.erase(P("10.0.0.0/8")));
  EXPECT_FALSE(trie.erase(P("10.0.0.0/8")));
  EXPECT_TRUE(trie.empty());
}

TEST(PrefixTrieTest, RootPrefixStorable) {
  PrefixTrie<int> trie;
  trie.insert(P("0.0.0.0/0"), 7);
  const auto hit = trie.lookup(A("203.0.113.9"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->first, P("0.0.0.0/0"));
  EXPECT_EQ(*hit->second, 7);
}

TEST(PrefixTrieTest, LongestPrefixMatchPrefersSpecific) {
  PrefixTrie<std::string> trie;
  trie.insert(P("10.0.0.0/8"), "eight");
  trie.insert(P("10.0.0.0/23"), "twentythree");
  trie.insert(P("10.0.1.0/24"), "twentyfour");

  EXPECT_EQ(*trie.lookup(A("10.0.1.50"))->second, "twentyfour");
  EXPECT_EQ(*trie.lookup(A("10.0.0.50"))->second, "twentythree");
  EXPECT_EQ(*trie.lookup(A("10.99.0.1"))->second, "eight");
  EXPECT_FALSE(trie.lookup(A("11.0.0.1")).has_value());
}

TEST(PrefixTrieTest, LookupReturnsMatchedPrefix) {
  PrefixTrie<int> trie;
  trie.insert(P("192.168.0.0/16"), 1);
  const auto hit = trie.lookup(A("192.168.42.1"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->first, P("192.168.0.0/16"));
}

TEST(PrefixTrieTest, LookupSkipsErasedMiddle) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 8);
  trie.insert(P("10.0.0.0/16"), 16);
  trie.insert(P("10.0.0.0/24"), 24);
  trie.erase(P("10.0.0.0/16"));
  EXPECT_EQ(*trie.lookup(A("10.0.0.1"))->second, 24);
  EXPECT_EQ(*trie.lookup(A("10.0.1.1"))->second, 8);  // /16 gone, falls to /8
}

TEST(PrefixTrieTest, LookupCoveringFindsMostSpecificAncestor) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 8);
  trie.insert(P("10.0.0.0/23"), 23);
  const auto hit = trie.lookup_covering(P("10.0.0.0/24"));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->first, P("10.0.0.0/23"));
  // Exact match counts as covering.
  EXPECT_EQ(trie.lookup_covering(P("10.0.0.0/23"))->first, P("10.0.0.0/23"));
  EXPECT_FALSE(trie.lookup_covering(P("11.0.0.0/24")).has_value());
}

TEST(PrefixTrieTest, VisitCoveredEnumeratesSubtree) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/23"), 1);
  trie.insert(P("10.0.0.0/24"), 2);
  trie.insert(P("10.0.1.0/24"), 3);
  trie.insert(P("10.0.2.0/24"), 4);  // outside /23
  trie.insert(P("10.0.0.0/8"), 5);   // above /23

  std::map<std::string, int> seen;
  trie.visit_covered(P("10.0.0.0/23"),
                     [&](const Prefix& p, const int& v) { seen[p.to_string()] = v; });
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen.at("10.0.0.0/23"), 1);
  EXPECT_EQ(seen.at("10.0.0.0/24"), 2);
  EXPECT_EQ(seen.at("10.0.1.0/24"), 3);
}

TEST(PrefixTrieTest, VisitCoveringWalksAncestors) {
  PrefixTrie<int> trie;
  trie.insert(P("0.0.0.0/0"), 0);
  trie.insert(P("10.0.0.0/8"), 8);
  trie.insert(P("10.0.0.0/16"), 16);
  trie.insert(P("10.0.0.0/24"), 24);
  trie.insert(P("10.0.0.0/28"), 28);  // more specific: not covering /24
  trie.insert(P("10.1.0.0/16"), 99);  // sibling: not covering

  std::vector<int> seen;
  trie.visit_covering(P("10.0.0.0/24"),
                      [&](const Prefix&, const int& v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{0, 8, 16, 24}));  // root-to-leaf order
}

TEST(PrefixTrieTest, VisitCoveringNoAncestors) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/24"), 1);
  int count = 0;
  trie.visit_covering(P("11.0.0.0/24"), [&](const Prefix&, const int&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(PrefixTrieTest, VisitAllBothFamilies) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("2001:db8::/32"), 2);
  int count = 0;
  trie.visit_all([&](const Prefix&, const int&) { ++count; });
  EXPECT_EQ(count, 2);
}

TEST(PrefixTrieTest, FamiliesAreIsolated) {
  PrefixTrie<int> trie;
  trie.insert(P("::/0"), 6);
  EXPECT_FALSE(trie.lookup(A("1.2.3.4")).has_value());
  trie.insert(P("0.0.0.0/0"), 4);
  EXPECT_EQ(*trie.lookup(A("1.2.3.4"))->second, 4);
  EXPECT_EQ(*trie.lookup(A("2001:db8::1"))->second, 6);
}

TEST(PrefixTrieTest, HostRoutesWork) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.1/32"), 1);
  EXPECT_EQ(*trie.lookup(A("10.0.0.1"))->second, 1);
  EXPECT_FALSE(trie.lookup(A("10.0.0.2")).has_value());
}

TEST(PrefixTrieTest, ClearResets) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  trie.insert(P("2001:db8::/32"), 2);
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_FALSE(trie.lookup(A("10.1.2.3")).has_value());
}

TEST(PrefixTrieTest, EraseOnlyRemovesExact) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 8);
  trie.insert(P("10.0.0.0/16"), 16);
  EXPECT_FALSE(trie.erase(P("10.0.0.0/12")));  // never inserted
  EXPECT_TRUE(trie.erase(P("10.0.0.0/8")));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.lookup(A("10.0.0.1"))->second, 16);
}

TEST(PrefixTrieTest, ReinsertAfterErase) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/24"), 1);
  trie.erase(P("10.0.0.0/24"));
  EXPECT_TRUE(trie.insert(P("10.0.0.0/24"), 2));
  EXPECT_EQ(*trie.find(P("10.0.0.0/24")), 2);
}

TEST(PrefixTrieTest, MoveOnlyValues) {
  PrefixTrie<std::unique_ptr<int>> trie;
  trie.insert(P("10.0.0.0/8"), std::make_unique<int>(42));
  ASSERT_NE(trie.find(P("10.0.0.0/8")), nullptr);
  EXPECT_EQ(**trie.find(P("10.0.0.0/8")), 42);
}

TEST(PrefixTrieTest, VisitCoveredOnMissingSubtreeIsNoop) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 1);
  int count = 0;
  trie.visit_covered(P("11.0.0.0/8"), [&](const Prefix&, const int&) { ++count; });
  EXPECT_EQ(count, 0);
}

// ------------------------------------------------- IPv6 stride cascade

TEST(PrefixTrieV6CascadeTest, CascadeMatchesPathOnlyAcrossActivation) {
  // Grow a v6 trie through the first activation threshold (1024 nodes)
  // with a tables-disabled twin as the oracle; lookups, finds and
  // covering queries must agree at every checkpoint straddling the
  // boundary.
  PrefixTrie<int> cascade;
  PrefixTrie<int> path_only;
  path_only.set_stride_tables_enabled(false);

  std::uint64_t state = 1;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
  };
  static constexpr std::uint64_t kBlocks[] = {0x2001, 0x2400, 0x2600, 0x2a00};
  std::vector<Prefix> inserted;
  std::vector<IpAddress> probes;
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t hi = (kBlocks[next() & 3] << 48) | (next() & 0xFFFFFFFFFFFFull);
    probes.push_back(IpAddress::from_words(IpFamily::kIpv6, hi, next()));
  }
  for (int i = 0; i < 1500; ++i) {
    const std::uint64_t hi = (kBlocks[next() & 3] << 48) | (next() & 0xFFFFFFFFFFFFull);
    const int len = 32 + static_cast<int>(next() % 17);
    const Prefix p(IpAddress::from_words(IpFamily::kIpv6, hi, next()), len);
    cascade.insert(p, i);
    path_only.insert(p, i);
    inserted.push_back(p);
    // Checkpoints bracketing the 1024-node activation boundary, plus the
    // end state.
    if (i % 250 == 0 || i == 1499) {
      for (const auto& probe : probes) {
        const auto a = cascade.lookup(probe);
        const auto b = path_only.lookup(probe);
        ASSERT_EQ(a.has_value(), b.has_value()) << "i=" << i;
        if (a) {
          EXPECT_EQ(a->first, b->first) << "i=" << i;
          EXPECT_EQ(*a->second, *b->second) << "i=" << i;
        }
      }
    }
  }
  EXPECT_EQ(cascade.size(), path_only.size());
  // Exact finds and erases stay consistent with tables active.
  for (std::size_t i = 0; i < inserted.size(); i += 7) {
    const int* a = cascade.find(inserted[i]);
    const int* b = path_only.find(inserted[i]);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(cascade.erase(inserted[i]), path_only.erase(inserted[i]));
  }
  for (const auto& probe : probes) {
    const auto a = cascade.lookup(probe);
    const auto b = path_only.lookup(probe);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->first, b->first);
    }
  }
}

TEST(PrefixTrieV6CascadeTest, DefaultRouteAndHostRouteWithTablesActive) {
  PrefixTrie<int> trie;
  // Activate the v6 cascade with filler /48s.
  std::uint64_t state = 7;
  for (int i = 0; i < 1200; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    trie.insert(Prefix(IpAddress::from_words(IpFamily::kIpv6,
                                             (0x2001ull << 48) | (state >> 16), 0),
                       48),
                i);
  }
  // /0 inserted AFTER activation: its table range is every slot.
  trie.insert(P("::/0"), -1);
  // /128 host route.
  trie.insert(P("2001:db8::1/128"), 1281);

  // An address in no filler block falls back to the default route.
  const auto miss = trie.lookup(A("fd00::1"));
  ASSERT_TRUE(miss.has_value());
  EXPECT_EQ(miss->first, P("::/0"));
  EXPECT_EQ(*miss->second, -1);

  // The /128 wins over the /0 for its exact address.
  const auto host = trie.lookup(A("2001:db8::1"));
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->first, P("2001:db8::1/128"));
  EXPECT_EQ(*host->second, 1281);

  // Erasing the /0 with tables active restores misses.
  EXPECT_TRUE(trie.erase(P("::/0")));
  EXPECT_FALSE(trie.lookup(A("fd00::1")).has_value());
}

TEST(PrefixTrieV6CascadeTest, MixedFamilyTrieKeepsFamiliesIsolated) {
  PrefixTrie<int> trie;
  std::uint64_t state = 3;
  const auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
  };
  // Push BOTH families past their activation thresholds in one trie.
  for (int i = 0; i < 1500; ++i) {
    trie.insert(Prefix(IpAddress::v4(static_cast<std::uint32_t>(next())),
                       8 + static_cast<int>(next() % 17)),
                i);
    trie.insert(Prefix(IpAddress::from_words(IpFamily::kIpv6,
                                             (0x2600ull << 48) | (next() >> 16),
                                             next()),
                       32 + static_cast<int>(next() % 17)),
                i);
  }
  trie.insert(P("10.0.0.0/8"), 4001);
  trie.insert(P("2001:db8::/32"), 6001);
  // Same-numeric-bits keys in the other family must not collide.
  const auto v4 = trie.lookup(A("10.1.2.3"));
  ASSERT_TRUE(v4.has_value());
  EXPECT_TRUE(v4->first.is_v4());
  const auto v6 = trie.lookup(A("2001:db8::42"));
  ASSERT_TRUE(v6.has_value());
  EXPECT_FALSE(v6->first.is_v4());
  EXPECT_EQ(*v6->second, 6001);
  // visit_all sees both families once each.
  std::size_t visited = 0;
  trie.visit_all([&](const Prefix&, const int&) { ++visited; });
  EXPECT_EQ(visited, trie.size());
}

}  // namespace
}  // namespace artemis::net
