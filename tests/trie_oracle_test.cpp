// Differential tests: the arena-backed path-compressed PrefixTrie against
// a naive std::map<Prefix, int> oracle over random operation sequences
// (both address families, with erasures, across the stride-table
// activation threshold); the single-descent overlap query — plain and
// batched through OwnershipTable — against the two-walk reference; plus
// targeted regression tests for skip-label edge cases (sibling splits at
// bit 0, full-length keys, splits across the 64-bit key-word boundary).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "artemis/ownership.hpp"
#include "netbase/prefix_trie.hpp"
#include "util/rng.hpp"

namespace artemis::net {
namespace {

Prefix P(std::string_view s) { return Prefix::must_parse(s); }
IpAddress A(std::string_view s) { return IpAddress::parse(s).value(); }

Prefix random_v4(Rng& rng, int min_len = 0, int max_len = 32) {
  return Prefix(IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
                static_cast<int>(rng.uniform_int(min_len, max_len)));
}

Prefix random_v6(Rng& rng, int min_len = 0, int max_len = 128) {
  return Prefix(IpAddress::v6(rng.next_u64(), rng.next_u64()),
                static_cast<int>(rng.uniform_int(min_len, max_len)));
}

/// The two-walk reference for lookup_overlap: the most-specific covering
/// entry, else the first entry visit_covered reaches.
template <typename T>
const T* two_walk_overlap(const PrefixTrie<T>& trie, const Prefix& p) {
  if (const auto hit = trie.lookup_covering(p)) return hit->second;
  const T* first = nullptr;
  trie.visit_covered(p, [&](const Prefix&, const T& v) {
    if (first == nullptr) first = &v;
  });
  return first;
}

/// Longest-prefix match by linear scan over the oracle.
const std::pair<const Prefix, int>* oracle_lpm(const std::map<Prefix, int>& oracle,
                                               const IpAddress& addr) {
  const std::pair<const Prefix, int>* best = nullptr;
  for (const auto& entry : oracle) {
    if (!entry.first.contains(addr)) continue;
    if (best == nullptr || entry.first.length() > best->first.length()) {
      best = &entry;
    }
  }
  return best;
}

class TrieOracleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieOracleTest, RandomOpsMatchMapOracle) {
  Rng rng(GetParam());
  PrefixTrie<int> trie;
  std::map<Prefix, int> oracle;
  std::vector<Prefix> inserted;  // with repeats; used to pick erase targets

  // Enough v4 inserts that the stride tables activate mid-sequence, so
  // the accelerated descent paths (and their maintenance on erase) are
  // exercised against the oracle too.
  const int kOps = 4000;
  for (int op = 0; op < kOps; ++op) {
    const double dice = rng.uniform01();
    const bool v6 = rng.chance(0.25);
    if (dice < 0.70) {
      const Prefix p = v6 ? random_v6(rng, 0, 128) : random_v4(rng, 0, 32);
      const int value = static_cast<int>(rng.uniform_int(0, 1 << 20));
      const bool fresh_trie = trie.insert(p, value);
      const bool fresh_oracle = oracle.insert_or_assign(p, value).second;
      ASSERT_EQ(fresh_trie, fresh_oracle) << p.to_string();
      inserted.push_back(p);
    } else if (dice < 0.85 && !inserted.empty()) {
      const Prefix p = inserted[rng.uniform_u64(inserted.size())];
      ASSERT_EQ(trie.erase(p), oracle.erase(p) > 0) << p.to_string();
    } else {
      // Probe a prefix that may or may not be present.
      const Prefix p = v6 ? random_v6(rng, 0, 32) : random_v4(rng, 0, 16);
      const auto it = oracle.find(p);
      const int* got = trie.find(p);
      if (it == oracle.end()) {
        ASSERT_EQ(got, nullptr) << p.to_string();
      } else {
        ASSERT_NE(got, nullptr) << p.to_string();
        ASSERT_EQ(*got, it->second) << p.to_string();
      }
    }
    ASSERT_EQ(trie.size(), oracle.size());
  }

  // Longest-prefix matches agree for random addresses of both families.
  for (int i = 0; i < 2000; ++i) {
    const IpAddress addr = rng.chance(0.5)
                               ? IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64()))
                               : IpAddress::v6(rng.next_u64(), rng.next_u64());
    const auto got = trie.lookup(addr);
    const auto* want = oracle_lpm(oracle, addr);
    if (want == nullptr) {
      ASSERT_FALSE(got.has_value()) << addr.to_string();
    } else {
      ASSERT_TRUE(got.has_value()) << addr.to_string();
      EXPECT_EQ(got->first, want->first) << addr.to_string();
      EXPECT_EQ(*got->second, want->second) << addr.to_string();
    }
  }

  // lookup_covering and visit_covering agree with a filtered oracle scan.
  for (int i = 0; i < 300; ++i) {
    const Prefix scope = rng.chance(0.5) ? random_v4(rng, 0, 28) : random_v6(rng, 0, 64);
    std::vector<Prefix> got;
    trie.visit_covering(scope,
                        [&](const Prefix& p, const int&) { got.push_back(p); });
    std::vector<Prefix> want;
    for (const auto& [p, v] : oracle) {
      if (p.covers(scope)) want.push_back(p);
    }
    // visit_covering reports root-to-leaf, i.e. ascending length.
    std::sort(want.begin(), want.end(), [](const Prefix& a, const Prefix& b) {
      return a.length() < b.length();
    });
    EXPECT_EQ(got, want) << scope.to_string();

    // The single-descent overlap query equals the two walks, including
    // over subtrees that erasures left dead.
    EXPECT_EQ(trie.lookup_overlap(scope), two_walk_overlap(trie, scope))
        << scope.to_string();

    const auto covering = trie.lookup_covering(scope);
    if (want.empty()) {
      EXPECT_FALSE(covering.has_value()) << scope.to_string();
    } else {
      ASSERT_TRUE(covering.has_value()) << scope.to_string();
      EXPECT_EQ(covering->first, want.back()) << scope.to_string();
    }
  }

  // visit_covered agrees with a filtered oracle scan.
  for (int i = 0; i < 300; ++i) {
    const Prefix scope = rng.chance(0.5) ? random_v4(rng, 0, 24) : random_v6(rng, 0, 48);
    std::vector<Prefix> got;
    trie.visit_covered(scope,
                       [&](const Prefix& p, const int&) { got.push_back(p); });
    std::vector<Prefix> want;
    for (const auto& [p, v] : oracle) {
      if (scope.covers(p)) want.push_back(p);
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << scope.to_string();
    EXPECT_EQ(trie.lookup_overlap(scope), two_walk_overlap(trie, scope))
        << scope.to_string();
  }

  // visit_all enumerates exactly the oracle's entries.
  std::size_t count = 0;
  trie.visit_all([&](const Prefix& p, const int& v) {
    const auto it = oracle.find(p);
    ASSERT_NE(it, oracle.end()) << p.to_string();
    EXPECT_EQ(v, it->second);
    ++count;
  });
  EXPECT_EQ(count, oracle.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieOracleTest,
                         ::testing::Values(101, 202, 303, 404, 505));

// ------------------------------------------------- skip-label edge cases

TEST(TrieSkipLabelTest, SiblingSplitAtBitZero) {
  PrefixTrie<int> trie;
  // First insert hangs a path-compressed leaf straight off the root; the
  // second diverges at bit 0, forcing a split at the very top.
  EXPECT_TRUE(trie.insert(P("10.0.0.0/8"), 1));
  EXPECT_TRUE(trie.insert(P("192.168.0.0/16"), 2));
  EXPECT_EQ(*trie.lookup(A("10.1.2.3"))->second, 1);
  EXPECT_EQ(*trie.lookup(A("192.168.9.9"))->second, 2);
  EXPECT_FALSE(trie.lookup(A("127.0.0.1")).has_value());

  // Same at /1 granularity: the two halves of the address space.
  PrefixTrie<int> halves;
  EXPECT_TRUE(halves.insert(P("0.0.0.0/1"), 10));
  EXPECT_TRUE(halves.insert(P("128.0.0.0/1"), 11));
  EXPECT_EQ(*halves.lookup(A("1.2.3.4"))->second, 10);
  EXPECT_EQ(*halves.lookup(A("200.2.3.4"))->second, 11);
  EXPECT_EQ(halves.size(), 2u);
}

TEST(TrieSkipLabelTest, FullLengthHostKeys) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(P("10.0.0.1/32"), 1));
  EXPECT_TRUE(trie.insert(P("10.0.0.2/32"), 2));  // diverges at bit 30
  EXPECT_EQ(*trie.lookup(A("10.0.0.1"))->second, 1);
  EXPECT_EQ(*trie.lookup(A("10.0.0.2"))->second, 2);
  EXPECT_FALSE(trie.lookup(A("10.0.0.3")).has_value());

  EXPECT_TRUE(trie.insert(P("2001:db8::1/128"), 3));
  EXPECT_TRUE(trie.insert(P("2001:db8::2/128"), 4));  // diverges at bit 126
  EXPECT_EQ(*trie.lookup(A("2001:db8::1"))->second, 3);
  EXPECT_EQ(*trie.lookup(A("2001:db8::2"))->second, 4);
  EXPECT_FALSE(trie.lookup(A("2001:db8::3")).has_value());
}

TEST(TrieSkipLabelTest, AncestorSpliceOntoCompressedEdge) {
  PrefixTrie<int> trie;
  // The /24 leaf hangs on a long skip-label edge; inserting the /8
  // afterwards must splice a node into the middle of that edge.
  trie.insert(P("10.20.30.0/24"), 24);
  EXPECT_TRUE(trie.insert(P("10.0.0.0/8"), 8));
  EXPECT_EQ(*trie.lookup(A("10.20.30.5"))->second, 24);
  EXPECT_EQ(*trie.lookup(A("10.99.99.99"))->second, 8);
  // And a divergence below the splice point still resolves correctly.
  EXPECT_TRUE(trie.insert(P("10.20.40.0/24"), 40));
  EXPECT_EQ(*trie.lookup(A("10.20.40.1"))->second, 40);
  EXPECT_EQ(*trie.lookup(A("10.20.30.1"))->second, 24);
  EXPECT_EQ(trie.size(), 3u);
}

TEST(TrieSkipLabelTest, SplitAcrossWordBoundary) {
  PrefixTrie<int> trie;
  // Both keys share the first 68 bits; the divergence sits in the low
  // 64-bit word of the key, exercising the two-word compare.
  const auto base = P("2001:db8::/64");
  trie.insert(base, 64);
  EXPECT_TRUE(trie.insert(P("2001:db8:0:0:0800::/70"), 70));
  EXPECT_TRUE(trie.insert(P("2001:db8:0:0:0c00::/70"), 71));  // diverges at bit 69
  EXPECT_EQ(*trie.lookup(A("2001:db8::0800:0:0:1"))->second, 70);
  EXPECT_EQ(*trie.lookup(A("2001:db8::0c00:0:0:1"))->second, 71);
  EXPECT_EQ(*trie.lookup(A("2001:db8::1"))->second, 64);
  EXPECT_EQ(trie.size(), 3u);
}

TEST(TrieSkipLabelTest, EraseKeepsCompressedStructureUsable) {
  PrefixTrie<int> trie;
  trie.insert(P("10.0.0.0/8"), 8);
  trie.insert(P("10.0.0.0/24"), 24);
  trie.insert(P("10.0.0.0/30"), 30);
  EXPECT_TRUE(trie.erase(P("10.0.0.0/24")));
  EXPECT_EQ(*trie.lookup(A("10.0.0.1"))->second, 30);
  EXPECT_EQ(*trie.lookup(A("10.0.0.9"))->second, 8);  // /24 gone, falls to /8
  // Reinsertion reuses the dead node.
  EXPECT_TRUE(trie.insert(P("10.0.0.0/24"), 240));
  EXPECT_EQ(*trie.lookup(A("10.0.0.9"))->second, 240);
}

TEST(TrieSkipLabelTest, StrideTableActivationPreservesSemantics) {
  // Push one trie across the table-activation threshold and spot-check
  // lookups straddling the boundary, including erase maintenance after
  // activation.
  PrefixTrie<int> trie;
  std::map<Prefix, int> oracle;
  Rng rng(7);
  for (int i = 0; i < 1500; ++i) {
    const Prefix p = random_v4(rng, 8, 28);
    trie.insert(p, i);
    oracle.insert_or_assign(p, i);
  }
  // Erase a sampled subset after the tables are live.
  std::vector<Prefix> victims;
  int k = 0;
  for (const auto& [p, v] : oracle) {
    if (++k % 7 == 0) victims.push_back(p);
  }
  for (const auto& p : victims) {
    EXPECT_TRUE(trie.erase(p));
    oracle.erase(p);
  }
  for (int i = 0; i < 3000; ++i) {
    const IpAddress addr = IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64()));
    const auto got = trie.lookup(addr);
    const auto* want = oracle_lpm(oracle, addr);
    if (want == nullptr) {
      ASSERT_FALSE(got.has_value()) << addr.to_string();
    } else {
      ASSERT_TRUE(got.has_value()) << addr.to_string();
      EXPECT_EQ(got->first, want->first) << addr.to_string();
    }
  }
}


// ------------------------------------------ overlap query vs two walks

// Dense blocks that no random entry overlaps, so queries above their
// entries have no covering entry and must answer with the first covered
// one (the super-prefix case).
const Prefix kDense4 = Prefix::must_parse("10.0.0.0/8");
const Prefix kDense6 = Prefix::must_parse("2001:db8::/32");

Prefix random_in(Rng& rng, const Prefix& block, int min_len, int max_len) {
  const int len = static_cast<int>(rng.uniform_int(min_len, max_len));
  const auto [hi, lo] = block.address().words();
  const std::uint64_t keep = ~0ULL << (64 - block.length());
  const std::uint64_t r = rng.next_u64();
  const IpAddress addr =
      block.is_v4()
          ? IpAddress::v4(static_cast<std::uint32_t>(((hi & keep) | (r & ~keep)) >> 32))
          : IpAddress::v6((hi & keep) | (r & ~keep), rng.next_u64());
  return Prefix(addr, len);
}

/// A table of `n` entries of mixed lengths: 60% v4, 40% v6; a quarter of
/// each family packed into its dense block, the rest spread out.
std::vector<Prefix> overlap_table(Rng& rng, std::size_t n) {
  std::vector<Prefix> out;
  out.reserve(n);
  while (out.size() < n) {
    const bool v4 = rng.chance(0.6);
    const Prefix& dense = v4 ? kDense4 : kDense6;
    if (rng.chance(0.25)) {
      out.push_back(v4 ? random_in(rng, dense, 20, 32) : random_in(rng, dense, 40, 128));
      continue;
    }
    const Prefix p = v4 ? random_v4(rng, 8, 32) : random_v6(rng, 16, 128);
    if (!p.overlaps(dense)) out.push_back(p);
  }
  return out;
}

/// Queries: random prefixes of both families, super-prefixes of the dense
/// blocks' entries, stored entries, and stored entries made longer or
/// shorter.
std::vector<Prefix> overlap_queries(Rng& rng, const std::vector<Prefix>& table,
                                    std::size_t n) {
  std::vector<Prefix> out;
  out.reserve(n);
  while (out.size() < n) {
    const double dice = rng.uniform01();
    if (dice < 0.3) {
      out.push_back(rng.chance(0.5) ? random_v4(rng, 4, 32) : random_v6(rng, 8, 128));
    } else if (dice < 0.55) {
      out.push_back(rng.chance(0.5) ? random_in(rng, kDense4, 9, 19)
                                    : random_in(rng, kDense6, 33, 39));
    } else {
      const Prefix& p = table[rng.uniform_u64(table.size())];
      const int max_len = p.is_v4() ? 32 : 128;
      const int len = dice < 0.7 ? p.length()
                                 : static_cast<int>(rng.uniform_int(0, max_len));
      out.push_back(Prefix(p.address(), len));
    }
  }
  return out;
}

class OverlapOracleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OverlapOracleTest, SingleAndBatchedQueriesEqualTwoWalks) {
  const std::size_t size = GetParam();
  Rng rng(size);
  const std::vector<Prefix> table = overlap_table(rng, size);
  PrefixTrie<std::uint32_t> trie;
  std::vector<core::OwnedPrefix> owned;
  for (std::size_t i = 0; i < table.size(); ++i) {
    trie.insert(table[i], static_cast<std::uint32_t>(i));
    core::OwnedPrefix entry;
    entry.prefix = table[i];
    entry.legitimate_origins = {65001};  // the table requires one
    entry.tenant = static_cast<core::TenantId>(i % 3);
    owned.push_back(std::move(entry));
  }
  std::vector<core::TenantInfo> tenants(3);
  for (core::TenantId t = 0; t < 3; ++t) tenants[t].id = t;
  const core::OwnershipTable ownership(std::move(owned), std::move(tenants));

  const std::vector<Prefix> queries = overlap_queries(rng, table, 3000);
  std::vector<core::OwnershipRef> want(queries.size());
  std::size_t covered_answers = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint32_t* ref = two_walk_overlap(trie, queries[i]);
    ASSERT_EQ(trie.lookup_overlap(queries[i]), ref) << queries[i].to_string();
    if (ref != nullptr) {
      want[i] = {*ref, ownership.owned()[*ref].tenant};
      if (!trie.lookup_covering(queries[i])) ++covered_answers;
    }
    ASSERT_EQ(ownership.match(queries[i]), want[i]) << queries[i].to_string();
  }
  EXPECT_GT(covered_answers, 0u) << "no query exercised the covered-entry answer";

  // Batched, in chunks around the lane count and across the whole stream.
  constexpr std::size_t kLanes = core::OwnershipTable::kBatchLanes;
  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}, kLanes - 1, kLanes + 1,
                                  3 * kLanes + 5, queries.size()}) {
    std::vector<core::OwnershipRef> got(queries.size());
    const std::span<const Prefix> all(queries);
    if (chunk == 0) {
      ownership.match_batch(all.first(0), std::span<core::OwnershipRef>(got).first(0));
      continue;
    }
    for (std::size_t i = 0; i < queries.size(); i += chunk) {
      const std::size_t n = std::min(chunk, queries.size() - i);
      ownership.match_batch(all.subspan(i, n), std::span(got).subspan(i, n));
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "chunk=" << chunk << " " << queries[i].to_string();
    }
  }
}

// Sizes straddle the v4 stride activations (1024 and 65536 nodes), the
// first two v6 cascade steps (1024 and 16384 nodes) and
// OwnershipTable::kInterleaveMinEntries.
INSTANTIATE_TEST_SUITE_P(TableSizes, OverlapOracleTest,
                         ::testing::Values(std::size_t{300}, std::size_t{3000},
                                           std::size_t{6000}, std::size_t{80000}));

}  // namespace
}  // namespace artemis::net
