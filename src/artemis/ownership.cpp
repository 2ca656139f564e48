#include "artemis/ownership.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <stdexcept>

namespace artemis::core {

namespace {
/// Process-wide snapshot version source. Starts at 1 so 0 can mean
/// "no table seen yet".
std::atomic<std::uint64_t> g_next_version{1};
}  // namespace

OwnershipTable::OwnershipTable(std::span<const OwnedPrefix> owned,
                               std::vector<TenantInfo> tenants)
    : tenants_(std::move(tenants)),
      version_(g_next_version.fetch_add(1, std::memory_order_relaxed)) {
  owned_.reserve(owned.size());
  extras_.reserve(owned.size());
  asns_.push_back(bgp::kNoAsn);  // offset 0 means "no extras"
  for (const OwnedPrefix& declared : owned) {
    if (declared.legitimate_origins.empty()) {
      throw std::invalid_argument("owned prefix " + declared.prefix.to_string() +
                                  " needs at least one legitimate origin");
    }
    const bgp::Asn first = *declared.legitimate_origins.begin();
    owned_.push_back(OwnedEntry{declared.prefix, declared.tenant, first});
    const std::size_t more = declared.legitimate_origins.size() - 1;
    if (more == 0 && declared.legitimate_neighbors.empty()) {
      extras_.push_back(0);
      continue;
    }
    extras_.push_back(static_cast<std::uint32_t>(asns_.size()));
    asns_.push_back(static_cast<bgp::Asn>(more));
    asns_.push_back(static_cast<bgp::Asn>(declared.legitimate_neighbors.size()));
    asns_.insert(asns_.end(), std::next(declared.legitimate_origins.begin()),
                 declared.legitimate_origins.end());
    asns_.insert(asns_.end(), declared.legitimate_neighbors.begin(),
                 declared.legitimate_neighbors.end());
  }
  asns_.shrink_to_fit();
  for (std::size_t i = 0; i < owned_.size(); ++i) {
    index_.insert(owned_[i].prefix, static_cast<std::uint32_t>(i));
  }
  for (const auto& tenant : tenants_) {
    if (tenant.mitigation.auto_mitigate) any_auto_mitigate_ = true;
  }
}

std::span<const bgp::Asn> OwnershipTable::extra_origins(std::uint32_t entry) const {
  const std::uint32_t at = extras_[entry];
  if (at == 0) return {};
  return {asns_.data() + at + 2, asns_[at]};
}

std::span<const bgp::Asn> OwnershipTable::legitimate_neighbors(
    std::uint32_t entry) const {
  const std::uint32_t at = extras_[entry];
  if (at == 0) return {};
  return {asns_.data() + at + 2 + asns_[at], asns_[at + 1]};
}

bool OwnershipTable::contains(std::span<const bgp::Asn> sorted, bgp::Asn asn) {
  return std::binary_search(sorted.begin(), sorted.end(), asn);
}

OwnershipRef OwnershipTable::match(const net::Prefix& p) const {
  const std::uint32_t* idx = index_.lookup_overlap(p);
  return idx != nullptr ? OwnershipRef{*idx, owned_[*idx].tenant} : OwnershipRef{};
}

void OwnershipTable::match_batch(std::span<const net::Prefix> prefixes,
                                 std::span<OwnershipRef> out) const {
  if (!interleaves()) {
    for (std::size_t i = 0; i < prefixes.size(); ++i) out[i] = match(prefixes[i]);
    return;
  }
  // Round-robin over the lanes: each visit advances one lane by one
  // dependent access (stride slot, trie node, value slot, owned entry)
  // and prefetches the next, so a lane's miss is in flight while the
  // others work. A finished lane takes the next query.
  struct Lane {
    net::PrefixTrie<std::uint32_t>::OverlapCursor cursor;
    std::size_t query = 0;
    std::uint32_t entry = OwnershipRef::kInvalidEntry;  ///< set once the trie answered
  };
  std::array<Lane, kBatchLanes> lanes;
  std::size_t active = 0;
  std::size_t next = 0;
  const auto start = [&](Lane& lane) {
    lane.query = next++;
    lane.entry = OwnershipRef::kInvalidEntry;
    __builtin_prefetch(index_.overlap_begin(prefixes[lane.query], lane.cursor));
  };
  while (active < kBatchLanes && next < prefixes.size()) start(lanes[active++]);
  while (active > 0) {
    for (std::size_t l = 0; l < active;) {
      Lane& lane = lanes[l];
      if (lane.entry == OwnershipRef::kInvalidEntry) {
        if (const void* addr = index_.overlap_step(lane.cursor)) {
          __builtin_prefetch(addr);
          ++l;
          continue;
        }
        if (const std::uint32_t* idx = lane.cursor.result()) {
          lane.entry = *idx;
          __builtin_prefetch(&owned_[lane.entry]);
          ++l;
          continue;
        }
        out[lane.query] = OwnershipRef{};
      } else {
        out[lane.query] = OwnershipRef{lane.entry, owned_[lane.entry].tenant};
      }
      if (next < prefixes.size()) {
        start(lane);
        ++l;
      } else {
        lane = lanes[--active];  // revisit slot l: it now holds the last lane
      }
    }
  }
}

}  // namespace artemis::core
