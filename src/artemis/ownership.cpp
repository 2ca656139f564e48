#include "artemis/ownership.hpp"

#include <array>

namespace artemis::core {

namespace {
/// Process-wide snapshot version source. Starts at 1 so 0 can mean
/// "no table seen yet".
std::atomic<std::uint64_t> g_next_version{1};
}  // namespace

OwnershipTable::OwnershipTable(std::vector<OwnedPrefix> owned,
                               std::vector<TenantInfo> tenants)
    : owned_(std::move(owned)),
      tenants_(std::move(tenants)),
      version_(g_next_version.fetch_add(1, std::memory_order_relaxed)) {
  for (std::size_t i = 0; i < owned_.size(); ++i) {
    index_.insert(owned_[i].prefix, static_cast<std::uint32_t>(i));
  }
  for (const auto& tenant : tenants_) {
    if (tenant.mitigation.auto_mitigate) any_auto_mitigate_ = true;
  }
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
          __builtin_prefetch(&owned_[lane.entry].tenant);
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

OwnershipStore::OwnershipStore(std::shared_ptr<const OwnershipTable> initial)
    : table_(std::move(initial)) {}

std::shared_ptr<const OwnershipTable> OwnershipStore::snapshot() const {
  const std::scoped_lock lock(mutex_);
  return table_;
}

void OwnershipStore::publish(std::shared_ptr<const OwnershipTable> table) {
  {
    const std::scoped_lock lock(mutex_);
    table_ = std::move(table);
  }
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace artemis::core
