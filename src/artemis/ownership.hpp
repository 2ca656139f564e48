// Multi-tenant ownership: the shared ground-truth table behind detection.
//
// The paper's system monitors one operator's prefixes; the shared
// pipeline serves many tenants — every AS a potential customer — from
// ONE immutable snapshot:
//
//   * OwnershipTable — a frozen, arena-trie-backed snapshot of every
//     owned prefix across every tenant. A lookup is one descent of the
//     same path-compressed trie the RIBs use, so its cost is independent
//     of the tenant count; a batch of lookups interleaves its descents
//     once the table outgrows the cache. Immutable by construction:
//     build it (from a Config), publish it, never touch it again — any
//     thread may read it without synchronization.
//
//   * OwnershipRef — the POD result of a lookup: (owned-entry index,
//     tenant id) instead of a bare OwnedPrefix*. Refs are only
//     meaningful against the table that produced them; holding a ref
//     across a snapshot swap is a bug the index form makes visible
//     (the pointer form made it a use-after-free).
//
//   * OwnershipStore — epoch/RCU-style publication. reload produces a
//     NEW table and publishes it atomically; readers that captured the
//     old shared_ptr keep a consistent view until their batch boundary,
//     then pick up the new snapshot. Nothing restarts, nothing
//     re-replays, no in-flight batch is perturbed.
//
// Overlapping ownership across tenants resolves to a single winner per
// observation: the most-specific covering entry or, when nothing covers
// the observed prefix, the first entry it covers in address order (the
// trie's depth-first order: lower address first, and at one address the
// shorter prefix first), tagged with its tenant. Of two entries for the
// same prefix the later one wins.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bgp/types.hpp"
#include "netbase/prefix.hpp"
#include "netbase/prefix_trie.hpp"

namespace artemis::core {

/// Dense tenant identifier: index into the table's tenant vector. The
/// implicit single-operator tenant (schema v1 configs, --owned flags) is
/// id 0, named "default".
using TenantId = std::uint32_t;
inline constexpr TenantId kDefaultTenantId = 0;

/// One owned prefix and its legitimacy ground truth.
struct OwnedPrefix {
  net::Prefix prefix;
  /// ASNs allowed to originate this prefix (usually one; anycast/multi-
  /// origin setups list several).
  std::set<bgp::Asn> legitimate_origins;
  /// Direct upstream/peer ASNs expected adjacent to the origin in paths.
  /// Empty disables the Type-1 (fake first-hop) check for this prefix.
  std::set<bgp::Asn> legitimate_neighbors;
  /// Owning tenant (kDefaultTenantId for single-operator configs).
  TenantId tenant = kDefaultTenantId;
};

/// Mitigation policy knobs (paper §2: de-aggregation with the /24
/// caveat). Per-tenant: each tenant of a shared deployment chooses its
/// own floor and auto/alert mode.
struct MitigationPolicy {
  /// Announce sub-prefixes no longer than this (the Internet's filtering
  /// boundary). A hijacked prefix is split into its two halves as long as
  /// they are <= this length.
  int deaggregation_floor = 24;
  /// Also re-announce the exact hijacked prefix (helps when the hijack is
  /// losing the tie-break anyway; harmless otherwise).
  bool reannounce_exact = true;
  /// Automatic mitigation on alert; false = detect-only (alert mode).
  bool auto_mitigate = true;
  /// Outsourcing (extension, following the authors' later work): when
  /// helper controllers are registered with the MitigationService, have
  /// the helper organizations announce the mitigation prefixes too (MOAS)
  /// and tunnel the traffic back. kWhenInfeasible only activates helpers
  /// for victims de-aggregation cannot defend (/24s).
  enum class Outsource : std::uint8_t { kNever, kWhenInfeasible, kAlways };
  Outsource outsource = Outsource::kWhenInfeasible;
};

/// One tenant's identity and policy inside a table.
struct TenantInfo {
  TenantId id = kDefaultTenantId;
  std::string name;
  MitigationPolicy mitigation;
};

/// POD lookup result: which owned entry matched and whose it is. Only
/// meaningful against the OwnershipTable that produced it (entry indexes
/// that table's owned() vector).
struct OwnershipRef {
  static constexpr std::uint32_t kInvalidEntry = 0xFFFFFFFFu;
  std::uint32_t entry = kInvalidEntry;
  TenantId tenant = kDefaultTenantId;

  bool valid() const { return entry != kInvalidEntry; }
  explicit operator bool() const { return valid(); }
  bool operator==(const OwnershipRef&) const = default;
};

/// The immutable multi-tenant snapshot. Construct via Config::build_table
/// (or the constructor, for synthetic benches), then share freely:
/// every member is const after construction, so concurrent readers need
/// no synchronization — publication order is the OwnershipStore's (or
/// the pipeline barrier's) business.
class OwnershipTable {
 public:
  /// Freezes `owned` (each entry's `tenant` field must index `tenants`)
  /// and `tenants` (entry i must carry id i) into a snapshot. The trie
  /// is built here — the one cold allocation-heavy step of a reload.
  OwnershipTable(std::vector<OwnedPrefix> owned, std::vector<TenantInfo> tenants);

  OwnershipTable(const OwnershipTable&) = delete;
  OwnershipTable& operator=(const OwnershipTable&) = delete;

  /// The owned entry overlapping `p`, or an invalid ref: the most
  /// specific owned prefix covering `p` (classic / sub-prefix hijack),
  /// else the first owned prefix `p` covers in address order
  /// (super-prefix announcement), with the winner's tenant tagged on.
  OwnershipRef match(const net::Prefix& p) const;

  /// out[i] = match(prefixes[i]) for every i; `out` must be at least as
  /// long as `prefixes`. When interleaves(), up to kBatchLanes descents
  /// run interleaved, each prefetching its next access; otherwise this is
  /// the plain loop.
  void match_batch(std::span<const net::Prefix> prefixes,
                   std::span<OwnershipRef> out) const;

  /// True above kInterleaveMinEntries owned entries, where a descent
  /// misses cache and match_batch beats a loop of match().
  bool interleaves() const { return owned_.size() > kInterleaveMinEntries; }

  /// Descents match_batch keeps in flight.
  static constexpr std::size_t kBatchLanes = 16;
  /// Table size (owned entries) above which match_batch interleaves.
  /// Below it the trie and entries stay cache-resident, and interleaving
  /// only adds bookkeeping.
  static constexpr std::size_t kInterleaveMinEntries = 4096;

  /// The entry a valid ref points at. No bounds check — a ref from a
  /// different table is the caller's bug.
  const OwnedPrefix& entry(const OwnershipRef& ref) const {
    return owned_[ref.entry];
  }

  const std::vector<OwnedPrefix>& owned() const { return owned_; }
  bool empty() const { return owned_.empty(); }

  const std::vector<TenantInfo>& tenants() const { return tenants_; }
  /// nullptr for an id this table does not know.
  const TenantInfo* tenant(TenantId id) const {
    return id < tenants_.size() ? &tenants_[id] : nullptr;
  }
  /// The tenant's policy; a default-constructed policy for unknown ids
  /// (so a stale tenant id after a reload degrades, never crashes).
  const MitigationPolicy& policy(TenantId id) const {
    return id < tenants_.size() ? tenants_[id].mitigation : fallback_policy_;
  }
  /// True when any tenant wants automatic mitigation (the app wires the
  /// mitigation handler iff this holds; per-alert policy still decides).
  bool any_auto_mitigate() const { return any_auto_mitigate_; }

  /// Monotonic snapshot identity (process-wide): every built table gets
  /// a fresh version, so "did the snapshot change?" is one integer
  /// compare.
  std::uint64_t version() const { return version_; }

 private:
  std::vector<OwnedPrefix> owned_;
  std::vector<TenantInfo> tenants_;
  net::PrefixTrie<std::uint32_t> index_;  ///< prefix -> index into owned_
  MitigationPolicy fallback_policy_;
  bool any_auto_mitigate_ = false;
  std::uint64_t version_ = 0;
};

/// Epoch-published snapshot holder: the reload seam. publish() swaps the
/// current table under a mutex and bumps a relaxed epoch counter;
/// snapshot() hands out the current shared_ptr. Readers poll epoch() —
/// one relaxed load — to learn that a newer snapshot exists, then call
/// snapshot() (mutex, cold) to fetch it at their next batch boundary.
class OwnershipStore {
 public:
  explicit OwnershipStore(std::shared_ptr<const OwnershipTable> initial);

  std::shared_ptr<const OwnershipTable> snapshot() const;
  void publish(std::shared_ptr<const OwnershipTable> table);

  /// Bumped once per publish. Relaxed — pair with snapshot() for the
  /// data; the epoch only says "go look".
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const OwnershipTable> table_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace artemis::core
