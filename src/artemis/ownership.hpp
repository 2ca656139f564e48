// Multi-tenant ownership: the shared ground-truth table behind detection.
//
// The paper's system monitors one operator's prefixes; the shared
// pipeline serves many tenants — every AS a potential customer — from
// ONE immutable snapshot:
//
//   * OwnedPrefix — the builder-side declaration (Config holds these):
//     a prefix, its legitimate origin and neighbor sets, its tenant.
//
//   * OwnershipTable — a frozen, arena-trie-backed snapshot of every
//     owned prefix across every tenant. A lookup is one descent of the
//     same path-compressed trie the RIBs use, so its cost is independent
//     of the tenant count; a batch of lookups interleaves its descents
//     once the table outgrows the cache. Each entry is frozen into one
//     32-byte OwnedEntry (prefix, tenant, first legitimate origin), so a
//     lookup touches one cache line past the trie; any further origins
//     and the neighbor set sit in one flat ASN arena, read only on an
//     origin mismatch or by the fake-first-hop check. Immutable by
//     construction: build it (from a Config), publish it, never touch it
//     again — any thread may read it without synchronization. A reload
//     builds a new table; ShardedDetector::reload swaps it in at a batch
//     boundary.
//
//   * OwnershipRef — the POD result of a lookup: (owned-entry index,
//     tenant id) instead of a bare pointer. Refs are only meaningful
//     against the table that produced them; holding a ref across a
//     snapshot swap is a bug the index form makes visible (the pointer
//     form made it a use-after-free).
//
// Overlapping ownership across tenants resolves to a single winner per
// observation: the most-specific covering entry or, when nothing covers
// the observed prefix, the first entry it covers in address order (the
// trie's depth-first order: lower address first, and at one address the
// shorter prefix first), tagged with its tenant. Of two entries for the
// same prefix the later one wins.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <string_view>
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
inline constexpr std::string_view kDefaultTenantName = "default";

/// One owned prefix and its legitimacy ground truth, as declared (the
/// Config side; OwnershipTable freezes it into an OwnedEntry).
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
  /// True only for the tenant the v1 entry points create (Config's
  /// single-operator calls, an empty config's snapshot). Its alerts keep
  /// the unlabeled pre-multi-tenant format; an explicit tenant, even one
  /// named "default", is labeled.
  bool implicit = false;
};

/// One owned prefix as the table stores it: the fields every
/// classification reads, in one 32-byte record (two per cache line).
/// Further origins and the neighbors live in the table's ASN arena
/// (OwnershipTable::legitimate_origin / legitimate_neighbors).
struct alignas(32) OwnedEntry {
  net::Prefix prefix;
  TenantId tenant = kDefaultTenantId;
  /// The smallest legitimate origin: the common single-origin case never
  /// leaves this record.
  bgp::Asn first_origin = bgp::kNoAsn;
};
static_assert(sizeof(OwnedEntry) == 32);

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
/// no synchronization — publication order is the pipeline barrier's
/// business (ShardedDetector::reload).
class OwnershipTable {
 public:
  /// Freezes `owned` (each entry's `tenant` field must index `tenants`,
  /// and each needs at least one legitimate origin — throws
  /// std::invalid_argument otherwise) and `tenants` (entry i must carry
  /// id i) into a snapshot. The trie and the flat entries are built here
  /// — the one cold allocation-heavy step of a reload.
  OwnershipTable(std::span<const OwnedPrefix> owned, std::vector<TenantInfo> tenants);

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
  const OwnedEntry& entry(const OwnershipRef& ref) const { return owned_[ref.entry]; }

  /// True when `asn` may originate owned entry `entry` (an index into
  /// owned()). Reads the arena only when `asn` is not the first origin.
  bool legitimate_origin(std::uint32_t entry, bgp::Asn asn) const {
    return owned_[entry].first_origin == asn || contains(extra_origins(entry), asn);
  }

  /// The entry's legitimate origins after first_origin, ascending.
  std::span<const bgp::Asn> extra_origins(std::uint32_t entry) const;

  /// The entry's legitimate neighbors, ascending. Empty disables the
  /// fake-first-hop check for it.
  std::span<const bgp::Asn> legitimate_neighbors(std::uint32_t entry) const;

  /// Every owned entry, in insertion order (a shadowed duplicate prefix
  /// keeps its slot; the trie points at the later one).
  const std::vector<OwnedEntry>& owned() const { return owned_; }
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
  static bool contains(std::span<const bgp::Asn> sorted, bgp::Asn asn);

  std::vector<OwnedEntry> owned_;
  /// Per entry: offset of its extras in asns_, 0 when it has none (the
  /// single-origin, no-neighbor case). At an offset o: asns_[o] is the
  /// extra-origin count k, asns_[o + 1] the neighbor count n, then k
  /// origins, then n neighbors.
  std::vector<std::uint32_t> extras_;
  std::vector<bgp::Asn> asns_;  ///< the arena; asns_[0] is unused
  std::vector<TenantInfo> tenants_;
  net::PrefixTrie<std::uint32_t> index_;  ///< prefix -> index into owned_
  MitigationPolicy fallback_policy_;
  bool any_auto_mitigate_ = false;
  std::uint64_t version_ = 0;
};

}  // namespace artemis::core
