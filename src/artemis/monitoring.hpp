// The monitoring service (paper §2, §4).
//
// Runs alongside mitigation and answers, in real time, "which vantage
// points currently route our prefixes to the legitimate origin?" — the
// data behind the demo's world-map visualization and behind the paper's
// mitigation-completion measurement ("until all the vantage points in our
// data have switched to the legitimate ASN", §3).
//
// State is reconstructed purely from feed observations (announce /
// withdraw / route-state), exactly as the deployed tool would: per
// vantage, a miniature RIB over the owned address space; a vantage is
// "legitimate" when every sample address of the owned prefix resolves,
// via longest-prefix match, to a configured legitimate origin.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "artemis/config.hpp"
#include "feeds/monitor_hub.hpp"
#include "feeds/observation.hpp"
#include "netbase/prefix_trie.hpp"

namespace artemis::core {

/// A legitimacy flip at one vantage for one owned prefix.
struct VantageChange {
  SimTime when;
  bgp::Asn vantage = bgp::kNoAsn;
  net::Prefix owned;
  bool legitimate = false;
  bgp::Asn current_origin = bgp::kNoAsn;  ///< origin at the first sample point
};

class MonitoringService {
 public:
  /// Snapshot-sharing form: monitors against the same immutable table the
  /// detector classifies with.
  explicit MonitoringService(std::shared_ptr<const OwnershipTable> table);
  /// Convenience: freezes `config` privately.
  explicit MonitoringService(const Config& config);

  /// Swaps the ownership snapshot (incremental reload; batch-boundary
  /// only, same contract as DetectionService::set_ownership). The cached
  /// legitimacy matrix is keyed by owned-entry index, which a reload can
  /// renumber — it is dropped, so the first post-reload observation
  /// touching an owned prefix re-emits that vantage's current legitimacy
  /// as a change event. Vantage RIBs (rebuilt from the feed, not the
  /// config) survive.
  void set_ownership(std::shared_ptr<const OwnershipTable> table);

  void attach(feeds::MonitorHub& hub);
  void process(const feeds::Observation& obs);

  /// Batch-aware processing: semantics identical to calling process()
  /// per observation (every intermediate legitimacy flip is still
  /// recorded), but the owned-prefix match and the per-vantage view
  /// lookup are memoized across the batch — archive windows arrive as
  /// long runs of one vantage and bursts of one prefix, so the steady
  /// state does one map walk per run instead of one per observation.
  void process_batch(std::span<const feeds::Observation> batch);

  /// Current legitimacy of one vantage for one owned prefix; nullopt if
  /// the vantage has no data covering it yet.
  std::optional<bool> vantage_legitimate(bgp::Asn vantage,
                                         const net::Prefix& owned) const;

  /// Fraction of data-bearing vantages that are legitimate for `owned`.
  /// NaN if no vantage has data.
  double fraction_legitimate(const net::Prefix& owned) const;

  /// True if at least one vantage has data and all of them are legitimate.
  bool all_legitimate(const net::Prefix& owned) const;

  /// Number of vantages with any data for `owned`.
  std::size_t vantages_with_data(const net::Prefix& owned) const;

  /// Every legitimacy flip observed, in delivery order — the timeline the
  /// demo visualizes (E2's per-second series derives from this).
  const std::vector<VantageChange>& changes() const { return changes_; }

  void on_change(std::function<void(const VantageChange&)> handler);

 private:
  struct VantageView {
    /// Observed routes overlapping owned space: prefix -> origin AS.
    net::PrefixTrie<bgp::Asn> routes;
  };

  /// Lookups memoized across one batch (map node pointers are stable
  /// under unrelated insertions, so caching them across observations is
  /// safe; a fresh cursor per call keeps process() behavior unchanged).
  struct BatchCursor {
    bgp::Asn vantage = bgp::kNoAsn;
    VantageView* view = nullptr;
    bool prefix_valid = false;
    net::Prefix prefix;
    bool owned = false;  ///< `prefix` overlaps owned space
  };

  void process_one(const feeds::Observation& obs, BatchCursor& cursor);

  /// Sample addresses whose LPM decides legitimacy for `owned` (the two
  /// half-prefix bases, so post-mitigation /24s are judged correctly).
  std::vector<net::IpAddress> sample_points(const net::Prefix& owned) const;
  /// Legitimacy of owned entry `entry` (an index into the table's owned())
  /// as `view` routes it.
  bool compute_legitimate(const VantageView& view, std::uint32_t entry) const;

  std::shared_ptr<const OwnershipTable> table_;
  std::map<bgp::Asn, VantageView> vantages_;
  /// Cached legitimacy per (vantage, owned prefix index).
  std::map<std::pair<bgp::Asn, std::size_t>, bool> state_;
  std::vector<VantageChange> changes_;
  std::vector<std::function<void(const VantageChange&)>> handlers_;
};

}  // namespace artemis::core
