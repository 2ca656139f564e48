// The detection service (paper §2, "runs continuously").
//
// Consumes the merged observation stream and checks every observation
// that overlaps an owned prefix against the configured ground truth:
//   * exact-prefix origin violation  (the demo's check)
//   * sub-prefix announcement        (extension, on by default: any
//                                     more-specific inside owned space is
//                                     illegitimate unless whitelisted)
//   * super-prefix origin violation  (extension)
//   * fake first-hop / Type-1        (extension, needs neighbor config)
// Alerts are deduplicated: the first observation of a given (type,
// prefix, offender) raises the alert; later ones only bump counters —
// but per-source first-seen times are always recorded, which is how
// bench_detection_delay reports per-source detection latency (E1).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "artemis/alert.hpp"
#include "artemis/config.hpp"
#include "feeds/monitor_hub.hpp"
#include "rpki/roa.hpp"
#include "feeds/observation.hpp"
#include "telemetry/metrics.hpp"

namespace artemis::core {

using AlertHandler = std::function<void(const HijackAlert&)>;

/// The first time each source delivered an observation of one hijack: a
/// small flat list in first-sight order (a hijack is seen by a handful of
/// sources, so a scan beats hashing).
class FirstSeenBySource {
 public:
  struct Entry {
    feeds::SourceId source = feeds::kNoSource;
    SimTime at;
    bool operator==(const Entry&) const = default;
  };

  /// Records `at` for `source` unless the source is already listed.
  /// Allocates only when a new source extends the list.
  void record(feeds::SourceId source, SimTime at) {
    if (find(source) == nullptr) entries_.push_back(Entry{source, at});
  }

  /// nullptr when `source` never delivered.
  const SimTime* find(feeds::SourceId source) const {
    for (const Entry& entry : entries_) {
      if (entry.source == source) return &entry.at;
    }
    return nullptr;
  }

  /// Lookup by name (display and test call sites); throws
  /// std::out_of_range when the source never delivered.
  SimTime at(std::string_view source) const;

  std::size_t size() const { return entries_.size(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }
  bool operator==(const FirstSeenBySource&) const = default;

 private:
  std::vector<Entry> entries_;
};

struct DetectionOptions {
  /// Extensions beyond the demo's origin check (listed in this file's
  /// header comment). Benches that reproduce the paper leave sub/super on
  /// (they never fire in the exact-origin experiments) and first-hop off.
  bool detect_subprefix = true;
  bool detect_superprefix = true;
  bool detect_fake_first_hop = false;
  /// When set, every announcement is additionally validated against the
  /// ROA table; RPKI-invalid announcements raise kRpkiInvalid alerts even
  /// for prefixes outside the owned space (origin-validation-as-a-signal,
  /// the prevention mechanism the paper's introduction contrasts with).
  const rpki::RoaTable* roa_table = nullptr;
};

class DetectionService {
 public:
  /// Snapshot-sharing form: shards of one deployment pass the SAME
  /// immutable table, so a million-prefix config is frozen once, not
  /// once per shard.
  explicit DetectionService(std::shared_ptr<const OwnershipTable> table,
                            DetectionOptions options = {});
  /// Convenience: freezes `config` privately (tests, single services).
  explicit DetectionService(const Config& config, DetectionOptions options = {});

  /// Swaps the ownership snapshot — the incremental-reload seam. Must be
  /// called between process_batch calls (a batch boundary): the caller
  /// is the single submission thread, or a barrier like
  /// ShardedDetector::reload that proves no batch is in flight. Alert
  /// and dedup state survive the swap (a reload is not a restart);
  /// classification of every later observation uses the new table.
  void set_ownership(std::shared_ptr<const OwnershipTable> table);

  /// The snapshot currently classifying observations.
  const OwnershipTable& ownership() const { return *table_; }

  /// Wires the service into a hub (subscribes to its batch stream; every
  /// observation from every source flows through process_batch).
  void attach(feeds::MonitorHub& hub);

  /// Feeds one observation (alternative to attach() for tests/replay).
  /// Span-of-one shim over process_batch — identical semantics.
  void process(const feeds::Observation& obs) { process_batch({&obs, 1}); }

  /// Feeds a whole batch. Equivalent to calling process() on each element
  /// in order (the batch-vs-loop oracle test enforces this), but amortizes
  /// the work: a run of announcements of one prefix costs one ownership
  /// lookup (on a table where lookups miss cache — see
  /// OwnershipTable::interleaves — the batch's lookups are resolved up
  /// front in one match_batch call), consecutive observations with the
  /// same (type, prefix, origin, first-hop) reuse the previous
  /// classification, and
  /// consecutive observations of the same hijack reuse the previous
  /// dedup-record probe. Steady state (already-seen observations)
  /// performs zero heap allocations, same as process().
  void process_batch(std::span<const feeds::Observation> batch);

  /// Registers an alert consumer (the mitigation service, a logger, ...).
  void on_alert(AlertHandler handler);

  /// All alerts raised so far (deduplicated).
  const std::vector<HijackAlert>& alerts() const { return alerts_; }

  /// First time each source delivered an observation matching `key`.
  /// Used for per-source delay reporting. The AlertKey overload is a hash
  /// lookup; the string overload (a HijackAlert::dedup_key()) scans and
  /// is for display/tooling call sites only.
  const FirstSeenBySource* first_seen_by_source(const AlertKey& key) const;
  const FirstSeenBySource* first_seen_by_source(const std::string& dedup_key) const;

  /// Number of matching observations per deduplicated alert.
  std::uint64_t observation_count(const AlertKey& key) const;
  std::uint64_t observation_count(const std::string& dedup_key) const;

  std::uint64_t observations_processed() const { return processed_; }
  std::uint64_t observations_matched() const { return matched_; }

  /// Attaches telemetry cells (one bundle per service — sharded callers
  /// register one per shard so cells never contend). Observation-only:
  /// counters and the detection-delay histogram are fed from batch-local
  /// tallies after the processing loop, so enabling telemetry cannot
  /// perturb alert content or ordering, and the hot path stays
  /// allocation-free (cells are pre-registered plain atomics).
  void set_metrics(const telemetry::DetectionCounters& metrics) {
    metrics_ = metrics;
  }

  /// Per-tenant alert cells: registers one counter per tenant of the
  /// current table, labeled with the tenant name, and re-registers on
  /// every set_ownership so reloaded-in tenants get cells too.
  /// Registration allocates (registry mutex) — it runs at attach/swap
  /// time and on the fresh-alert path, never in the steady state. The
  /// registry must outlive the service.
  void set_tenant_metrics(telemetry::MetricsRegistry* registry);

 private:
  /// A classified violation, POD so the steady-state path never builds a
  /// full HijackAlert (whose path/source members heap-allocate).
  struct Classification {
    HijackType type = HijackType::kExactOrigin;
    net::Prefix owned_prefix;
    bgp::Asn offender = bgp::kNoAsn;
    TenantId tenant = kDefaultTenantId;
  };

  /// Classifies an observation given its ownership match (`ref`, the
  /// table's match() of obs.prefix); nullopt if legitimate or unrelated
  /// to owned space.
  std::optional<Classification> classify(const feeds::Observation& obs,
                                         OwnershipRef ref) const;

  /// The immutable ownership snapshot (shared across shards). Swapped
  /// only at batch boundaries via set_ownership; within one batch every
  /// classification reads one consistent table.
  std::shared_ptr<const OwnershipTable> table_;
  DetectionOptions options_;
  std::vector<AlertHandler> handlers_;
  std::vector<HijackAlert> alerts_;
  struct HijackRecord {
    FirstSeenBySource first_seen_by_source;
    std::uint64_t observations = 0;
    std::string dedup;  ///< display key, materialized once per unique alert
  };
  std::unordered_map<AlertKey, HijackRecord, AlertKeyHash> records_;
  std::uint64_t processed_ = 0;
  std::uint64_t matched_ = 0;
  telemetry::DetectionCounters metrics_;  ///< null cells = disabled
  /// Per-tenant alert cells, index == tenant id; rebuilt on snapshot
  /// swap. Null registry = disabled.
  telemetry::MetricsRegistry* tenant_registry_ = nullptr;
  std::vector<telemetry::Counter*> tenant_alert_cells_;

  // Per-batch ownership lookups (the prefixes to match, then their
  // refs). Members, not locals: their capacity survives across batches,
  // so the steady state stays allocation-free.
  std::vector<net::Prefix> lookups_;
  std::vector<OwnershipRef> refs_;
};

}  // namespace artemis::core
