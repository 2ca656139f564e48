// ShardedDetector: hash-partitioned detection over N DetectionService
// shards.
//
// Partitioning key: the observed prefix. Every alert key the detection
// service can produce uses the observed prefix as its prefix component
// (AlertKey{type, observed_prefix, offender, tenant}), so routing
// observations by
// hash(observed prefix) guarantees that all observations of one hijack —
// and therefore its dedup record, counters and per-source first-seen
// times — live in exactly one shard. Per-shard state is never shared;
// statistics are merged on read.
//
// Dispatch is inline: submit() classifies on the calling thread. With
// shards == 1 this is identical to a bare DetectionService, full batch
// amortization included.
//
// Determinism: each shard processes its observations in submission
// order. Since per-shard results depend only on the shard's own
// subsequence, ShardedDetector{N} produces bit-identical alerts, counts
// and first-seen times for every N. tests/pipeline_test.cpp enforces
// this against the N=1 reference.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "artemis/detection.hpp"

namespace artemis::pipeline {

struct ShardedDetectorOptions {
  std::size_t shards = 1;
  core::DetectionOptions detection;
  /// When set, every shard registers its own telemetry cell bundle,
  /// merged on read by the registry. Observation-only: the pipeline_test
  /// matrix proves merged_alerts() is bit-identical with and without a
  /// registry. Must outlive the detector.
  telemetry::MetricsRegistry* metrics = nullptr;
};

class ShardedDetector {
 public:
  /// Snapshot-sharing form: all shards reference the SAME immutable
  /// ownership table — a million-prefix config is frozen once, not once
  /// per shard.
  explicit ShardedDetector(std::shared_ptr<const core::OwnershipTable> table,
                           ShardedDetectorOptions options = {});
  /// Convenience: freezes `config` once, then shares the snapshot.
  explicit ShardedDetector(const core::Config& config,
                           ShardedDetectorOptions options = {});

  ShardedDetector(const ShardedDetector&) = delete;
  ShardedDetector& operator=(const ShardedDetector&) = delete;

  /// The sharding function: hash of the observed prefix, mod shard count.
  static std::size_t shard_of(const net::Prefix& prefix, std::size_t shard_count);

  /// Routes one observation to its shard.
  void submit(const feeds::Observation& obs);

  /// Routes a batch. With shards == 1 the whole span goes through one
  /// process_batch call (full amortization); otherwise each maximal
  /// same-shard run goes to its shard as one sub-span.
  void submit_batch(std::span<const feeds::Observation> batch);

  /// Subscribes to a hub's batch stream (observations flow via submit_batch).
  void attach(feeds::MonitorHub& hub);

  /// Registers a handler on every shard.
  void on_alert(core::AlertHandler handler);

  /// Incremental reload: swaps every shard onto `table` without
  /// touching alert/dedup state. Dispatch is inline, so a call between
  /// submissions is already a batch boundary in every shard:
  /// observations submitted before reload() are classified under the
  /// old table, everything after under the new one — deterministically,
  /// at any shard count.
  void reload(std::shared_ptr<const core::OwnershipTable> table);

  /// The ownership snapshot shards currently classify against.
  const core::OwnershipTable& ownership() const {
    return shards_.front()->ownership();
  }

  std::size_t shard_count() const { return shards_.size(); }
  core::DetectionService& shard(std::size_t i) { return *shards_[i]; }
  const core::DetectionService& shard(std::size_t i) const { return *shards_[i]; }

  // ---- merged-on-read statistics ----

  /// All alerts across shards in canonical order: (detected_at, type,
  /// observed prefix, offender). Canonical — not per-shard insertion —
  /// so the result is identical for every shard count.
  std::vector<core::HijackAlert> merged_alerts() const;

  std::uint64_t observations_processed() const;
  std::uint64_t observations_matched() const;

  /// Per-key queries delegate to the single shard that owns the key.
  std::uint64_t observation_count(const core::AlertKey& key) const;
  const core::FirstSeenBySource* first_seen_by_source(
      const core::AlertKey& key) const;

 private:
  core::DetectionService& shard_for(const net::Prefix& prefix) const {
    return *shards_[shard_of(prefix, shards_.size())];
  }

  std::vector<std::unique_ptr<core::DetectionService>> shards_;
};

}  // namespace artemis::pipeline
