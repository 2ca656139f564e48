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
// Determinism: each shard processes its observations in submission order
// (inline dispatch trivially; threaded mode because the batch ring is
// FIFO and each shard has exactly one worker). Since per-shard results
// depend only on the shard's own subsequence, ShardedDetector{N} produces
// bit-identical alerts, counts and first-seen times for every N — with
// or without threads, under either wait policy, pinned or not — as long
// as submissions come from one thread in a fixed order.
// tests/pipeline_test.cpp enforces the full matrix against the N=1
// inline reference.
//
// Modes:
//   * inline (default): submit() dispatches on the calling thread. With
//     shards == 1 this is the deterministic single-threaded mode the sim
//     uses — identical to a bare DetectionService, full batch
//     amortization included.
//   * threaded: one worker per shard drains a BatchRing of recyclable
//     ObservationBatch slots. The producer scatters each submitted span
//     into per-shard staging batches in one pass and publishes whole
//     batches — one ring operation per ~drain_batch observations instead
//     of one per observation — and publishes any partial staging batch
//     at the end of every submit call, so a quiet stream never strands
//     observations in the producer. submit*() must be called from a
//     single thread (it is the ring producer); a full ring applies
//     backpressure per the wait policy, never dropping. Alert handlers
//     run on worker threads in this mode. Workers can optionally be
//     pinned to consecutive CPUs (pin_workers / pin_cpu_base).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "artemis/detection.hpp"
#include "pipeline/batch_ring.hpp"
#include "pipeline/observation_batch.hpp"
#include "pipeline/wait_policy.hpp"

namespace artemis::pipeline {

struct ShardedDetectorOptions {
  std::size_t shards = 1;
  /// One worker thread per shard draining a batch ring; false = inline
  /// deterministic dispatch on the submitting thread.
  bool threaded = false;
  /// Per-shard buffering budget in observations. The ring holds
  /// queue_capacity / drain_batch batch slots (min 2, rounded up to a
  /// power of two); when every slot is in flight the producer
  /// backpressures per wait_policy. Sized so the in-flight working set
  /// stays cache-resident — bigger rings trade L2 hits for slack.
  std::size_t queue_capacity = 1024;
  /// Handoff granule: capacity of one ring slot, and the most
  /// observations one process_batch call sees. The amortization knob —
  /// one ring publish per drain_batch observations on a saturated
  /// stream.
  std::size_t drain_batch = 128;
  /// What producer (full ring) and workers (empty ring) do while
  /// waiting: pause-spin for latency, or futex-sleep for
  /// oversubscription friendliness. Either way the output is
  /// bit-identical.
  WaitPolicy wait_policy = WaitPolicy::kBusyPoll;
  /// Pin worker i to CPU (pin_cpu_base + i) % cpu_count. Best-effort:
  /// unsupported platforms and refused syscalls run unpinned.
  bool pin_workers = false;
  unsigned pin_cpu_base = 0;
  core::DetectionOptions detection;
  /// When set, every shard registers its own telemetry cell bundle
  /// (per-shard cache lines, merged on read by the registry) and the
  /// rings/flush path count handoff events. Observation-only: the
  /// pipeline_test matrix proves merged_alerts() is bit-identical with
  /// and without a registry. Must outlive the detector.
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
  ~ShardedDetector();

  ShardedDetector(const ShardedDetector&) = delete;
  ShardedDetector& operator=(const ShardedDetector&) = delete;

  /// The sharding function: hash of the observed prefix, mod shard count.
  static std::size_t shard_of(const net::Prefix& prefix, std::size_t shard_count);

  /// Routes one observation to its shard (scattered into the shard's
  /// staging batch and published immediately in threaded mode).
  /// Single-threaded producers only.
  void submit(const feeds::Observation& obs);

  /// Routes a batch. With shards == 1 the whole span goes through one
  /// process_batch call (full amortization); otherwise elements are
  /// dispatched in order.
  void submit_batch(std::span<const feeds::Observation> batch);

  /// Subscribes to a hub's batch stream (observations flow via submit_batch).
  void attach(feeds::MonitorHub& hub);

  /// Registers a handler on every shard. Threaded mode: handlers fire on
  /// worker threads (so they must be thread-safe) and MUST be registered
  /// before the first submit — late registration would race with workers
  /// iterating the handler list, and throws std::logic_error.
  void on_alert(core::AlertHandler handler);

  /// Barrier: publishes any partial staging batches and returns once
  /// every submitted observation has been processed. No-op in inline
  /// mode. Producer-thread-only (it reads producer-side counters and
  /// publishes staging batches); calling it from any other thread after
  /// the first submit throws std::logic_error.
  void flush();

  /// Incremental reload: swaps every shard onto `table` without
  /// restarting workers, dropping observations, or touching alert/dedup
  /// state. Producer-thread-only, like flush(): it drains in-flight
  /// batches first (publish staged partials, wait per shard for
  /// drained == pushed), so the swap lands on a batch boundary in every
  /// shard. Ordering needs no new atomics: the worker's last
  /// process_batch happens-before its `drained` release, our acquire in
  /// the drain wait happens-before the table swap, and the swap
  /// happens-before the next ring publish (release) the worker's take()
  /// acquires. Observations submitted before reload() are classified
  /// under the old table, everything after under the new one —
  /// deterministically, at any shard count.
  void reload(std::shared_ptr<const core::OwnershipTable> table);

  /// The ownership snapshot shards currently classify against.
  const core::OwnershipTable& ownership() const {
    return shards_.front()->service.ownership();
  }

  /// Drains outstanding work (staged and in-flight) and joins the
  /// workers. Idempotent; called by the destructor. No submissions may
  /// follow.
  void stop();

  std::size_t shard_count() const { return shards_.size(); }
  core::DetectionService& shard(std::size_t i) { return shards_[i]->service; }
  const core::DetectionService& shard(std::size_t i) const {
    return shards_[i]->service;
  }

  // ---- merged-on-read statistics (flush() first in threaded mode) ----

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
  struct Shard {
    Shard(std::shared_ptr<const core::OwnershipTable> table,
          const ShardedDetectorOptions& options);
    core::DetectionService service;
    std::unique_ptr<BatchRing> ring;         ///< threaded only
    ObservationBatch* staging = nullptr;     ///< producer-side partial batch
    std::thread worker;
    std::uint64_t pushed = 0;                ///< producer-thread only
    alignas(64) std::atomic<std::uint64_t> drained{0};
  };

  void worker_loop(Shard& shard, std::size_t index);
  /// Scatters one observation into its shard's staging batch, publishing
  /// the batch when it reaches drain_batch. Threaded mode only.
  void stage(const feeds::Observation& obs);
  /// Publishes every non-empty staging batch (end of a submit call,
  /// flush, stop).
  void publish_staged();
  /// Records the producer thread on first submit; flush() checks it.
  void note_producer_thread();

  ShardedDetectorOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;
  std::atomic<std::thread::id> producer_thread_{};  ///< set on first submit
  telemetry::PipelineCounters metrics_;  ///< producer-side; null = disabled
};

}  // namespace artemis::pipeline
