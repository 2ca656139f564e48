// ReplayFeed: re-emits a recorded journal into the observation pipeline.
//
// Two modes, both batch-native:
//
//   * replay_all(sink)      — as fast as possible: drains the journal in
//     batches of `batch_size` straight into any ObservationBatchHandler
//     (a MonitorHub inlet, a ShardedDetector, a bare DetectionService).
//     This is the crash-recovery path: a restarted monitor replays its
//     journal into fresh services and reaches the same dedup/alert state
//     bit-identically — detection output is batch-boundary independent
//     (the batch-vs-loop oracle), so the replay chunking need not match
//     the recorded chunking.
//
//   * schedule(sim, sink)   — time-warped: each run of records with the
//     same recorded delivered_at is published at that instant divided by
//     `speedup` on the simulator clock (10× speedup compresses an hour
//     of recording into six simulated minutes). The event chain is
//     self-perpetuating, so arbitrarily long journals replay in bounded
//     memory.
#pragma once

#include <cstdint>
#include <functional>

#include "feeds/monitor_hub.hpp"
#include "journal/reader.hpp"
#include "pipeline/observation_batch.hpp"
#include "sim/simulator.hpp"

namespace artemis::journal {

struct ReplayOptions {
  /// Max observations per emitted batch in replay_all (and per read in
  /// scheduled mode, where emission is additionally cut at delivery-time
  /// changes so pacing is exact).
  std::size_t batch_size = 1024;
  /// Scheduled-mode time warp: 1.0 replays at recorded pacing, N > 1
  /// compresses the timeline N×. Must be > 0.
  double speedup = 1.0;
  /// Predicate replay: only matching records are emitted, and segments
  /// whose index footer rules them out are never opened (see
  /// JournalReader::set_filter).
  QueryFilter filter;
};

class ReplayFeed {
 public:
  /// The reader must outlive the feed (and the simulator run when
  /// schedule() is used).
  explicit ReplayFeed(JournalReader& reader, ReplayOptions options = {});

  ReplayFeed(const ReplayFeed&) = delete;
  ReplayFeed& operator=(const ReplayFeed&) = delete;

  /// Drains the rest of the journal into `sink` as fast as possible.
  /// Returns the number of observations replayed.
  std::uint64_t replay_all(const feeds::ObservationBatchHandler& sink);

  /// Convenience: replay into a hub (the normal "feed the whole app"
  /// wiring — detection, monitoring and mitigation all see the stream).
  std::uint64_t replay_all(feeds::MonitorHub& hub);

  /// Time-warped replay: schedules the journal through `sim`. Call
  /// sim.run_all() (or run_until) afterwards to execute; replayed()
  /// reports progress. The feed must outlive the simulation.
  void schedule(sim::Simulator& sim, feeds::ObservationBatchHandler sink);

  std::uint64_t replayed() const { return replayed_; }

 private:
  /// Scheduled mode: emit the run of equal-delivery-time records at the
  /// buffer cursor, then arm the event for the next run.
  void schedule_next(sim::Simulator& sim);

  JournalReader& reader_;
  ReplayOptions options_;
  pipeline::ObservationBatch buffer_;
  std::size_t cursor_ = 0;  ///< scheduled mode: next unemitted record
  feeds::ObservationBatchHandler sink_;
  std::uint64_t replayed_ = 0;
};

}  // namespace artemis::journal
