// MonitorHub: the multiplexer that fuses all monitoring sources.
//
// The paper's detection delay is "the min of the delays of these sources"
// (§2) because ARTEMIS consumes one merged stream. MonitorHub is that
// merge point: every feed pushes Observations into it; the detection
// service subscribes once. The hub also keeps per-source delivery
// statistics so benches can report per-source vs combined delays (E1).
//
// The hub is batch-only: feeds deliver whole batches (one RIS message,
// one decoded MRT file, one looking-glass answer) via publish_batch(),
// and subscribers receive them whole.
// Per-source accounting is a flat counter vector indexed by the
// observations' SourceId, so the steady state does one integer compare
// per observation and one indexed add per *run of equal sources* — no
// string is touched. Steady-state publish_batch performs no heap
// allocations (a source id beyond the vector grows it once).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "feeds/fanout.hpp"
#include "feeds/observation.hpp"
#include "telemetry/metrics.hpp"

namespace artemis::feeds {

class MonitorHub {
 public:
  /// Called by feeds (already in simulated delivery time). The span is
  /// only borrowed for the call.
  void publish_batch(std::span<const Observation> batch);

  /// Batch subscribers see every delivered batch, in delivery order.
  void subscribe_batch(ObservationBatchHandler handler);

  /// An ObservationBatchHandler that forwards into this hub — hand it to
  /// any feed's subscribe_batch().
  ObservationBatchHandler batch_inlet();

  std::uint64_t total_observations() const { return total_; }

  /// Map-shaped view for tests, reports and JSON (sorted iteration);
  /// materialized on demand — the hot path only maintains the flat table.
  std::map<std::string, std::uint64_t> per_source_counts() const;

  /// Count lookup for one source (0 if never seen). Does not intern.
  std::uint64_t source_count(std::string_view source) const;

  /// Number of distinct sources seen so far.
  std::size_t source_table_size() const { return seen_sources_; }

  /// Attaches a metrics registry: the hub registers one labeled
  /// per-source counter per source on its first batch (which already
  /// allocates) plus stream totals. The registry must outlive the hub.
  /// Steady-state publish_batch stays allocation-free — counter cells
  /// are plain pre-registered atomics.
  void set_metrics(telemetry::MetricsRegistry* registry);

 private:
  struct SourceSlot {
    std::uint64_t count = 0;
    telemetry::Counter* metric = nullptr;  ///< per-source labeled cell
  };

  /// Registers the labeled telemetry cell for source `id` (no-op without
  /// a registry).
  void register_source_metric(SourceId id);
  std::vector<SourceSlot> sources_;  ///< index == SourceId; count 0 = unseen
  std::size_t seen_sources_ = 0;
  ObservationFanout fanout_;
  std::uint64_t total_ = 0;
  telemetry::MetricsRegistry* registry_ = nullptr;
  telemetry::Counter* observations_metric_ = nullptr;
  telemetry::Counter* batches_metric_ = nullptr;
};

}  // namespace artemis::feeds
