#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace artemis::telemetry {
namespace {

/// Formats a double the way Prometheus expects: plain decimal, no
/// locale, enough digits to round-trip.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string format_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

std::string format_i64(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

}  // namespace

double HistogramSnapshot::quantile(double q) const noexcept {
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based, ceil), then walk the
  // cumulative counts to the bucket containing it.
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= rank) {
      // Linear interpolation inside [lower, upper]; bucket 0 is exact.
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(bucket_upper(i - 1)) + 1.0;
      const double upper = static_cast<double>(bucket_upper(i));
      const double within =
          counts[i] == 0
              ? 0.0
              : (rank - static_cast<double>(cumulative)) /
                    static_cast<double>(counts[i]);
      double value = lower + within * (upper - lower);
      // The exact max is tracked; no estimate may exceed it.
      if (value > static_cast<double>(max)) value = static_cast<double>(max);
      return value;
    }
    cumulative = next;
  }
  return static_cast<double>(max);
}

void Histogram::merge_into(HistogramSnapshot& out) const noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    out.counts[i] += c;
    out.total += c;
  }
  out.sum += sum_.load(std::memory_order_relaxed);
  const std::uint64_t m = max_.load(std::memory_order_relaxed);
  if (m > out.max) out.max = m;
}

MetricsRegistry::Series& MetricsRegistry::series_for(std::string_view name,
                                                     std::string_view help,
                                                     Kind kind, double scale) {
  for (auto& series : series_) {
    if (series.name == name) {
      if (series.kind != kind) {
        throw std::logic_error("metric '" + std::string(name) +
                               "' re-registered with a different kind");
      }
      return series;
    }
  }
  Series series;
  series.name = std::string(name);
  series.help = std::string(help);
  series.kind = kind;
  series.scale = scale;
  series_.push_back(std::move(series));
  return series_.back();
}

Counter* MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  std::string_view labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& series = series_for(name, help, Kind::kCounter, 1.0);
  Cell cell;
  cell.labels = std::string(labels);
  cell.counter = &counters_.emplace_back();
  series.cells.push_back(std::move(cell));
  return series.cells.back().counter;
}

Gauge* MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              std::string_view labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& series = series_for(name, help, Kind::kGauge, 1.0);
  Cell cell;
  cell.labels = std::string(labels);
  cell.gauge = &gauges_.emplace_back();
  series.cells.push_back(std::move(cell));
  return series.cells.back().gauge;
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help, double scale,
                                      std::string_view labels) {
  std::lock_guard<std::mutex> lock(mutex_);
  Series& series = series_for(name, help, Kind::kHistogram, scale);
  Cell cell;
  cell.labels = std::string(labels);
  cell.histogram = &histograms_.emplace_back();
  series.cells.push_back(std::move(cell));
  return series.cells.back().histogram;
}

std::string MetricsRegistry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(4096);
  for (const auto& series : series_) {
    const char* type = series.kind == Kind::kCounter   ? "counter"
                       : series.kind == Kind::kGauge   ? "gauge"
                                                       : "histogram";
    out += "# HELP " + series.name + " " + series.help + "\n";
    out += "# TYPE " + series.name + " " + std::string(type) + "\n";

    // Group cells by label set, preserving first-appearance order.
    std::vector<std::pair<std::string_view, std::vector<std::size_t>>> groups;
    for (std::size_t i = 0; i < series.cells.size(); ++i) {
      const std::string_view labels = series.cells[i].labels;
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const auto& g) { return g.first == labels; });
      if (it == groups.end()) {
        groups.push_back({labels, {i}});
      } else {
        it->second.push_back(i);
      }
    }

    for (const auto& [labels, indices] : groups) {
      const std::string label_body(labels);
      const auto with_labels = [&](std::string_view extra) {
        // Splices `extra` (e.g. le="...") into the label set.
        if (label_body.empty() && extra.empty()) return std::string();
        std::string body = label_body;
        if (!body.empty() && !extra.empty()) body += ",";
        body += std::string(extra);
        return "{" + body + "}";
      };
      switch (series.kind) {
        case Kind::kCounter: {
          std::uint64_t total = 0;
          for (std::size_t i : indices) {
            total += series.cells[i].counter->value();
          }
          out += series.name + with_labels({}) + " " + format_u64(total) + "\n";
          break;
        }
        case Kind::kGauge: {
          std::int64_t merged = 0;
          bool first = true;
          for (std::size_t i : indices) {
            const std::int64_t v = series.cells[i].gauge->value();
            merged = first ? v : std::max(merged, v);
            first = false;
          }
          out += series.name + with_labels({}) + " " + format_i64(merged) + "\n";
          break;
        }
        case Kind::kHistogram: {
          HistogramSnapshot snap;
          for (std::size_t i : indices) {
            series.cells[i].histogram->merge_into(snap);
          }
          // Emit buckets only up to the one covering the observed max
          // (the series stays compact; cumulative semantics are intact
          // because every omitted bucket would repeat the total).
          std::uint64_t cumulative = 0;
          for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
            cumulative += snap.counts[b];
            const double upper =
                static_cast<double>(HistogramSnapshot::bucket_upper(b)) *
                series.scale;
            out += series.name + "_bucket" +
                   with_labels("le=\"" + format_double(upper) + "\"") + " " +
                   format_u64(cumulative) + "\n";
            if (cumulative == snap.total &&
                HistogramSnapshot::bucket_upper(b) >= snap.max) {
              break;
            }
          }
          out += series.name + "_bucket" + with_labels("le=\"+Inf\"") + " " +
                 format_u64(snap.total) + "\n";
          out += series.name + "_sum" + with_labels({}) + " " +
                 format_double(static_cast<double>(snap.sum) * series.scale) +
                 "\n";
          out += series.name + "_count" + with_labels({}) + " " +
                 format_u64(snap.total) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

json::Value MetricsRegistry::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Object root;
  for (const auto& series : series_) {
    json::Object entry;
    switch (series.kind) {
      case Kind::kCounter:
      case Kind::kGauge: {
        entry["type"] = series.kind == Kind::kCounter ? "counter" : "gauge";
        // One value per distinct label set; unlabeled series collapse
        // to a single "value" field.
        std::map<std::string, json::Value> by_labels;
        for (const auto& cell : series.cells) {
          if (series.kind == Kind::kCounter) {
            const std::uint64_t v = cell.counter->value();
            auto [it, inserted] = by_labels.try_emplace(cell.labels, v);
            if (!inserted) {
              it->second = json::Value(
                  static_cast<std::uint64_t>(it->second.as_number()) + v);
            }
          } else {
            const std::int64_t v = cell.gauge->value();
            auto [it, inserted] = by_labels.try_emplace(cell.labels, v);
            if (!inserted && v > it->second.as_int()) {
              it->second = json::Value(v);
            }
          }
        }
        if (by_labels.size() == 1 && by_labels.begin()->first.empty()) {
          entry["value"] = by_labels.begin()->second;
        } else {
          json::Object cells;
          for (auto& [labels, value] : by_labels) cells[labels] = value;
          entry["cells"] = std::move(cells);
        }
        break;
      }
      case Kind::kHistogram: {
        entry["type"] = "histogram";
        HistogramSnapshot snap;
        for (const auto& cell : series.cells) {
          cell.histogram->merge_into(snap);
        }
        entry["count"] = snap.total;
        entry["sum"] = static_cast<double>(snap.sum) * series.scale;
        entry["max"] = static_cast<double>(snap.max) * series.scale;
        entry["p50"] = snap.quantile(0.50) * series.scale;
        entry["p95"] = snap.quantile(0.95) * series.scale;
        entry["p99"] = snap.quantile(0.99) * series.scale;
        break;
      }
    }
    root[series.name] = std::move(entry);
  }
  return json::Value(std::move(root));
}

HistogramSnapshot MetricsRegistry::histogram_snapshot(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  HistogramSnapshot snap;
  for (const auto& series : series_) {
    if (series.name != name || series.kind != Kind::kHistogram) continue;
    for (const auto& cell : series.cells) {
      cell.histogram->merge_into(snap);
    }
    break;
  }
  return snap;
}

DetectionCounters register_detection(MetricsRegistry& registry) {
  DetectionCounters c;
  c.observations = registry.counter("artemis_detection_observations_total",
                                    "Observations processed by detection");
  c.memo_hits = registry.counter("artemis_detection_memo_hits_total",
                                 "Classification memo hits within a batch");
  c.dedup_hits =
      registry.counter("artemis_detection_dedup_hits_total",
                       "Observations suppressed by alert dedup (already seen)");
  c.alerts = registry.counter("artemis_detection_alerts_total",
                              "Fresh hijack alerts emitted");
  c.detection_delay = registry.histogram(
      "artemis_detection_delay_seconds",
      "Delay from observation event time to alert emission (sim clock in "
      "simulation, wall clock live)",
      1e-6);
  return c;
}

RingCounters register_ring(MetricsRegistry& registry) {
  RingCounters c;
  c.publishes = registry.counter("artemis_ring_publishes_total",
                                 "Batches published into the handoff ring");
  c.futex_wakeups = registry.counter(
      "artemis_ring_futex_wakeups_total",
      "Futex notify calls issued by the ring (producer + consumer side)");
  c.producer_waits =
      registry.counter("artemis_ring_producer_waits_total",
                       "acquire() calls that found the slot pool empty");
  c.occupancy_high =
      registry.gauge("artemis_ring_occupancy_high_water",
                     "High-water mark of batches queued in any shard ring");
  return c;
}

PipelineCounters register_pipeline(MetricsRegistry& registry) {
  PipelineCounters c;
  c.flush_stalls =
      registry.counter("artemis_pipeline_flush_stalls_total",
                       "flush() calls that had to wait for worker backlog");
  return c;
}

JournalCounters register_journal(MetricsRegistry& registry) {
  JournalCounters c;
  c.appends = registry.counter("artemis_journal_appends_total",
                               "append_batch calls on the journal writer");
  c.records = registry.counter("artemis_journal_records_total",
                               "Observations appended to the journal");
  c.fsyncs =
      registry.counter("artemis_journal_fsyncs_total", "fsync(2) calls");
  c.rotations = registry.counter("artemis_journal_rotations_total",
                                 "Journal segment rotations");
  c.lag_records = registry.gauge(
      "artemis_journal_lag_records",
      "Encoded records buffered in the writer but not yet written");
  c.compressions =
      registry.counter("artemis_journal_compressions_total",
                       "Sealed segments re-stored gzip-compressed");
  c.retention_deletes =
      registry.counter("artemis_journal_retention_deletes_total",
                       "Sealed segments deleted by the retention policy");
  return c;
}

IngestCounters register_ingest(MetricsRegistry& registry) {
  IngestCounters c;
  c.bytes_fetched = registry.counter("artemis_ingest_bytes_fetched_total",
                                     "HTTP body bytes received by fetchers");
  c.fetch_retries = registry.counter("artemis_ingest_fetch_retries_total",
                                     "Fetch attempts beyond the first");
  c.backoff_waits = registry.counter("artemis_ingest_backoff_waits_total",
                                     "Backoff sleeps taken between attempts");
  c.backoff_ms =
      registry.counter("artemis_ingest_backoff_milliseconds_total",
                       "Total milliseconds spent in fetch backoff sleeps");
  c.cursor_persists = registry.counter("artemis_ingest_cursor_persists_total",
                                       "Resume-cursor writes (tmp+rename)");
  c.convert_records = registry.counter("artemis_convert_records_total",
                                       "MRT records decoded by the converter");
  c.convert_skips =
      registry.counter("artemis_convert_skips_total",
                       "Recognized-but-unmodeled MRT records skipped");
  c.converted = registry.counter("artemis_ingest_observations_converted_total",
                                 "Observations produced by conversion");
  c.journaled = registry.counter("artemis_ingest_observations_journaled_total",
                                 "Observations appended to the journal");
  c.skipped = registry.counter(
      "artemis_ingest_observations_skipped_total",
      "Observations skipped while resuming past the journal tail");
  c.dropped = registry.counter("artemis_ingest_observations_dropped_total",
                               "Observations shed by the journal lag policy");
  return c;
}

}  // namespace artemis::telemetry
