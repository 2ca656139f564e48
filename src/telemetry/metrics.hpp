// Zero-allocation telemetry: a registry of relaxed-atomic counters,
// gauges and log2-bucket histograms (ISSUE 8).
//
// The design contract mirrors ShardedDetector's merge-on-read stats:
// metric cells are registered (named, labeled) at startup, each
// registration hands back a stable pointer, and the hot path touches a
// cell with ~1 relaxed atomic store — no locks, no allocation, no
// branching beyond a null check. Registering the same (name, labels)
// pair again deliberately creates a NEW cell: per-shard instances each
// own private cache lines and the registry merges them on read
// (counters and histograms sum, gauges take the max), so instrumented
// shards never contend on a shared counter.
//
// Reads (Prometheus text render, JSON snapshot, quantiles) take the
// registration mutex, walk the cells with relaxed loads, and may
// allocate freely — they run on the scrape path, not the data path.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"

namespace artemis::telemetry {

/// Monotone event count. add() is a single relaxed fetch_add.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level. set() is one relaxed store; update_max() is a
/// relaxed CAS loop that only writes when it would raise the value.
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) noexcept {
    value_.fetch_add(v, std::memory_order_relaxed);
  }
  void update_max(std::int64_t v) noexcept {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  alignas(64) std::atomic<std::int64_t> value_{0};
};

/// A merged, point-in-time view of a histogram (see Histogram).
struct HistogramSnapshot {
  static constexpr std::size_t kBuckets = 65;
  std::uint64_t counts[kBuckets] = {};  ///< per-bucket (non-cumulative)
  std::uint64_t sum = 0;                ///< raw units (e.g. microseconds)
  std::uint64_t max = 0;                ///< exact observed max, raw units
  std::uint64_t total = 0;              ///< total observations

  /// Upper bound (inclusive) of bucket i in raw units: 0 for bucket 0,
  /// 2^i - 1 otherwise.
  static std::uint64_t bucket_upper(std::size_t i) noexcept {
    return i == 0 ? 0 : (i >= 64 ? ~0ull : (1ull << i) - 1);
  }

  /// Quantile estimate in raw units: cumulative walk to the target
  /// bucket, linear interpolation within it, clamped by the exact max.
  /// q in [0, 1]; returns 0 on an empty histogram.
  double quantile(double q) const noexcept;
};

/// Fixed-bucket log2-scale histogram. record() costs three relaxed RMWs
/// (bucket count, sum, conditional max) and never allocates: values map
/// to buckets by bit width, so bucket 0 holds exactly 0 and bucket i
/// holds [2^(i-1), 2^i - 1]. 65 buckets cover the full uint64 range —
/// microsecond delays from sub-microsecond to ~584k years.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = HistogramSnapshot::kBuckets;

  void record(std::uint64_t v) noexcept {
    const std::size_t b = std::bit_width(v);  // 0 for v==0
    counts_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  /// Accumulates this cell into `out` (relaxed loads).
  void merge_into(HistogramSnapshot& out) const noexcept;

 private:
  std::atomic<std::uint64_t> counts_[kBuckets] = {};
  alignas(64) std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// Named, labeled metric cells with merge-on-read rendering.
///
/// Registration (startup, may allocate): counter()/gauge()/histogram()
/// return a stable pointer; cells live in deques so registration never
/// moves them. `labels` is a pre-formatted Prometheus label body
/// (e.g. `source="ris-live"`) or empty.
///
/// Rendering (scrape path): render_prometheus() emits text exposition
/// format; snapshot_json() emits the same data as a JSON object for the
/// --stats-json snapshot extension.
class MetricsRegistry {
 public:
  Counter* counter(std::string_view name, std::string_view help,
                   std::string_view labels = {});
  Gauge* gauge(std::string_view name, std::string_view help,
               std::string_view labels = {});
  /// `scale` multiplies raw recorded units into rendered units (a
  /// microsecond histogram rendered in seconds passes 1e-6).
  Histogram* histogram(std::string_view name, std::string_view help,
                       double scale = 1.0, std::string_view labels = {});

  /// Prometheus text exposition format (version 0.0.4).
  std::string render_prometheus() const;

  /// The same series as a JSON object: name -> {type, value | cells |
  /// histogram fields}. Deterministic (std::map-backed objects).
  json::Value snapshot_json() const;

  /// Merged snapshot of one histogram series by name (all label sets
  /// and cells combined); empty snapshot if the name is unknown.
  HistogramSnapshot histogram_snapshot(std::string_view name) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Cell {
    std::string labels;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };
  struct Series {
    std::string name;
    std::string help;
    Kind kind;
    double scale = 1.0;
    std::vector<Cell> cells;  ///< registration order; merged per label set
  };

  Series& series_for(std::string_view name, std::string_view help, Kind kind,
                     double scale);

  mutable std::mutex mutex_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Series> series_;  ///< registration order drives render order
};

// ---------------------------------------------------------------------------
// Per-stage cell bundles. Each register_* call creates a fresh set of
// cells (per-shard callers call once per shard); components hold the
// bundle by value with null-defaulted pointers, so "telemetry disabled"
// is the default and costs one predictable branch per batch.

/// Detection hot path (one bundle per shard).
struct DetectionCounters {
  Counter* observations = nullptr;      ///< observations processed
  Counter* memo_hits = nullptr;         ///< classification memo hits
  Counter* dedup_hits = nullptr;        ///< already-alerted suppressions
  Counter* alerts = nullptr;            ///< fresh alerts emitted
  Histogram* detection_delay = nullptr; ///< event_time -> detected_at, usec
  bool enabled() const noexcept { return observations != nullptr; }
};
DetectionCounters register_detection(MetricsRegistry& registry);

/// Journal writer (one bundle per writer).
struct JournalCounters {
  Counter* appends = nullptr;    ///< append_batch calls
  Counter* records = nullptr;    ///< observations appended
  Counter* fsyncs = nullptr;     ///< fsync(2) calls
  Counter* rotations = nullptr;  ///< segment rotations
  Gauge* lag_records = nullptr;  ///< buffered-not-yet-written records
  Counter* compressions = nullptr;       ///< sealed segments gzip-compressed
  Counter* retention_deletes = nullptr;  ///< sealed segments reaped by retention
  bool enabled() const noexcept { return appends != nullptr; }
};
JournalCounters register_journal(MetricsRegistry& registry);

/// Ingest front end (one bundle per pipeline/supervisor pair).
struct IngestCounters {
  Counter* bytes_fetched = nullptr;    ///< HTTP body bytes received
  Counter* fetch_retries = nullptr;    ///< fetch retry attempts
  Counter* backoff_waits = nullptr;    ///< backoff sleeps taken
  Counter* backoff_ms = nullptr;       ///< total backoff milliseconds
  Counter* cursor_persists = nullptr;  ///< resume-cursor writes
  Counter* convert_records = nullptr;  ///< MRT records converted
  Counter* convert_skips = nullptr;    ///< unmodeled records skipped
  Counter* converted = nullptr;        ///< observations converted
  Counter* journaled = nullptr;        ///< observations journaled
  Counter* skipped = nullptr;          ///< observations skipped on resume
  Counter* dropped = nullptr;          ///< observations shed by lag policy
  bool enabled() const noexcept { return converted != nullptr; }
};
IngestCounters register_ingest(MetricsRegistry& registry);

}  // namespace artemis::telemetry
