// Small statistics helpers shared by the workloads and their tests:
// percentile selection that never reports a tail it has too few samples
// for, and the open-loop generator's lateness ledger.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of `values`; sorts in place.
/// Returns 0 for an empty sample.
inline double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double exact = p / 100.0 * static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

inline double median(std::vector<double> values) { return percentile(values, 50.0); }

/// Samples ranked strictly above the nearest-rank `p` percentile of `n`.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return rank >= n ? 0 : n - rank;
}

/// The highest reporting percentile (99.9, 99, 95, 90, 75, 50) that has
/// at least `min_beyond` samples above it, or nullopt when even the
/// median does not. A tail percentile with fewer samples beyond it is
/// one or two observations, not a distribution.
inline std::optional<double> highest_supported_percentile(std::size_t n,
                                                          std::size_t min_beyond = 10) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return std::nullopt;
}

/// A tail value reported under a fixed name ("p99"): the requested
/// percentile when the sample supports it, else the highest one it does
/// support (the median for tiny samples). `used` says which it was.
inline double tail_percentile(std::vector<double>& values, double wanted, double& used) {
  const auto supported = highest_supported_percentile(values.size());
  used = supported ? std::min(wanted, *supported) : 50.0;
  return percentile(values, used);
}

/// Open-loop bookkeeping: every operation has a due time fixed by the
/// schedule, independent of how fast earlier ones completed. Lateness is
/// how far behind schedule the generator was when it sent an operation;
/// latencies are measured from the due time, so a stall is charged to
/// every operation queued behind it instead of vanishing.
class OpenLoopLedger {
 public:
  /// The generator idled `ns` waiting for the next due time.
  void on_wait(std::int64_t ns) { waited_ns_ += ns; }

  /// The operation due at `due_ns` was sent at `sent_ns`; returns (and
  /// records) its lateness, 0 when sent on time.
  std::int64_t on_send(std::int64_t due_ns, std::int64_t sent_ns) {
    const std::int64_t late = sent_ns > due_ns ? sent_ns - due_ns : 0;
    lateness_ms_.push_back(static_cast<double>(late) / 1e6);
    return late;
  }

  /// Latency of an operation due at `due_ns` whose result arrived at
  /// `done_ns` (always from the due time, never from the send time).
  static double latency_ms(std::int64_t due_ns, std::int64_t done_ns) {
    return static_cast<double>(done_ns - due_ns) / 1e6;
  }

  std::size_t sent() const { return lateness_ms_.size(); }
  std::int64_t waited_ns() const { return waited_ns_; }
  /// The highest supported percentile of lateness (see tail_percentile).
  double lateness_tail_ms(double& used) const {
    std::vector<double> copy = lateness_ms_;
    return tail_percentile(copy, 99.0, used);
  }

 private:
  std::vector<double> lateness_ms_;
  std::int64_t waited_ns_ = 0;
};

}  // namespace perfbench
