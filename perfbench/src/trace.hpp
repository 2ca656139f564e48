// In-memory span recorder for the traced run.
//
// The benchmark wraps its own calls into each layer's public functions
// in spans (nothing inside src/ is instrumented). A span has a name, a
// start and end on the steady clock, the span that caused it (nested
// callbacks become children: convert inside inflate's output callback,
// append and submit inside the converter's batch sink) and the batch it
// belongs to. Spans stay in memory until the run ends; the layer of a
// span is its name up to the first '.', and its self time is its
// duration minus the part of it its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

struct Span {
  std::uint32_t name = 0;  ///< index into Tracer::names()
  std::uint32_t parent = kNoSpan;
  std::uint32_t batch = kNoSpan;  ///< pipeline batch the span served, if any
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1u << 16); }

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Interns a span name (cold: call once per name, keep the id).
  std::uint32_t name(std::string_view text);

  /// Opens a span under the innermost open one; returns its index.
  std::uint32_t open(std::uint32_t name) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{name, stack_.empty() ? kNoSpan : stack_.back(), batch_,
                          now_ns(), 0});
    stack_.push_back(id);
    return id;
  }

  void close(std::uint32_t id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Tags spans opened from now on with `batch` (kNoSpan: none).
  void set_batch(std::uint32_t batch) { batch_ = batch; }

  /// RAII span; a null tracer makes it a no-op, so one code path serves
  /// traced and untraced runs wherever the benchmark calls a layer.
  class Scope {
   public:
    Scope(Tracer* tracer, std::uint32_t name)
        : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : 0) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::uint32_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::string> names_;
  std::uint32_t batch_ = kNoSpan;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval. Parents must
/// precede their children (the order Tracer records them in).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-phase, per-layer totals derived from a finished trace. Root spans
/// name the phase ("phase.setup", "phase.pass", "phase.verify"); every
/// other span counts toward the phase of its root and the layer named by
/// its prefix ("mrt.convert" -> "mrt").
struct TraceSummary {
  /// phase -> layer -> self seconds (the root's own self time is under
  /// layer "bench": the benchmark's code between layer calls).
  std::map<std::string, std::map<std::string, double>> layer_self_s;
  /// span name -> self seconds, over every phase.
  std::map<std::string, double> name_self_s;
  /// phase -> summed duration of its root spans (its wall time).
  std::map<std::string, double> phase_wall_s;

  /// Share of a phase's wall time attributed to a layer.
  double share(const std::string& phase, const std::string& layer) const;
  /// Sum of every non-"bench" layer's self time over the phase's wall
  /// time: below 0.9 the spans miss time and the attribution is wrong.
  double coverage(const std::string& phase) const;
};

TraceSummary summarize(const Tracer& tracer);

/// Writes one tab-separated line per span (id, parent, batch, name,
/// phase, start and end in ns relative to the first span). Returns false
/// when the file cannot be written.
bool write_spans(const Tracer& tracer, const std::string& path);

}  // namespace perfbench
