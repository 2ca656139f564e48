#include "journal/replay.hpp"

#include <stdexcept>

namespace artemis::journal {

ReplayFeed::ReplayFeed(JournalReader& reader, ReplayOptions options)
    : reader_(reader), options_(options) {
  if (options_.batch_size == 0) {
    throw std::invalid_argument("ReplayOptions::batch_size must be > 0");
  }
  if (!(options_.speedup > 0.0)) {
    throw std::invalid_argument("ReplayOptions::speedup must be > 0");
  }
  buffer_.reserve(options_.batch_size);
  if (!options_.filter.is_trivial()) {
    // Predicate replay: push the filter down to the reader (footer-based
    // segment pruning + exact per-record filtering).
    reader_.set_filter(options_.filter);
  }
}

std::uint64_t ReplayFeed::replay_all(const feeds::ObservationBatchHandler& sink) {
  std::uint64_t delivered = 0;
  while (reader_.read_batch(buffer_, options_.batch_size) != 0) {
    sink(buffer_.view());
    delivered += buffer_.size();
  }
  replayed_ += delivered;
  return delivered;
}

std::uint64_t ReplayFeed::replay_all(feeds::MonitorHub& hub) {
  return replay_all(hub.batch_inlet());
}

void ReplayFeed::schedule(sim::Simulator& sim, feeds::ObservationBatchHandler sink) {
  sink_ = std::move(sink);
  cursor_ = 0;
  buffer_.clear();
  schedule_next(sim);
}

void ReplayFeed::schedule_next(sim::Simulator& sim) {
  if (cursor_ >= buffer_.size()) {
    cursor_ = 0;
    if (reader_.read_batch(buffer_, options_.batch_size) == 0) return;  // done
  }
  const SimTime recorded = buffer_[cursor_].delivered_at;
  const auto warped = SimTime::at_micros(static_cast<std::int64_t>(
      static_cast<double>(recorded.as_micros()) / options_.speedup));
  sim.at(warped, [this, &sim, recorded] {
    // Emit the whole run sharing this delivery instant as one batch —
    // the same framing a live hub would have seen at that moment.
    std::size_t end = cursor_;
    while (end < buffer_.size() && buffer_[end].delivered_at == recorded) ++end;
    const auto batch = buffer_.view().subspan(cursor_, end - cursor_);
    replayed_ += batch.size();
    cursor_ = end;
    sink_(batch);
    schedule_next(sim);
  });
}

}  // namespace artemis::journal
