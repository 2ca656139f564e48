// Shared subscriber registry for the observation pipeline.
//
// Every producer (feeds, MonitorHub) emits whole batches and every
// consumer takes them whole: one std::function call per batch per
// subscriber, never one per observation.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "feeds/observation.hpp"

namespace artemis::feeds {

class ObservationFanout {
 public:
  void add_batch(ObservationBatchHandler handler) {
    batch_.push_back(std::move(handler));
  }

  /// Delivers one batch to every subscriber, in subscription order. The
  /// span must stay valid for the duration of the call only.
  void emit(std::span<const Observation> batch) const {
    if (batch.empty()) return;
    for (const auto& handler : batch_) handler(batch);
  }

 private:
  std::vector<ObservationBatchHandler> batch_;
};

}  // namespace artemis::feeds
