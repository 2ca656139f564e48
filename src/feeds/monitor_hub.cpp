#include "feeds/monitor_hub.hpp"

namespace artemis::feeds {

void MonitorHub::set_metrics(telemetry::MetricsRegistry* registry) {
  registry_ = registry;
  if (registry_ == nullptr) return;
  observations_metric_ =
      registry_->counter("artemis_hub_observations_total",
                         "Observations published through the monitor hub");
  batches_metric_ = registry_->counter(
      "artemis_hub_batches_total", "Batches published through the monitor hub");
  // Sources seen before the registry arrived get their cells now.
  for (std::size_t id = 0; id < sources_.size(); ++id) {
    if (sources_[id].count != 0) register_source_metric(static_cast<SourceId>(id));
  }
}

void MonitorHub::register_source_metric(SourceId id) {
  SourceSlot& slot = sources_[id];
  if (registry_ == nullptr || slot.metric != nullptr) return;
  // Label values are monitor names (ris-live, bgpmon, ...); escape the
  // two characters Prometheus label syntax reserves, just in case.
  const std::string_view name = source_name(id);
  std::string escaped;
  escaped.reserve(name.size());
  for (const char c : name) {
    if (c == '\\' || c == '"') escaped.push_back('\\');
    escaped.push_back(c);
  }
  slot.metric =
      registry_->counter("artemis_source_observations_total",
                         "Observations published per monitoring source",
                         "source=\"" + escaped + "\"");
}

void MonitorHub::publish_batch(std::span<const Observation> batch) {
  if (batch.empty()) return;
  total_ += batch.size();
  if (observations_metric_ != nullptr) {
    observations_metric_->add(batch.size());
    batches_metric_->add();
  }
  // One counter add per run of equal sources (feed batches are single-
  // source; an MRT import interleaves its peers).
  std::size_t i = 0;
  while (i < batch.size()) {
    const SourceId id = batch[i].source;
    std::size_t j = i + 1;
    while (j < batch.size() && batch[j].source == id) ++j;
    if (id >= sources_.size()) sources_.resize(std::size_t{id} + 1);
    SourceSlot& slot = sources_[id];
    if (slot.count == 0) {
      ++seen_sources_;
      register_source_metric(id);
    }
    slot.count += j - i;
    if (slot.metric != nullptr) slot.metric->add(j - i);
    i = j;
  }
  fanout_.emit(batch);
}

void MonitorHub::subscribe_batch(ObservationBatchHandler handler) {
  fanout_.add_batch(std::move(handler));
}

ObservationBatchHandler MonitorHub::batch_inlet() {
  return [this](std::span<const Observation> batch) { publish_batch(batch); };
}

std::map<std::string, std::uint64_t> MonitorHub::per_source_counts() const {
  std::map<std::string, std::uint64_t> out;
  for (std::size_t id = 0; id < sources_.size(); ++id) {
    if (sources_[id].count == 0) continue;
    out.emplace(source_name(static_cast<SourceId>(id)), sources_[id].count);
  }
  return out;
}

std::uint64_t MonitorHub::source_count(std::string_view source) const {
  for (std::size_t id = 0; id < sources_.size(); ++id) {
    if (sources_[id].count != 0 && source_name(static_cast<SourceId>(id)) == source) {
      return sources_[id].count;
    }
  }
  return 0;
}

}  // namespace artemis::feeds
