#include "pipeline/sharded_detector.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <tuple>

namespace artemis::pipeline {

ShardedDetector::ShardedDetector(std::shared_ptr<const core::OwnershipTable> table,
                                 ShardedDetectorOptions options) {
  const std::size_t count = std::max<std::size_t>(1, options.shards);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<core::DetectionService>(table, options.detection));
    if (options.metrics != nullptr) {
      // One cell bundle per shard: private cache lines on the hot path,
      // merged on read by the registry — the same shape as the
      // detector's own merged-on-read stats.
      shards_.back()->set_metrics(telemetry::register_detection(*options.metrics));
      shards_.back()->set_tenant_metrics(options.metrics);
    }
  }
}

ShardedDetector::ShardedDetector(const core::Config& config,
                                 ShardedDetectorOptions options)
    : ShardedDetector(config.build_table(), options) {}

std::size_t ShardedDetector::shard_of(const net::Prefix& prefix,
                                      std::size_t shard_count) {
  return std::hash<net::Prefix>{}(prefix) % shard_count;
}

void ShardedDetector::submit(const feeds::Observation& obs) {
  shard_for(obs.prefix).process(obs);
}

void ShardedDetector::submit_batch(std::span<const feeds::Observation> batch) {
  if (shards_.size() == 1) {
    shards_[0]->process_batch(batch);
    return;
  }
  // Multi-shard: hand each maximal same-shard run to its shard as a
  // zero-copy sub-span, so the batch amortization (classification and
  // dedup memoization) survives the partitioning on the bursty streams
  // feeds actually produce (a run of one route is a run of one shard).
  // Worst case (fully interleaved shards) degrades to span-of-one calls
  // — the same cost as per-observation dispatch, still without copying.
  // Per-shard observation order equals submission order, so output is
  // identical to any other dispatch.
  std::size_t i = 0;
  while (i < batch.size()) {
    const std::size_t target = shard_of(batch[i].prefix, shards_.size());
    std::size_t j = i + 1;
    while (j < batch.size() && shard_of(batch[j].prefix, shards_.size()) == target) {
      ++j;
    }
    shards_[target]->process_batch(batch.subspan(i, j - i));
    i = j;
  }
}

void ShardedDetector::attach(feeds::MonitorHub& hub) {
  hub.subscribe_batch(
      [this](std::span<const feeds::Observation> batch) { submit_batch(batch); });
}

void ShardedDetector::on_alert(core::AlertHandler handler) {
  for (auto& shard : shards_) shard->on_alert(handler);
}

void ShardedDetector::reload(std::shared_ptr<const core::OwnershipTable> table) {
  if (table == nullptr) {
    throw std::invalid_argument("ShardedDetector::reload: null table");
  }
  for (auto& shard : shards_) shard->set_ownership(table);
}

std::vector<core::HijackAlert> ShardedDetector::merged_alerts() const {
  std::vector<core::HijackAlert> out;
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->alerts().size();
  out.reserve(total);
  for (const auto& shard : shards_) {
    const auto& alerts = shard->alerts();
    out.insert(out.end(), alerts.begin(), alerts.end());
  }
  std::sort(out.begin(), out.end(),
            [](const core::HijackAlert& a, const core::HijackAlert& b) {
              return std::tuple(a.detected_at.as_micros(), a.type,
                                a.observed_prefix, a.offender, a.tenant) <
                     std::tuple(b.detected_at.as_micros(), b.type,
                                b.observed_prefix, b.offender, b.tenant);
            });
  return out;
}

std::uint64_t ShardedDetector::observations_processed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->observations_processed();
  return total;
}

std::uint64_t ShardedDetector::observations_matched() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->observations_matched();
  return total;
}

std::uint64_t ShardedDetector::observation_count(const core::AlertKey& key) const {
  return shard_for(key.observed_prefix).observation_count(key);
}

const core::FirstSeenBySource* ShardedDetector::first_seen_by_source(
    const core::AlertKey& key) const {
  return shard_for(key.observed_prefix).first_seen_by_source(key);
}

}  // namespace artemis::pipeline
