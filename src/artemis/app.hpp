// ArtemisApp: the assembled tool (Fig. 1 of the paper).
//
// Bundles the three services — detection, mitigation, monitoring — around
// one MonitorHub and one Controller, wired exactly as the paper's
// architecture diagram: feeds flow into the hub; detection consumes the
// hub and triggers mitigation; monitoring consumes the same hub to track
// the mitigation's effect.
//
// Detection runs behind the sharded pipeline (src/pipeline/): the hub's
// batch stream is hash-partitioned across `detection_shards` detection
// shards. The pipeline dispatches inline on the delivering thread
// (deterministic, preserves sim-time causality for the mitigation
// trigger); detection_shards == 1 — the default — is behaviorally
// identical to the pre-pipeline wiring.
#pragma once

#include <memory>

#include "artemis/config.hpp"
#include "artemis/controller.hpp"
#include "artemis/detection.hpp"
#include "artemis/mitigation.hpp"
#include "artemis/monitoring.hpp"
#include "feeds/monitor_hub.hpp"
#include "journal/writer.hpp"
#include "pipeline/sharded_detector.hpp"
#include "sim/network.hpp"
#include "telemetry/metrics.hpp"

namespace artemis::core {

struct AppOptions {
  DetectionOptions detection;
  /// Detection shards in the observation pipeline (>1 exercises the
  /// partitioned dedup maps deterministically).
  std::size_t detection_shards = 1;
  /// Controller command latency (paper: ~15 s to announce through ONOS).
  SimDuration controller_latency = SimDuration::seconds(15);
  /// When non-empty, every observation the hub delivers is also recorded
  /// to an on-disk journal in this directory (src/journal/); replaying it
  /// into a fresh app reproduces the detection state bit-identically.
  std::string journal_dir;
  journal::JournalWriterOptions journal;
  /// When set, the app wires telemetry through every stage it owns: the
  /// hub (per-source counters), the journal tap, and the sharded
  /// detector (per-shard cells, detection-delay histogram). Observation-
  /// only — alerts are bit-identical with or without it. Must outlive
  /// the app.
  telemetry::MetricsRegistry* metrics = nullptr;
};

class ArtemisApp {
 public:
  /// `router_asn` is the operator's AS whose routers the controller
  /// commands (the paper's ASN-1).
  ArtemisApp(Config config, sim::Network& network, bgp::Asn router_asn,
             AppOptions options = {});

  ArtemisApp(const ArtemisApp&) = delete;
  ArtemisApp& operator=(const ArtemisApp&) = delete;

  const Config& config() const { return config_; }

  /// Incremental reload: freezes `config` into a new ownership snapshot
  /// and swaps every service onto it — detector shards at a batch
  /// boundary (ShardedDetector::reload), mitigation and monitoring
  /// immediately after. No restart, no re-replay: alert, dedup and
  /// mitigation state survive; observations delivered after reload() are
  /// classified and policied under the new config. Call between hub
  /// deliveries, on the thread that publishes to the hub.
  void reload(Config config);

  /// The ownership snapshot all services currently share.
  const OwnershipTable& ownership() const { return detector_->ownership(); }

  feeds::MonitorHub& hub() { return hub_; }
  /// The first detection shard — the whole service when detection_shards
  /// is 1 (the default). With more shards this view is PARTIAL: register
  /// handlers and read alerts/stats via sharded_detection() instead (the
  /// examples do), or they silently miss hijacks owned by other shards.
  DetectionService& detection() { return detector_->shard(0); }
  pipeline::ShardedDetector& sharded_detection() { return *detector_; }
  const pipeline::ShardedDetector& sharded_detection() const { return *detector_; }
  MitigationService& mitigation() { return *mitigation_; }
  MonitoringService& monitoring() { return *monitoring_; }
  SimController& controller() { return *controller_; }
  /// The observation journal recorder; nullptr unless
  /// AppOptions::journal_dir was set.
  journal::JournalWriter* journal_writer() { return journal_.get(); }

 private:
  Config config_;
  feeds::MonitorHub hub_;
  std::unique_ptr<SimController> controller_;
  std::unique_ptr<journal::JournalWriter> journal_;
  std::unique_ptr<pipeline::ShardedDetector> detector_;
  std::unique_ptr<MitigationService> mitigation_;
  std::unique_ptr<MonitoringService> monitoring_;
};

}  // namespace artemis::core
