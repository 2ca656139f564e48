#include "artemis/app.hpp"

#include <memory>

namespace artemis::core {

ArtemisApp::ArtemisApp(Config config, sim::Network& network, bgp::Asn router_asn,
                       AppOptions options)
    : config_(std::move(config)) {
  controller_ =
      std::make_unique<SimController>(network, router_asn, options.controller_latency);
  pipeline::ShardedDetectorOptions detector_options;
  detector_options.shards = options.detection_shards;
  detector_options.detection = options.detection;
  detector_options.metrics = options.metrics;
  // One frozen snapshot feeds all three services — the config trie is
  // built once, not once per service (or per shard).
  auto table = config_.build_table();
  detector_ = std::make_unique<pipeline::ShardedDetector>(table, detector_options);
  hub_.set_metrics(options.metrics);
  mitigation_ =
      std::make_unique<MitigationService>(table, *controller_, network.simulator());
  monitoring_ = std::make_unique<MonitoringService>(std::move(table));

  if (!options.journal_dir.empty()) {
    // The tap subscribes before the detector so the recorded stream is
    // complete even if a downstream alert handler throws mid-batch.
    journal_ =
        std::make_unique<journal::JournalWriter>(options.journal_dir, options.journal);
    if (options.metrics != nullptr) {
      journal_->set_metrics(telemetry::register_journal(*options.metrics));
    }
    journal_->attach(hub_);
  }
  detector_->attach(hub_);
  monitoring_->attach(hub_);
  // Alerts from every shard feed the one mitigation service (its own
  // dedup keeps a single plan per hijack, and it checks the owning
  // tenant's auto_mitigate per alert). Registered unconditionally — not
  // gated on any_auto_mitigate() — because a reload() can switch a
  // tenant's policy on later.
  detector_->on_alert([m = mitigation_.get()](const HijackAlert& alert) {
    m->handle_alert(alert);
  });
}

void ArtemisApp::reload(Config config) {
  config_ = std::move(config);
  auto table = config_.build_table();
  // Detection dispatches inline, so between two hub deliveries every
  // shard sits at a batch boundary and no alert handler (mitigation) is
  // mid-flight: all three swaps are plain writes from this thread.
  detector_->reload(table);
  mitigation_->set_ownership(table);
  monitoring_->set_ownership(std::move(table));
}

}  // namespace artemis::core
