// JSON-driven experiment scenarios.
//
// Everything HijackExperiment needs — topology shape, network timing,
// actors, sources, extensions — expressed as one JSON document, so whole
// experiments are reproducible artifacts (the `scenario_runner` example
// executes them from the command line). Schema:
//
// {
//   "seed": 42,
//   "topology": {"tier1": 10, "tier2": 140, "stubs": 1450,
//                "min_providers": 1, "max_providers": 3,
//                "peering_prob": 0.05},
//   "network":  {"mrai_s": 30, "max_prefix_len": 24,
//                "min_link_delay_ms": 10, "max_link_delay_ms": 150},
//   "experiment": {
//     "victim_prefix": "10.0.0.0/23",
//     "victim": "stub:0", "attacker": "stub:-1",    // or explicit ASNs
//     "hijack_prefix": "10.0.1.0/24",               // optional
//     "forged_first_hop": false,                    // Type-1 attack
//     "hijack_at_s": 3600, "horizon_min": 30,
//     "helper_count": 0,
//     "detect_fake_first_hop": false,
//     "controller_latency_s": 15
//   }
// }
//
// Actor references: "stub:N" / "tier2:N" / "tier1:N" index into the
// generated tiers (negative N counts from the back); a bare number is an
// explicit ASN.
#pragma once

#include <string>

#include "artemis/experiment.hpp"
#include "json/json.hpp"
#include "telemetry/metrics.hpp"
#include "topology/generator.hpp"

namespace artemis::core {

struct Scenario {
  std::uint64_t seed = 42;
  topo::GeneratorParams topology;
  sim::NetworkParams network;
  ExperimentParams experiment;
  /// The generated graph (filled by load/build).
  topo::AsGraph graph;

  /// Runs the scenario (builds the experiment and executes all phases).
  ExperimentResult run() const;
};

/// Parses and materializes a scenario: generates the topology and
/// resolves actor references. Throws json::JsonError /
/// std::invalid_argument on malformed documents.
Scenario load_scenario(const json::Value& doc);
Scenario load_scenario_text(std::string_view text);

/// Serializes a result for machine consumption (the CLI's output).
json::Value result_to_json(const ExperimentResult& result);

struct ReplayRunOptions {
  /// 0 = as fast as possible (no simulator pacing); > 0 = time-warped
  /// replay at this multiple of the recorded pacing.
  double speedup = 0.0;
  /// Overrides the scenario's detection_shards when set (> 0) — the
  /// determinism headline: any shard count yields identical output.
  std::size_t detection_shards = 0;
  std::size_t batch_size = 1024;
  /// When set, the replay app registers telemetry in this registry and
  /// the result JSON gains a "detection_delay_percentiles" object (from
  /// the artemis_detection_delay_seconds histogram over the replayed
  /// sim-clock stream). Observation-only; alerts are unchanged.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Replays a recorded observation journal through a fresh app built from
/// this scenario's config (same ground truth, detection and mitigation
/// wiring — but no live simulation driving the feeds). Returns the
/// replayed detection/mitigation view as JSON: because detection is
/// deterministic in the delivered stream, this must match the recording
/// run's alerts bit-for-bit, for any shard count or replay speed.
/// Throws journal::JournalError on a damaged journal.
json::Value replay_scenario_journal(const Scenario& scenario,
                                    const std::string& journal_dir,
                                    ReplayRunOptions options = {});

}  // namespace artemis::core
