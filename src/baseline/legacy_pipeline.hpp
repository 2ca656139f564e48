// Legacy detection/mitigation pipelines the paper argues against (§1).
//
// A LegacyPipeline couples a detector fed by some BGP data source with a
// human-operator model:
//   (i)   data availability delay — supplied by the feed (BatchFeed's
//         15-min update archives / 2-h RIBs, or a streaming alert service
//         like PHAS/BGPmon alerts);
//   (ii)  manual verification — the operator must confirm the third-party
//         notification is not a false alarm before acting;
//   (iii) manual mitigation — reconfiguring routers / contacting other
//         ASes to filter (the YouTube incident's ~80 min reaction).
// The pipeline reuses ARTEMIS's DetectionService for the route checks, so
// the comparison isolates exactly the paper's argument: the *pipeline*,
// not the classifier, is what is slow.
#pragma once

#include <optional>
#include <string>

#include "artemis/config.hpp"
#include "artemis/detection.hpp"
#include "feeds/observation.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace artemis::baseline {

struct OperatorModel {
  /// Time for a human to pick up and verify a third-party alert.
  /// Defaults follow the paper's motivating numbers: tens of minutes.
  SimDuration verification_min = SimDuration::minutes(10);
  SimDuration verification_max = SimDuration::minutes(40);
  /// Time to manually effect mitigation (router reconfig, emails to
  /// upstreams). YouTube 2008: ~80 min from hijack to reaction overall.
  SimDuration mitigation_min = SimDuration::minutes(15);
  SimDuration mitigation_max = SimDuration::minutes(60);
};

struct LegacyTimings {
  SimTime data_available_at;      ///< offending route delivered by the feed
  SimTime verified_at;            ///< operator confirmed the hijack
  SimTime mitigation_done_at;     ///< manual mitigation completed
};

/// Consumes observations (attach to any feed), raises a timeline for the
/// first detected hijack.
class LegacyPipeline {
 public:
  LegacyPipeline(const core::Config& config, sim::Simulator& sim, OperatorModel model,
                 Rng rng, std::string name);

  /// Batch handler to subscribe to a feed (feeds::*::subscribe_batch).
  feeds::ObservationBatchHandler batch_inlet();

  const std::string& name() const { return name_; }

  /// Timings of the first hijack this pipeline saw; nullopt if none yet.
  std::optional<LegacyTimings> first_hijack() const { return timings_; }

 private:
  core::DetectionService detector_;
  sim::Simulator& sim_;
  OperatorModel model_;
  Rng rng_;
  std::string name_;
  std::optional<LegacyTimings> timings_;
};

}  // namespace artemis::baseline
