// Streaming BGP feeds: the RIPE RIS streaming service and BGPmon.
//
// A StreamFeed models a route collector with live streaming delivery:
// the collector peers with a set of vantage ASes; every best-route change
// at a vantage is shipped to subscribers after a per-message delivery
// latency (collection + queuing + stream transport), drawn from a
// log-normal distribution. The paper's key argument is that this latency
// is *seconds*, vs minutes-to-hours for the archive pipeline (BatchFeed).
//
// Delivery is message-framed, as on the real stream: one collector
// message carries every observation of one vantage update (all announced
// and withdrawn prefixes), arrives after one sampled latency, and is
// handed to subscribers as a single batch. Messages still reorder freely
// against each other, as with real RIS-live.
#pragma once

#include <string>
#include <vector>

#include "feeds/fanout.hpp"
#include "feeds/observation.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"

namespace artemis::feeds {

struct StreamFeedParams {
  std::string name = "ris-live";
  /// Vantage ASes the collector peers with.
  std::vector<bgp::Asn> vantages;
  /// Delivery latency: log-normal with this median and sigma (of the
  /// underlying normal). Defaults approximate the 2016-era RIS streaming
  /// prototype / BGPmon (median ~15 s, heavy tail; see EXPERIMENTS.md
  /// calibration notes).
  SimDuration median_latency = SimDuration::seconds(15);
  double latency_sigma = 0.8;
};

class StreamFeed {
 public:
  /// Installs taps on all vantages. The feed must outlive the network use.
  StreamFeed(sim::Network& network, StreamFeedParams params, Rng rng);

  StreamFeed(const StreamFeed&) = delete;
  StreamFeed& operator=(const StreamFeed&) = delete;

  /// Registers a batch subscriber; called (in simulated time) once per
  /// delivered collector message (all observations of one vantage
  /// update).
  void subscribe_batch(ObservationBatchHandler handler);

  const std::string& name() const { return params_.name; }
  const std::vector<bgp::Asn>& vantages() const { return params_.vantages; }

  /// Total observations delivered so far (overhead accounting, E5).
  std::uint64_t delivered_count() const { return delivered_; }

 private:
  void on_vantage_update(bgp::Asn vantage, const bgp::UpdateMessage& update);
  SimDuration sample_latency();

  sim::Network& network_;
  StreamFeedParams params_;
  SourceId source_;  ///< params_.name, interned
  Rng rng_;
  ObservationFanout fanout_;
  std::uint64_t delivered_ = 0;
};

}  // namespace artemis::feeds
