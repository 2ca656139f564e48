// The simulated inter-domain network: speakers wired per the AS graph.
//
// Network owns one BgpSpeaker per AS, samples per-link propagation delays,
// and carries updates between speakers with those delays plus a small
// per-message processing jitter. It stands in for the real Internet the
// paper's experiments ran on (through the PEERING testbed), over an AS
// graph generated by src/topology/.
#pragma once

#include <memory>
#include <unordered_map>

#include "rpki/roa.hpp"
#include "sim/simulator.hpp"
#include "sim/speaker.hpp"
#include "topology/as_graph.hpp"
#include "util/rng.hpp"

namespace artemis::sim {

struct NetworkParams {
  /// Per-link one-way propagation delay, sampled uniformly per link.
  SimDuration min_link_delay = SimDuration::millis(10);
  SimDuration max_link_delay = SimDuration::millis(150);
  /// Mean of the exponential per-message processing delay added on top.
  SimDuration processing_delay_mean = SimDuration::millis(20);
  /// MRAI applied to every eBGP session (0 disables pacing; ablation E2).
  SimDuration mrai = SimDuration::seconds(30);
  /// Import filter: longest prefix length accepted by every AS.
  int max_accepted_prefix_len = 24;
  /// RPKI route-origin validation (extension): when `roa_table` is set,
  /// each AS independently enforces ROV with probability `rov_fraction`
  /// (real-world deployment is partial). The table must outlive the
  /// Network.
  const rpki::RoaTable* roa_table = nullptr;
  double rov_fraction = 0.0;
};

class Network {
 public:
  Network(const topo::AsGraph& graph, const NetworkParams& params, Rng rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& simulator() { return sim_; }
  const Simulator& simulator() const { return sim_; }
  const topo::AsGraph& graph() const { return graph_; }
  const NetworkParams& params() const { return params_; }

  BgpSpeaker& speaker(bgp::Asn asn);
  const BgpSpeaker& speaker(bgp::Asn asn) const;

  /// The sampled one-way delay of the (a, b) link.
  SimDuration link_delay(bgp::Asn a, bgp::Asn b) const;

  /// Runs the simulation until no events remain (BGP convergence).
  std::size_t run_to_convergence() { return sim_.run_all(); }

  /// Control-plane origin as seen by `vantage` for `addr` (kNoAsn if the
  /// address is unrouted there).
  bgp::Asn resolve_origin(bgp::Asn vantage, const net::IpAddress& addr) const;

  /// Aggregate counters across all speakers (E5 overhead reporting).
  SpeakerStats total_stats() const;

  /// Number of ASes enforcing route-origin validation.
  std::size_t rov_enforcer_count() const { return rov_enforcers_; }

 private:
  void transmit(bgp::Asn from, bgp::Asn to, const bgp::UpdateMessage& update);
  static std::uint64_t link_key(bgp::Asn a, bgp::Asn b);

  const topo::AsGraph& graph_;
  NetworkParams params_;
  Simulator sim_;
  Rng rng_;
  std::unordered_map<bgp::Asn, std::unique_ptr<BgpSpeaker>> speakers_;
  std::unordered_map<std::uint64_t, SimDuration> link_delays_;
  std::size_t rov_enforcers_ = 0;
};

}  // namespace artemis::sim
