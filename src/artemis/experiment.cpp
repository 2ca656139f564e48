#include "artemis/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "topology/cone.hpp"

namespace artemis::core {
namespace {

std::vector<net::IpAddress> truth_sample_points(const net::Prefix& owned) {
  if (owned.length() >= owned.max_length()) return {owned.address()};
  const auto [low, high] = owned.split();
  return {low.address(), high.address()};
}

}  // namespace

std::vector<bgp::Asn> recruit_helpers(const topo::AsGraph& graph,
                                      const ExperimentParams& params) {
  if (!params.helpers.empty() || params.helper_count <= 0) return params.helpers;
  const auto cone_sizes = topo::customer_cone_sizes(graph);
  std::vector<bgp::Asn> candidates;
  for (const auto asn : graph.all_ases()) {
    if (asn == params.victim || asn == params.attacker) continue;
    candidates.push_back(asn);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&cone_sizes](bgp::Asn a, bgp::Asn b) {
              const auto sa = cone_sizes.at(a);
              const auto sb = cone_sizes.at(b);
              return sa != sb ? sa > sb : a < b;
            });
  candidates.resize(std::min<std::size_t>(
      candidates.size(), static_cast<std::size_t>(params.helper_count)));
  return candidates;
}

Config build_experiment_config(const topo::AsGraph& graph,
                               const ExperimentParams& params,
                               const std::vector<bgp::Asn>& helpers) {
  // The victim owns the prefix; its direct neighbors are the legitimate
  // upstreams (for the Type-1 extension). Helper ASes are legitimate
  // origins too: traffic they attract is tunneled back.
  Config config;
  OwnedPrefix owned;
  owned.prefix = params.victim_prefix;
  owned.legitimate_origins.insert(params.victim);
  for (const auto helper : helpers) owned.legitimate_origins.insert(helper);
  for (const auto& neighbor : graph.neighbors(params.victim)) {
    owned.legitimate_neighbors.insert(neighbor.asn);
  }
  // Helpers originate during outsourced mitigation; their neighbors must
  // be acceptable first hops or the Type-1 check would self-alert on the
  // mitigation announcements.
  for (const auto helper : helpers) {
    for (const auto& neighbor : graph.neighbors(helper)) {
      owned.legitimate_neighbors.insert(neighbor.asn);
    }
  }
  config.add_owned(std::move(owned));
  return config;
}

std::vector<std::unique_ptr<SimController>> wire_helpers(
    ArtemisApp& app, sim::Network& network, const std::vector<bgp::Asn>& helpers,
    SimDuration controller_latency) {
  std::vector<std::unique_ptr<SimController>> controllers;
  for (const auto helper : helpers) {
    controllers.push_back(
        std::make_unique<SimController>(network, helper, controller_latency));
    app.mitigation().add_helper(*controllers.back());
  }
  return controllers;
}

std::optional<SimDuration> ExperimentResult::detection_delay() const {
  if (!detected_at) return std::nullopt;
  return *detected_at - hijack_at;
}

std::optional<SimDuration> ExperimentResult::mitigation_start_delay() const {
  if (!detected_at || !announcements_applied_at) return std::nullopt;
  return *announcements_applied_at - *detected_at;
}

std::optional<SimDuration> ExperimentResult::mitigation_duration() const {
  if (!announcements_applied_at || !truth_converged_at) return std::nullopt;
  return *truth_converged_at - *announcements_applied_at;
}

std::optional<SimDuration> ExperimentResult::total_duration() const {
  if (!truth_converged_at) return std::nullopt;
  return *truth_converged_at - hijack_at;
}

std::string ExperimentResult::summary() const {
  std::string out = "hijack at " + hijack_at.to_string();
  if (const auto d = detection_delay()) {
    out += "; detected after " + d->to_string() + " (" + detection_source + ")";
  } else {
    out += "; NOT detected";
  }
  if (const auto d = mitigation_start_delay()) {
    out += "; announcements out after " + d->to_string();
  }
  if (const auto d = mitigation_duration()) {
    out += "; converged " + d->to_string() + " later";
  }
  if (const auto d = total_duration()) {
    out += "; total " + d->to_string();
  } else if (detected_at) {
    out += "; mitigation did not complete";
  }
  return out;
}

HijackExperiment::HijackExperiment(const topo::AsGraph& graph,
                                   const sim::NetworkParams& net_params,
                                   ExperimentParams params, Rng rng)
    : params_(std::move(params)) {
  if (params_.victim == bgp::kNoAsn || params_.attacker == bgp::kNoAsn) {
    throw std::invalid_argument("experiment needs victim and attacker ASNs");
  }
  network_ = std::make_unique<sim::Network>(graph, net_params, rng.fork("network"));

  // Default vantage selection: real RIS/BGPmon peers and public looking
  // glasses span the whole hierarchy — a few tier-1s, many regional
  // transits, and plenty of edge networks. Sample uniformly from all ASes
  // so detection sees a close vantage quickly while full re-convergence
  // must reach deep stubs (the paper's minutes-long tail).
  if ((params_.enable_ris && params_.ris.vantages.empty()) ||
      (params_.enable_bgpmon && params_.bgpmon.vantages.empty()) ||
      (params_.enable_periscope && params_.looking_glasses.empty())) {
    std::vector<bgp::Asn> pool = graph.all_ases();
    // The victim/attacker should not host monitors.
    std::erase(pool, params_.victim);
    std::erase(pool, params_.attacker);
    auto selection_rng = rng.fork("vantage-selection");
    selection_rng.shuffle(pool.data(), pool.size());
    std::size_t cursor = 0;
    auto take = [&pool, &cursor](std::size_t n) {
      std::vector<bgp::Asn> out;
      while (out.size() < n && cursor < pool.size()) out.push_back(pool[cursor++]);
      return out;
    };
    if (params_.enable_ris && params_.ris.vantages.empty()) {
      params_.ris.vantages = take(8);
    }
    if (params_.enable_bgpmon && params_.bgpmon.vantages.empty()) {
      params_.bgpmon.vantages = take(8);
    }
    if (params_.enable_periscope && params_.looking_glasses.empty()) {
      for (const auto asn : take(6)) {
        feeds::LookingGlassParams lg;
        lg.asn = asn;
        params_.looking_glasses.push_back(lg);
      }
    }
  }
  params_.ris.name = params_.ris.name.empty() ? "ris-live" : params_.ris.name;
  if (params_.bgpmon.name == "ris-live") params_.bgpmon.name = "bgpmon";

  // Mitigation outsourcing (extension): recruit helper organizations and
  // derive the operator config they participate in. Both steps are
  // shared with journal replay (replay_scenario_journal), which must
  // reconstruct the recording run's exact ground truth.
  helpers_ = recruit_helpers(graph, params_);
  Config config = build_experiment_config(graph, params_, helpers_);
  legit_origins_ = config.owned().front().legitimate_origins;
  // The live simulation always dispatches detection inline: alert
  // handlers schedule sim events mid-delivery, which only preserves
  // sim-time causality on the sim thread. Threaded detection is a
  // replay/ingest feature (replay_scenario_journal honors it).
  AppOptions app_options = params_.app;
  app_options.detection_threaded = false;
  app_ = std::make_unique<ArtemisApp>(std::move(config), *network_, params_.victim,
                                      app_options);
  helper_controllers_ =
      wire_helpers(*app_, *network_, helpers_, params_.app.controller_latency);

  std::unordered_set<bgp::Asn> seen;
  auto add_vantages = [this, &seen](const std::vector<bgp::Asn>& vantages) {
    for (const auto asn : vantages) {
      if (seen.insert(asn).second) vantage_union_.push_back(asn);
    }
  };
  if (params_.enable_ris) {
    ris_ = std::make_unique<feeds::StreamFeed>(*network_, params_.ris, rng.fork("ris"));
    ris_->subscribe_batch(app_->hub().batch_inlet());
    add_vantages(params_.ris.vantages);
  }
  if (params_.enable_bgpmon) {
    if (params_.bgpmon.name == "ris-live") params_.bgpmon.name = "bgpmon";
    bgpmon_ = std::make_unique<feeds::StreamFeed>(*network_, params_.bgpmon,
                                                  rng.fork("bgpmon"));
    bgpmon_->subscribe_batch(app_->hub().batch_inlet());
    add_vantages(params_.bgpmon.vantages);
  }
  if (params_.enable_periscope) {
    periscope_ = std::make_unique<feeds::PeriscopeClient>(
        *network_, params_.looking_glasses, params_.periscope, rng.fork("periscope"));
    periscope_->monitor_prefix(params_.victim_prefix);
    periscope_->subscribe_batch(app_->hub().batch_inlet());
    std::vector<bgp::Asn> lg_ases;
    for (const auto& lg : params_.looking_glasses) lg_ases.push_back(lg.asn);
    add_vantages(lg_ases);
  }
  if (vantage_union_.empty()) {
    throw std::invalid_argument("experiment needs at least one monitoring source");
  }
  vantage_weights_ = topo::cone_weights(graph, vantage_union_);
}

bool HijackExperiment::truth_vantage_legitimate(bgp::Asn vantage) const {
  // Legitimate = every sample resolves to a legitimate origin AND none of
  // the traffic flows through the attacker (the latter matters for
  // forged-origin attacks, where the origin *looks* right).
  for (const auto& addr : truth_sample_points(params_.victim_prefix)) {
    if (!legit_origins_.contains(network_->resolve_origin(vantage, addr))) return false;
  }
  return !truth_vantage_hijacked(vantage);
}

double HijackExperiment::truth_fraction() const {
  std::size_t legit = 0;
  for (const auto vantage : vantage_union_) {
    if (truth_vantage_legitimate(vantage)) ++legit;
  }
  return static_cast<double>(legit) / static_cast<double>(vantage_union_.size());
}

bool HijackExperiment::truth_vantage_hijacked(bgp::Asn vantage) const {
  // A vantage is captured when its traffic for any sample address flows
  // through the attacker. Checking the AS path (not just the origin)
  // covers forged-origin (Type-1) attacks, where the route *claims* to
  // end at the victim while actually terminating at the attacker.
  const auto& speaker = network_->speaker(vantage);
  for (const auto& addr : truth_sample_points(params_.victim_prefix)) {
    const auto route = speaker.forwarding_route(addr);
    if (route && route->attrs.as_path.contains(params_.attacker)) return true;
  }
  return false;
}

double HijackExperiment::truth_hijacked_fraction() const {
  std::size_t hijacked = 0;
  for (const auto vantage : vantage_union_) {
    if (truth_vantage_hijacked(vantage)) ++hijacked;
  }
  return static_cast<double>(hijacked) / static_cast<double>(vantage_union_.size());
}

double HijackExperiment::truth_hijacked_impact() const {
  double impact = 0.0;
  for (const auto vantage : vantage_union_) {
    if (truth_vantage_hijacked(vantage)) impact += vantage_weights_.at(vantage);
  }
  return impact;
}

ExperimentResult HijackExperiment::run() {
  ExperimentResult result;
  result.hijack_at = params_.hijack_at;

  auto& sim = network_->simulator();
  auto& victim_speaker = network_->speaker(params_.victim);
  auto& attacker_speaker = network_->speaker(params_.attacker);

  // Phase 1: victim announces at t=0.
  const net::Prefix victim_prefix = params_.victim_prefix;
  sim.at(SimTime::zero(), [&victim_speaker, victim_prefix] {
    victim_speaker.originate(victim_prefix);
  });

  // Phase 2: the hijack.
  const net::Prefix hijack_prefix = params_.hijack_prefix.value_or(victim_prefix);
  const auto forged = params_.forged_path;
  const bgp::Asn attacker = params_.attacker;
  sim.at(params_.hijack_at, [&attacker_speaker, hijack_prefix, forged, attacker] {
    if (forged) {
      attacker_speaker.originate_with_path(hijack_prefix, *forged);
    } else {
      attacker_speaker.originate(hijack_prefix);
    }
  });

  // Timeline probes: ground truth + feed view, every probe_interval, from
  // shortly before the hijack to the horizon (stopping early once both
  // views have re-converged).
  const SimTime probe_start = params_.hijack_at - params_.probe_interval * 10.0;
  const SimTime end_time = params_.hijack_at + params_.horizon;
  struct ProbeState {
    bool done = false;
  };
  auto probe_state = std::make_shared<ProbeState>();
  std::function<void()> probe = [this, &result, probe_state, end_time, &sim, &probe]() {
    if (probe_state->done) return;
    TimelineSample sample;
    sample.when = sim.now();
    const double feed = app_->monitoring().fraction_legitimate(params_.victim_prefix);
    sample.feed_fraction = std::isnan(feed) ? 0.0 : feed;
    sample.truth_fraction = truth_fraction();
    result.timeline.push_back(sample);
    result.max_hijacked_fraction =
        std::max(result.max_hijacked_fraction, truth_hijacked_fraction());
    result.max_hijacked_impact =
        std::max(result.max_hijacked_impact, truth_hijacked_impact());

    const bool mitigated = !app_->mitigation().records().empty();
    if (mitigated && !result.feed_converged_at &&
        app_->monitoring().all_legitimate(params_.victim_prefix)) {
      result.feed_converged_at = sim.now();
    }
    if (mitigated && !result.truth_converged_at && sample.truth_fraction >= 1.0) {
      result.truth_converged_at = sim.now();
    }
    // Keep probing a little past convergence to show the plateau.
    if (result.feed_converged_at && result.truth_converged_at &&
        sim.now() > *result.feed_converged_at + SimDuration::seconds(30) &&
        sim.now() > *result.truth_converged_at + SimDuration::seconds(30)) {
      probe_state->done = true;
      return;
    }
    if (sim.now() + params_.probe_interval <= end_time) {
      sim.after(params_.probe_interval, probe);
    }
  };
  sim.at(probe_start, probe);

  sim.run_until(end_time);

  // Harvest measurements. The merged view works for any shard count (and
  // is the plain alert list when detection runs unsharded).
  const auto alerts = app_->sharded_detection().merged_alerts();
  if (!alerts.empty()) {
    const auto& first = alerts.front();
    result.detected_at = first.detected_at;
    result.detection_source = first.source;
    if (const auto* by_source =
            app_->sharded_detection().first_seen_by_source(first.key())) {
      // The result keeps a std::map so reports and JSON iterate sorted.
      for (const auto& [source, at] : *by_source) {
        result.detection_by_source.emplace(feeds::source_name(source), at);
      }
    }
  }
  const auto& mitigations = app_->mitigation().records();
  if (!mitigations.empty()) {
    const auto& record = mitigations.front();
    result.mitigation_triggered_at = record.triggered_at;
    result.mitigation_announcements = record.plan.announcements;
    result.deaggregation_possible = record.plan.deaggregation_possible;
    result.helpers_used = record.helpers_used;
  }
  SimTime last_applied = SimTime::zero();
  for (const auto& cmd : app_->controller().log()) {
    if (cmd.kind == ControllerCommand::Kind::kAnnounce) {
      last_applied = std::max(last_applied, cmd.applied_at);
    }
  }
  if (last_applied > SimTime::zero()) result.announcements_applied_at = last_applied;

  return result;
}

}  // namespace artemis::core
