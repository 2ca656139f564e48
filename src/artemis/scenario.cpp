#include "artemis/scenario.hpp"

#include <stdexcept>

#include "journal/reader.hpp"
#include "journal/replay.hpp"
#include "util/strings.hpp"

namespace artemis::core {
namespace {

/// Resolves "stub:N" / "tier2:N" / "tier1:N" / "<asn>" actor references.
bgp::Asn resolve_actor(const topo::AsGraph& graph, const std::string& ref) {
  const auto fields = split(ref, ':');
  if (fields.size() == 1) {
    const auto asn = parse_u32(fields[0]);
    if (!asn || *asn == 0 || !graph.has_as(*asn)) {
      throw std::invalid_argument("unknown actor ASN: " + ref);
    }
    return *asn;
  }
  if (fields.size() != 2) throw std::invalid_argument("bad actor reference: " + ref);
  topo::Tier tier;
  if (fields[0] == "tier1") {
    tier = topo::Tier::kTier1;
  } else if (fields[0] == "tier2") {
    tier = topo::Tier::kTier2;
  } else if (fields[0] == "stub") {
    tier = topo::Tier::kStub;
  } else {
    throw std::invalid_argument("bad actor tier: " + ref);
  }
  const auto members = graph.ases_in_tier(tier);
  if (members.empty()) throw std::invalid_argument("tier is empty: " + ref);
  std::string_view index_text = fields[1];
  bool from_back = false;
  if (!index_text.empty() && index_text.front() == '-') {
    from_back = true;
    index_text.remove_prefix(1);
  }
  const auto index = parse_u64(index_text);
  if (!index) throw std::invalid_argument("bad actor index: " + ref);
  std::size_t position = 0;
  if (from_back) {
    if (*index == 0 || *index > members.size()) {
      throw std::invalid_argument("actor index out of range: " + ref);
    }
    position = members.size() - *index;
  } else {
    if (*index >= members.size()) {
      throw std::invalid_argument("actor index out of range: " + ref);
    }
    position = *index;
  }
  return members[position];
}

}  // namespace

Scenario load_scenario(const json::Value& doc) {
  Scenario scenario;
  scenario.seed = static_cast<std::uint64_t>(doc.get_int("seed", 42));

  if (const auto* topology = doc.find("topology")) {
    scenario.topology.tier1_count = static_cast<int>(topology->get_int("tier1", 10));
    scenario.topology.tier2_count = static_cast<int>(topology->get_int("tier2", 140));
    scenario.topology.stub_count = static_cast<int>(topology->get_int("stubs", 1450));
    scenario.topology.min_providers =
        static_cast<int>(topology->get_int("min_providers", 1));
    scenario.topology.max_providers =
        static_cast<int>(topology->get_int("max_providers", 3));
    scenario.topology.tier2_peering_prob = topology->get_number("peering_prob", 0.05);
  }

  if (const auto* network = doc.find("network")) {
    scenario.network.mrai = SimDuration::seconds(network->get_number("mrai_s", 30.0));
    scenario.network.max_accepted_prefix_len =
        static_cast<int>(network->get_int("max_prefix_len", 24));
    scenario.network.min_link_delay =
        SimDuration::millis(network->get_int("min_link_delay_ms", 10));
    scenario.network.max_link_delay =
        SimDuration::millis(network->get_int("max_link_delay_ms", 150));
  }

  Rng rng(scenario.seed);
  auto topo_rng = rng.fork("topology");
  scenario.graph = topo::generate_topology(scenario.topology, topo_rng);

  const auto& experiment = doc.at("experiment");
  auto& params = scenario.experiment;
  const auto victim_prefix_text =
      experiment.get_string("victim_prefix", "10.0.0.0/23");
  const auto victim_prefix = net::Prefix::parse(victim_prefix_text);
  if (!victim_prefix) {
    throw std::invalid_argument("bad victim_prefix: " + victim_prefix_text);
  }
  params.victim_prefix = *victim_prefix;
  params.victim =
      resolve_actor(scenario.graph, experiment.get_string("victim", "stub:0"));
  params.attacker =
      resolve_actor(scenario.graph, experiment.get_string("attacker", "stub:-1"));
  if (params.victim == params.attacker) {
    throw std::invalid_argument("victim and attacker must differ");
  }
  if (const auto* hijack_prefix = experiment.find("hijack_prefix")) {
    const auto parsed = net::Prefix::parse(hijack_prefix->as_string());
    if (!parsed) throw std::invalid_argument("bad hijack_prefix");
    params.hijack_prefix = *parsed;
  }
  if (experiment.get_bool("forged_first_hop", false)) {
    params.forged_path = bgp::AsPath({params.attacker, params.victim});
  }
  params.hijack_at = SimTime::at_seconds(experiment.get_number("hijack_at_s", 3600.0));
  params.horizon = SimDuration::minutes(experiment.get_number("horizon_min", 30.0));
  params.helper_count = static_cast<int>(experiment.get_int("helper_count", 0));
  params.app.detection.detect_fake_first_hop =
      experiment.get_bool("detect_fake_first_hop", false);
  params.app.controller_latency =
      SimDuration::seconds(experiment.get_number("controller_latency_s", 15.0));
  const std::int64_t shards = experiment.get_int("detection_shards", 1);
  if (shards < 1 || shards > 1024) {
    throw std::invalid_argument("detection_shards out of range [1, 1024]: " +
                                std::to_string(shards));
  }
  params.app.detection_shards = static_cast<std::size_t>(shards);
  // Observation flight recorder: record every hub delivery to this
  // directory (replayable with scenario_runner --replay).
  params.app.journal_dir = experiment.get_string("journal_dir", "");
  const std::string fsync = experiment.get_string("journal_fsync", "");
  if (!fsync.empty() &&
      !journal::parse_fsync_policy(fsync, params.app.journal)) {
    throw std::invalid_argument(
        "journal_fsync must be never, on_rotate, or interval:<ms>, got \"" +
        fsync + "\"");
  }
  return scenario;
}

Scenario load_scenario_text(std::string_view text) {
  return load_scenario(json::parse(text));
}

ExperimentResult Scenario::run() const {
  Rng rng(seed);
  HijackExperiment experiment(graph, network, this->experiment, rng.fork("experiment"));
  return experiment.run();
}

json::Value replay_scenario_journal(const Scenario& scenario,
                                    const std::string& journal_dir,
                                    ReplayRunOptions options) {
  // The restarted-monitor configuration: a fresh app with the recording
  // run's exact ground truth (same helper recruitment, same owned-prefix
  // config), no recording tap, no live feeds — the journal is the only
  // observation source, so the simulator drains once replay (and any
  // mitigation it triggers) has run its course.
  ExperimentParams params = scenario.experiment;
  params.app.journal_dir.clear();
  params.app.metrics = options.metrics;
  if (options.detection_shards > 0) {
    params.app.detection_shards = options.detection_shards;
  }
  const auto helpers = recruit_helpers(scenario.graph, params);
  Config config = build_experiment_config(scenario.graph, params, helpers);
  Rng rng(scenario.seed);
  sim::Network network(scenario.graph, scenario.network, rng.fork("network"));
  ArtemisApp app(std::move(config), network, params.victim, params.app);
  const auto helper_controllers =
      wire_helpers(app, network, helpers, params.app.controller_latency);

  journal::JournalReader reader(journal_dir);
  journal::ReplayOptions replay_options;
  replay_options.batch_size = options.batch_size;
  replay_options.speedup = options.speedup > 0.0 ? options.speedup : 1.0;
  journal::ReplayFeed replay(reader, replay_options);
  if (options.speedup > 0.0) {
    auto& sim = network.simulator();
    replay.schedule(sim, app.hub().batch_inlet());
    sim.run_all();
  } else {
    replay.replay_all(app.hub());
    // Replay-triggered mitigation scheduled controller/BGP events on the
    // sim; drain them so both replay modes leave the same network state.
    network.simulator().run_all();
  }

  json::Object out;
  out["replayed"] = json::Value(static_cast<std::int64_t>(replay.replayed()));
  out["segments"] = json::Value(static_cast<std::int64_t>(reader.segment_count()));
  out["truncated_tail"] = json::Value(reader.truncated_tail());
  out["detection_shards"] =
      json::Value(static_cast<std::int64_t>(params.app.detection_shards));

  json::Array alerts;
  for (const auto& alert : app.sharded_detection().merged_alerts()) {
    json::Object entry;
    entry["type"] = json::Value(std::string(to_string(alert.type)));
    entry["owned_prefix"] = json::Value(alert.owned_prefix.to_string());
    entry["observed_prefix"] = json::Value(alert.observed_prefix.to_string());
    entry["offender"] = json::Value(static_cast<std::int64_t>(alert.offender));
    entry["path"] = json::Value(alert.observed_path.to_string());
    entry["vantage"] = json::Value(static_cast<std::int64_t>(alert.vantage));
    entry["source"] = json::Value(alert.source);
    entry["event_time_s"] = json::Value(alert.event_time.as_seconds());
    entry["detected_at_s"] = json::Value(alert.detected_at.as_seconds());
    alerts.emplace_back(std::move(entry));
  }
  out["alerts"] = json::Value(std::move(alerts));

  json::Object per_source;
  for (const auto& [source, count] : app.hub().per_source_counts()) {
    per_source[source] = json::Value(static_cast<std::int64_t>(count));
  }
  out["observations_by_source"] = json::Value(std::move(per_source));
  out["mitigations"] =
      json::Value(static_cast<std::int64_t>(app.mitigation().records().size()));
  if (options.metrics != nullptr) {
    const auto delay =
        options.metrics->histogram_snapshot("artemis_detection_delay_seconds");
    if (delay.total > 0) {
      // Replay clock = recorded sim clock, so these are the paper's
      // detection-delay percentiles for the recorded run.
      json::Object pct;
      pct["count"] = json::Value(static_cast<std::int64_t>(delay.total));
      pct["p50_s"] = json::Value(delay.quantile(0.50) * 1e-6);
      pct["p95_s"] = json::Value(delay.quantile(0.95) * 1e-6);
      pct["p99_s"] = json::Value(delay.quantile(0.99) * 1e-6);
      pct["max_s"] = json::Value(static_cast<double>(delay.max) * 1e-6);
      out["detection_delay_percentiles"] = json::Value(std::move(pct));
    }
  }
  return json::Value(std::move(out));
}

json::Value result_to_json(const ExperimentResult& result) {
  json::Object out;
  out["hijack_at_s"] = json::Value(result.hijack_at.as_seconds());
  if (result.detected_at) {
    out["detected"] = json::Value(true);
    out["detection_delay_s"] = json::Value(result.detection_delay()->as_seconds());
    out["detection_source"] = json::Value(result.detection_source);
    json::Object by_source;
    for (const auto& [source, when] : result.detection_by_source) {
      by_source[source] = json::Value((when - result.hijack_at).as_seconds());
    }
    out["detection_by_source_s"] = json::Value(std::move(by_source));
  } else {
    out["detected"] = json::Value(false);
  }
  if (const auto d = result.mitigation_start_delay()) {
    out["mitigation_start_delay_s"] = json::Value(d->as_seconds());
  }
  if (const auto d = result.mitigation_duration()) {
    out["mitigation_duration_s"] = json::Value(d->as_seconds());
  }
  if (const auto d = result.total_duration()) {
    out["total_duration_s"] = json::Value(d->as_seconds());
  }
  json::Array announcements;
  for (const auto& prefix : result.mitigation_announcements) {
    announcements.emplace_back(prefix.to_string());
  }
  out["mitigation_announcements"] = json::Value(std::move(announcements));
  out["deaggregation_possible"] = json::Value(result.deaggregation_possible);
  out["helpers_used"] = json::Value(static_cast<std::int64_t>(result.helpers_used));
  out["max_hijacked_fraction"] = json::Value(result.max_hijacked_fraction);
  out["max_hijacked_impact"] = json::Value(result.max_hijacked_impact);
  json::Array timeline;
  for (const auto& sample : result.timeline) {
    json::Object point;
    point["t_s"] = json::Value(sample.when.as_seconds());
    point["truth"] = json::Value(sample.truth_fraction);
    point["feed"] = json::Value(sample.feed_fraction);
    timeline.emplace_back(std::move(point));
  }
  out["timeline"] = json::Value(std::move(timeline));
  return json::Value(std::move(out));
}

}  // namespace artemis::core
