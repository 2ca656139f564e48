// E3 — ARTEMIS vs legacy pipelines (paper §1: aggregated BGP data is
// published every ~2 h (full RIBs) or ~15 min (update archives); alerts
// from third-party services need manual verification and manual
// mitigation; YouTube's 2008 reaction took ~80 min. ARTEMIS closes the
// whole cycle in ~6 min).
//
// Four pipelines over the same hijack scenarios:
//   artemis            streaming + LG feeds, automatic mitigation
//   stream+manual      PHAS/BGPmon-style alert service: fast data, human loop
//   batch-15m+manual   RIS update archives (15 min files) + human loop
//   rib-2h+manual      RouteViews RIB dumps (2 h) + human loop
#include "baseline/legacy_pipeline.hpp"
#include "bench_common.hpp"
#include "feeds/batch_feed.hpp"
#include "feeds/stream_feed.hpp"

using namespace artemis;
using namespace artemis::bench;

namespace {

struct LegacyOutcome {
  std::optional<SimDuration> detect;
  std::optional<SimDuration> total;
};

/// Runs the hijack scenario with the three legacy pipelines attached.
std::map<std::string, LegacyOutcome> run_legacy(const BenchArgs& args,
                                                std::uint64_t trial) {
  Scenario scenario(args, trial);
  Rng rng = scenario.rng.fork("legacy");
  sim::Network network(scenario.graph, scenario.net_params, rng.fork("network"));

  // Same vantage style as the ARTEMIS run: a spread of ASes.
  std::vector<bgp::Asn> pool = scenario.graph.all_ases();
  std::erase(pool, scenario.params.victim);
  std::erase(pool, scenario.params.attacker);
  auto selection = rng.fork("vantages");
  selection.shuffle(pool.data(), pool.size());
  const std::vector<bgp::Asn> vantages(pool.begin(),
                                       pool.begin() + std::min<std::size_t>(16, pool.size()));

  core::Config config;
  core::OwnedPrefix owned;
  owned.prefix = scenario.params.victim_prefix;
  owned.legitimate_origins.insert(scenario.params.victim);
  config.add_owned(std::move(owned));

  feeds::StreamFeedParams stream_params;
  stream_params.name = "stream";
  stream_params.vantages = vantages;
  feeds::StreamFeed stream(network, stream_params, rng.fork("stream"));

  feeds::BatchFeedParams batch_params;
  batch_params.name = "batch-15m";
  batch_params.vantages = vantages;
  batch_params.mode = feeds::BatchMode::kUpdates;
  batch_params.interval = SimDuration::minutes(15);
  batch_params.publish_delay = SimDuration::seconds(120);
  feeds::BatchFeed batch(network, batch_params, rng.fork("batch"));

  feeds::BatchFeedParams rib_params;
  rib_params.name = "rib-2h";
  rib_params.vantages = vantages;
  rib_params.mode = feeds::BatchMode::kRibDump;
  rib_params.interval = SimDuration::hours(2);
  rib_params.publish_delay = SimDuration::minutes(5);
  feeds::BatchFeed rib(network, rib_params, rng.fork("rib"));

  baseline::OperatorModel operator_model;  // verify 10-40 min, act 15-60 min
  auto& sim = network.simulator();
  baseline::LegacyPipeline stream_pipe(config, sim, operator_model,
                                       rng.fork("op-stream"), "stream+manual");
  baseline::LegacyPipeline batch_pipe(config, sim, operator_model,
                                      rng.fork("op-batch"), "batch-15m+manual");
  baseline::LegacyPipeline rib_pipe(config, sim, operator_model, rng.fork("op-rib"),
                                    "rib-2h+manual");
  stream.subscribe_batch(stream_pipe.batch_inlet());
  batch.subscribe_batch(batch_pipe.batch_inlet());
  rib.subscribe_batch(rib_pipe.batch_inlet());

  const auto prefix = scenario.params.victim_prefix;
  auto& victim = network.speaker(scenario.params.victim);
  auto& attacker = network.speaker(scenario.params.attacker);
  sim.at(SimTime::zero(), [&victim, prefix] { victim.originate(prefix); });
  const SimTime hijack_at = SimTime::at_seconds(3600);
  sim.at(hijack_at, [&attacker, prefix] { attacker.originate(prefix); });
  // Horizon: past the next 2 h RIB dump plus the slowest operator loop.
  sim.run_until(hijack_at + SimDuration::hours(4));

  std::map<std::string, LegacyOutcome> out;
  for (const auto* pipe : {&stream_pipe, &batch_pipe, &rib_pipe}) {
    LegacyOutcome outcome;
    if (const auto t = pipe->first_hijack()) {
      outcome.detect = t->data_available_at - hijack_at;
      outcome.total = t->mitigation_done_at - hijack_at;
    }
    out.emplace(pipe->name(), outcome);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = BenchArgs::parse(argc, argv);
  print_header("E3", "end-to-end hijack handling: ARTEMIS vs legacy pipelines",
               "legacy data lags 15 min - 2 h + ~25-100 min human loop (YouTube "
               "~80 min); ARTEMIS ~6 min total");

  Summary artemis_detect;
  Summary artemis_total;
  std::map<std::string, std::pair<Summary, Summary>> legacy;  // detect, total
  for (int trial = 0; trial < args.trials; ++trial) {
    Scenario scenario(args, static_cast<std::uint64_t>(trial));
    const auto result = scenario.run();
    if (result.detected_at && result.truth_converged_at) {
      artemis_detect.add(result.detection_delay()->as_seconds());
      artemis_total.add(result.total_duration()->as_seconds());
    }
    for (const auto& [name, outcome] : run_legacy(args, static_cast<std::uint64_t>(trial))) {
      if (outcome.detect) {
        legacy[name].first.add(outcome.detect->as_seconds());
        legacy[name].second.add(outcome.total->as_seconds());
      }
    }
  }

  TextTable table({"pipeline", "n", "detect mean", "detect p90", "total mean",
                   "total p90", "vs artemis"});
  auto add_row = [&table, &artemis_total](const std::string& name, const Summary& detect,
                                          const Summary& total) {
    const double speedup = total.mean() / artemis_total.mean();
    table.add_row({name, std::to_string(total.count()), fmt_seconds(detect.mean()),
                   fmt_seconds(detect.percentile(90)), fmt_seconds(total.mean()),
                   fmt_seconds(total.percentile(90)),
                   name == "artemis" ? "1x" : TextTable::num(speedup, 1) + "x slower"});
  };
  add_row("artemis", artemis_detect, artemis_total);
  for (const auto& [name, summaries] : legacy) {
    add_row(name, summaries.first, summaries.second);
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("shape check: artemis total minutes-scale; every legacy pipeline tens of "
              "minutes to hours, dominated by data lag + the human loop.\n");
  return 0;
}
