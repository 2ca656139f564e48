// Shared scaffolding for the experiment benches (E1-E6).
//
// Each bench binary reproduces one of the paper's reported results (the
// E-number in its header comment; README "Benchmarks and CI" lists the
// binaries) by running HijackExperiment over a
// synthetic Internet across several seeds and printing a paper-style
// table. Flags (all optional): --trials=N --seed=S --ases=N.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "artemis/experiment.hpp"
#include "topology/generator.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"

namespace artemis::bench {

struct BenchArgs {
  int trials = 12;
  std::uint64_t seed = 1;
  // ~1600 ASes by default: deep enough that propagation matches the
  // paper's timescales (see EXPERIMENTS.md calibration notes).
  int tier1 = 10;
  int tier2 = 140;
  int stubs = 1450;

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      const auto eat = [&](std::string_view flag) -> std::optional<std::uint64_t> {
        if (!starts_with(arg, flag)) return std::nullopt;
        return parse_u64(arg.substr(flag.size()));
      };
      if (const auto v = eat("--trials=")) args.trials = static_cast<int>(*v);
      if (const auto v = eat("--seed=")) args.seed = *v;
      if (const auto v = eat("--ases=")) {
        args.stubs = static_cast<int>(*v * 3 / 4);
        args.tier2 = static_cast<int>(*v / 5);
      }
    }
    return args;
  }
};

/// One generated Internet plus the victim/attacker pair used by a trial.
struct Scenario {
  topo::AsGraph graph;
  core::ExperimentParams params;
  sim::NetworkParams net_params;
  Rng rng;

  Scenario(const BenchArgs& args, std::uint64_t trial)
      : rng(args.seed * 1000003 + trial) {
    topo::GeneratorParams topo_params;
    topo_params.tier1_count = args.tier1;
    topo_params.tier2_count = args.tier2;
    topo_params.stub_count = args.stubs;
    auto topo_rng = rng.fork("topology");
    graph = topo::generate_topology(topo_params, topo_rng);

    // Victim and attacker: random distinct stubs ("different PEERING
    // sites"), re-drawn per trial.
    const auto stubs = graph.ases_in_tier(topo::Tier::kStub);
    auto pick_rng = rng.fork("actors");
    const auto victim_idx = pick_rng.uniform_u64(stubs.size());
    auto attacker_idx = pick_rng.uniform_u64(stubs.size() - 1);
    if (attacker_idx >= victim_idx) ++attacker_idx;
    params.victim = stubs[victim_idx];
    params.attacker = stubs[attacker_idx];
    params.victim_prefix = net::Prefix::must_parse("10.0.0.0/23");
  }

  core::ExperimentResult run() {
    core::HijackExperiment experiment(graph, net_params, params, rng.fork("experiment"));
    return experiment.run();
  }
};

inline void print_header(const char* id, const char* title, const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s: %s\n", id, title);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

inline std::string fmt_seconds(double s) {
  return SimDuration::seconds(s).to_string();
}

}  // namespace artemis::bench
