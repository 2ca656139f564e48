// Scenario runner: execute a JSON-described hijack experiment and emit a
// machine-readable JSON result (sweep driver material — point it at a
// directory of scenario files from a shell loop).
//
// Usage: scenario_runner [scenario.json] [options]
//   --journal DIR   record every hub-delivered observation to a journal
//                   in DIR (same as "journal_dir" in the scenario JSON)
//   --replay DIR    do not run the live simulation; replay the journal
//                   in DIR through a fresh app built from the scenario's
//                   config and print the replayed detection view
//   --warp N        with --replay: time-warped pacing at N× recorded
//                   speed through the simulator clock (default: as fast
//                   as possible, no pacing)
//   --shards N      with --replay: override detection_shards — replayed
//                   output is bit-identical for any N
//   --import-mrt    import mode: the positional arguments are MRT files
//                   (not a scenario); convert them into the journal named
//                   by --journal DIR, then exit. Pair with a later
//                   --replay run to push an archived window through
//                   detection. (tools/mrt2journal exposes more knobs.)
//   --metrics-port N
//                   serve Prometheus /metrics and /healthz on
//                   127.0.0.1:N for the duration of the run (0 picks an
//                   ephemeral port, announced on stderr)
//
//   Live and replay runs both print detection-delay percentiles
//   (p50/p95/p99/max over observation timestamp -> alert emission, on
//   the sim clock) to stderr, and replay results carry them in the JSON.
//
//   Without a scenario argument a built-in demonstration scenario runs:
//   a /24 victim defended by three outsourced helpers under a Type-1
//   attack with the first-hop check enabled — the full extension surface
//   in one file.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "artemis/scenario.hpp"
#include "mrt/observation_convert.hpp"
#include "telemetry/http_server.hpp"
#include "telemetry/metrics.hpp"

using namespace artemis;

namespace {

constexpr std::string_view kDefaultScenario = R"({
  "seed": 2016,
  "topology": {"tier1": 8, "tier2": 80, "stubs": 600},
  "network": {"mrai_s": 30, "max_prefix_len": 24},
  "experiment": {
    "victim_prefix": "10.0.0.0/24",
    "victim": "stub:2",
    "attacker": "stub:-3",
    "forged_first_hop": true,
    "detect_fake_first_hop": true,
    "helper_count": 3,
    "horizon_min": 20
  }
})";

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr, "error: %s\n", what);
  std::fprintf(stderr,
               "usage: scenario_runner [scenario.json] [--journal DIR] "
               "[--metrics-port N] "
               "[--replay DIR [--warp N] [--shards N]] | "
               "--import-mrt <file.mrt...> --journal DIR\n");
  std::exit(2);
}

/// The paper's headline numbers, from the merged detection-delay
/// histogram (empty when no alert fired).
void print_detection_delay(const telemetry::MetricsRegistry& registry) {
  const auto delay =
      registry.histogram_snapshot("artemis_detection_delay_seconds");
  if (delay.total == 0) return;
  std::fprintf(stderr,
               "detection delay: p50 %.3fs p95 %.3fs p99 %.3fs max %.3fs "
               "(%llu alerts)\n",
               delay.quantile(0.50) * 1e-6, delay.quantile(0.95) * 1e-6,
               delay.quantile(0.99) * 1e-6,
               static_cast<double>(delay.max) * 1e-6,
               static_cast<unsigned long long>(delay.total));
}

}  // namespace

int main(int argc, char** argv) {
  std::string text(kDefaultScenario);
  std::string journal_dir;
  std::string replay_dir;
  core::ReplayRunOptions replay_options;
  bool scenario_given = false;
  bool import_mrt = false;
  std::vector<std::string> mrt_files;
  long metrics_port = -1;  // -1 = no HTTP server

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto flag_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) usage_error((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--journal") {
      journal_dir = flag_value("--journal");
    } else if (arg == "--import-mrt") {
      import_mrt = true;
    } else if (arg == "--replay") {
      replay_dir = flag_value("--replay");
    } else if (arg == "--warp") {
      const char* text = flag_value("--warp");
      char* rest = nullptr;
      replay_options.speedup = std::strtod(text, &rest);
      if (rest == text || *rest != '\0' || !(replay_options.speedup > 0.0)) {
        usage_error("--warp must be a number > 0");
      }
    } else if (arg == "--shards") {
      // strtol (not strtoul): "-1" must be rejected, not wrapped huge.
      const char* text = flag_value("--shards");
      char* rest = nullptr;
      const long shards = std::strtol(text, &rest, 10);
      if (rest == text || *rest != '\0' || shards < 1 || shards > 1024) {
        usage_error("--shards must be an integer in [1, 1024]");
      }
      replay_options.detection_shards = static_cast<std::size_t>(shards);
    } else if (arg == "--metrics-port") {
      const char* text = flag_value("--metrics-port");
      char* rest = nullptr;
      metrics_port = std::strtol(text, &rest, 10);
      if (rest == text || *rest != '\0' || metrics_port < 0 ||
          metrics_port > 65535) {
        usage_error("--metrics-port must be an integer in [0, 65535]");
      }
    } else if (!arg.empty() && arg.front() == '-') {
      usage_error(("unknown option " + std::string(arg)).c_str());
    } else if (import_mrt) {
      mrt_files.emplace_back(arg);
    } else if (scenario_given) {
      usage_error("more than one scenario file given");
    } else {
      std::ifstream in(argv[i]);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", argv[i]);
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      text = buffer.str();
      scenario_given = true;
    }
  }
  // Reject silently-ignored combinations: pacing/sharding flags only
  // affect replay, and recording is meaningless while replaying.
  if (replay_dir.empty() &&
      (replay_options.speedup > 0.0 || replay_options.detection_shards > 0)) {
    usage_error("--warp/--shards require --replay");
  }
  if (!replay_dir.empty() && !journal_dir.empty()) {
    usage_error("--journal cannot be combined with --replay");
  }
  if (import_mrt) {
    // Import mode: MRT files -> journal, no simulation. Flags that only
    // make sense for a live or replayed run are rejected, not ignored.
    if (scenario_given) usage_error("--import-mrt must precede the MRT file list");
    if (!replay_dir.empty()) usage_error("--import-mrt cannot be combined with --replay");
    if (journal_dir.empty()) usage_error("--import-mrt requires --journal DIR");
    if (mrt_files.empty()) usage_error("--import-mrt needs at least one MRT file");
    try {
      const auto imported = mrt::import_mrt_files(mrt_files, journal_dir);
      for (const auto& err : imported.file_errors) {
        std::fprintf(stderr, "warning: %s\n", err.c_str());
      }
      std::fprintf(stderr, "imported %llu records (%llu observations) into %s\n",
                   static_cast<unsigned long long>(imported.records),
                   static_cast<unsigned long long>(imported.observations),
                   journal_dir.c_str());
      std::printf("%s\n",
                  mrt::import_result_to_json(journal_dir, imported).dump(2).c_str());
      return (imported.truncated_files > 0 || imported.failed_files > 0) ? 3 : 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (!scenario_given) {
    std::fprintf(stderr, "(no scenario given; running the built-in demo scenario)\n");
  }

  try {
    core::Scenario scenario = core::load_scenario_text(text);
    std::fprintf(stderr, "topology: %zu ASes; victim AS%u, attacker AS%u\n",
                 scenario.graph.as_count(), scenario.experiment.victim,
                 scenario.experiment.attacker);

    // Telemetry is always on here (the registry is cheap and the delay
    // percentiles ride on it); the HTTP server only with --metrics-port.
    telemetry::MetricsRegistry registry;
    std::unique_ptr<telemetry::MetricsServer> metrics_server;
    if (metrics_port >= 0) {
      telemetry::MetricsServerOptions server_options;
      server_options.port = static_cast<int>(metrics_port);
      metrics_server =
          std::make_unique<telemetry::MetricsServer>(registry, server_options);
      std::fprintf(stderr, "metrics: listening on http://127.0.0.1:%d/metrics\n",
                   metrics_server->port());
    }

    if (!replay_dir.empty()) {
      // Replay mode: the recorded stream, not the simulator, drives the
      // fresh app. Output must match the recording run for any shard
      // count or warp factor.
      replay_options.metrics = &registry;
      const auto replayed =
          core::replay_scenario_journal(scenario, replay_dir, replay_options);
      print_detection_delay(registry);
      std::printf("%s\n", replayed.dump(2).c_str());
      return 0;
    }

    if (!journal_dir.empty()) scenario.experiment.app.journal_dir = journal_dir;
    scenario.experiment.app.metrics = &registry;
    const auto result = scenario.run();
    std::fprintf(stderr, "%s\n", result.summary().c_str());
    print_detection_delay(registry);
    if (!scenario.experiment.app.journal_dir.empty()) {
      std::fprintf(stderr, "journal recorded to %s\n",
                   scenario.experiment.app.journal_dir.c_str());
    }
    // Results to stdout as JSON; progress/diagnostics went to stderr.
    std::printf("%s\n", core::result_to_json(result).dump(2).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
