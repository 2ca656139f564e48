// artemis_ingest: the always-on archive ingest supervisor.
//
// Fetches RouteViews / RIPE RIS style archive URLs over HTTP (Range
// resume, capped exponential backoff with seeded jitter), streams them
// through the MRT converter into an observation journal, and survives
// being killed at any instant: restart it with the same arguments and
// ingest continues from the journal tail without duplicating or losing a
// record (see src/ingest/supervisor.hpp for the resume protocol and
// README "Running as a service" for operations guidance).
//
// Usage: artemis_ingest --journal DIR [options] <url...>
//   --journal DIR       target journal directory (created or resumed)
//   --fsync POLICY      never | on_rotate | interval:<ms>  (default never)
//   --compress          store sealed journal segments gzip-compressed
//   --retain POLICY     sealed-segment retention: none (default) or
//                       comma-joined segments=<n>, bytes=<n[k|m|g]>,
//                       age=<n[s|m|h|d]> terms (oldest deleted first,
//                       never the active segment) — bounds disk for
//                       always-on ingest
//   --no-index          skip per-segment index footers
//   --retries N         consecutive no-progress failures per URL before
//                       the source fails (default 8)
//   --backoff-ms N      first retry delay; doubles per retry (default 250)
//   --max-backoff-ms N  backoff growth cap (default 30000)
//   --timeout-ms N      connect and per-read stall timeout (default 5000)
//   --max-lag N         journal lag bound in records (default 65536)
//   --policy P          lag policy: flush (lossless) | drop (accounted
//                       shedding) (default flush)
//   --seed N            backoff jitter seed (default 1)
//   --source NAME       source-name prefix (default "mrt")
//   --batch N           observations per appended batch (default 4096)
//   --stats-json        print the full per-source stats JSON on stdout
//                       (including a telemetry snapshot); also printed on
//                       fatal-error exits so post-mortem ledgers are
//                       never empty
//   --metrics-port N    serve Prometheus /metrics and /healthz on
//                       127.0.0.1:N (0 = pick an ephemeral port; the
//                       bound port is announced on stderr)
//   --metrics-snapshot FILE
//                       periodically write the telemetry snapshot JSON
//                       to FILE (atomic tmp+rename), and once on exit
//   --metrics-interval-ms N
//                       snapshot cadence for --metrics-snapshot
//                       (default 1000)
//   --detect CONFIG     run live detection on the ingest stream: CONFIG
//                       is an ownership config JSON (schema v1 or the
//                       multi-tenant v2 "tenants" form, README schema).
//                       The detector taps exactly the journaled spans, so
//                       in a clean run its alerts match a later journal
//                       replay. Alert lines go to stderr ("alert: ...").
//                       SIGHUP re-reads CONFIG and swaps the ownership
//                       table in at the next batch boundary — incremental
//                       reload, no restart, no re-replay; a config that
//                       fails to parse is logged and the previous table
//                       stays live (see docs/operations.md).
//   --detect-shards N   detection shard count (default 1), with --detect
//
// Exit status: 0 every URL ingested clean, 3 partial (some URL failed or
// tore mid-archive; everything recovered IS in the journal), 1 hard error
// (unwritable journal, corrupt cursor), 2 usage error.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "artemis/config.hpp"
#include "ingest/supervisor.hpp"
#include "pipeline/sharded_detector.hpp"
#include "telemetry/http_server.hpp"
#include "telemetry/metrics.hpp"

namespace {

// Set by a pre-parse argv scan so even a usage error (which fires
// mid-parse) can honor --stats-json with a minimal machine-readable
// post-mortem on stdout.
bool g_stats_json_on_error = false;

// SIGHUP = reload the --detect ownership config. The handler only sets
// the flag; the ingest thread, which also runs detection, notices
// it at the next batch boundary and performs the swap there, so the
// reload never races a batch in flight.
volatile std::sig_atomic_t g_reload_requested = 0;
void request_reload(int) { g_reload_requested = 1; }

/// Reads and parses the ownership config file; throws on any failure.
artemis::core::Config load_detect_config(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return artemis::core::Config::from_json_text(buffer.str());
}

[[noreturn]] void usage_error(const char* what) {
  std::fprintf(stderr, "error: %s\n", what);
  std::fprintf(stderr,
               "usage: artemis_ingest --journal DIR [--fsync POLICY] [--compress] "
               "[--retain POLICY] [--no-index] [--retries N] "
               "[--backoff-ms N] [--max-backoff-ms N] [--timeout-ms N] "
               "[--max-lag N] [--policy flush|drop] [--seed N] [--source NAME] "
               "[--batch N] [--stats-json] [--metrics-port N] "
               "[--metrics-snapshot FILE [--metrics-interval-ms N]] "
               "[--detect CONFIG.json [--detect-shards N]] <url...>\n");
  if (g_stats_json_on_error) {
    artemis::json::Object err;
    err["error"] = artemis::json::Value(std::string(what));
    err["usage_error"] = artemis::json::Value(true);
    std::printf("%s\n", artemis::json::Value(std::move(err)).dump(2).c_str());
  }
  std::exit(2);
}

long parse_long(const char* flag, const char* text, long min_value) {
  char* rest = nullptr;
  const long value = std::strtol(text, &rest, 10);
  if (rest == text || *rest != '\0' || value < min_value) {
    usage_error((std::string(flag) + " must be an integer >= " +
                 std::to_string(min_value))
                    .c_str());
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace artemis;

  ingest::SupervisorOptions options;
  std::vector<std::string> urls;
  bool stats_json = false;
  std::string detect_config_path;
  pipeline::ShardedDetectorOptions detect_options;
  bool detect_subflags = false;   // --detect-shards given
  long metrics_port = -1;         // -1 = no HTTP server
  std::string metrics_snapshot;
  long metrics_interval_ms = 1000;

  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--stats-json") g_stats_json_on_error = true;
  }

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto flag_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) usage_error((std::string(flag) + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--journal") {
      options.journal_dir = flag_value("--journal");
    } else if (arg == "--fsync") {
      if (!journal::parse_fsync_policy(flag_value("--fsync"), options.journal)) {
        usage_error("--fsync must be never, on_rotate, or interval:<ms>");
      }
    } else if (arg == "--compress") {
      options.journal.compress_segments = true;
    } else if (arg == "--retain") {
      if (!journal::parse_retention_policy(flag_value("--retain"),
                                           options.journal)) {
        usage_error("--retain must be none or comma-joined segments=<n>, "
                    "bytes=<n[k|m|g]>, age=<n[s|m|h|d]> terms");
      }
    } else if (arg == "--no-index") {
      options.journal.index_segments = false;
    } else if (arg == "--retries") {
      options.fetch.max_retries =
          static_cast<int>(parse_long("--retries", flag_value("--retries"), 0));
    } else if (arg == "--backoff-ms") {
      options.fetch.backoff_ms =
          parse_long("--backoff-ms", flag_value("--backoff-ms"), 0);
    } else if (arg == "--max-backoff-ms") {
      options.fetch.max_backoff_ms =
          parse_long("--max-backoff-ms", flag_value("--max-backoff-ms"), 0);
    } else if (arg == "--timeout-ms") {
      const long t = parse_long("--timeout-ms", flag_value("--timeout-ms"), 1);
      options.fetch.connect_timeout_ms = static_cast<int>(t);
      options.fetch.io_timeout_ms = static_cast<int>(t);
    } else if (arg == "--max-lag") {
      options.pipeline.max_lag_records = static_cast<std::size_t>(
          parse_long("--max-lag", flag_value("--max-lag"), 1));
    } else if (arg == "--policy") {
      if (!ingest::parse_lag_policy(flag_value("--policy"),
                                    options.pipeline.lag_policy)) {
        usage_error("--policy must be flush or drop");
      }
    } else if (arg == "--seed") {
      options.seed =
          static_cast<std::uint64_t>(parse_long("--seed", flag_value("--seed"), 0));
    } else if (arg == "--source") {
      options.pipeline.convert.source_prefix = flag_value("--source");
    } else if (arg == "--batch") {
      options.pipeline.convert.batch_capacity = static_cast<std::size_t>(
          parse_long("--batch", flag_value("--batch"), 1));
    } else if (arg == "--stats-json") {
      stats_json = true;
    } else if (arg == "--metrics-port") {
      metrics_port = parse_long("--metrics-port", flag_value("--metrics-port"), 0);
      if (metrics_port > 65535) usage_error("--metrics-port must be in [0, 65535]");
    } else if (arg == "--metrics-snapshot") {
      metrics_snapshot = flag_value("--metrics-snapshot");
    } else if (arg == "--metrics-interval-ms") {
      metrics_interval_ms = parse_long("--metrics-interval-ms",
                                       flag_value("--metrics-interval-ms"), 1);
    } else if (arg == "--detect") {
      detect_config_path = flag_value("--detect");
    } else if (arg == "--detect-shards") {
      const long n = parse_long("--detect-shards", flag_value("--detect-shards"), 1);
      if (n > 1024) usage_error("--detect-shards must be in [1, 1024]");
      detect_options.shards = static_cast<std::size_t>(n);
      detect_subflags = true;
    } else if (!arg.empty() && arg.front() == '-') {
      usage_error(("unknown option " + std::string(arg)).c_str());
    } else {
      urls.emplace_back(arg);
    }
  }
  if (options.journal_dir.empty()) usage_error("--journal DIR is required");
  if (urls.empty()) usage_error("no URLs given");
  // Reject silently-ignored combinations, same as the other CLIs.
  if (detect_config_path.empty() && detect_subflags) {
    usage_error("--detect-shards requires --detect");
  }

  // One registry for the whole process; every stage registers its cells
  // into it before ingest starts. Enabled by any consumer of the data —
  // the HTTP server, the periodic snapshot file, or the final stats blob.
  telemetry::MetricsRegistry registry;
  const bool telemetry_enabled =
      metrics_port >= 0 || !metrics_snapshot.empty() || stats_json;
  if (telemetry_enabled) {
    options.pipeline.metrics = &registry;
    detect_options.metrics = &registry;
  }

  std::unique_ptr<ingest::IngestSupervisor> supervisor;
  try {
    // Live detection tap: built before the supervisor so the pipeline
    // options carry the bound handler. Detection runs inline on the
    // ingest thread.
    std::unique_ptr<pipeline::ShardedDetector> detector;
    if (!detect_config_path.empty()) {
      core::Config detect_config;
      try {
        detect_config = load_detect_config(detect_config_path);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: --detect %s: %s\n", detect_config_path.c_str(),
                     e.what());
        return 1;
      }
      detector = std::make_unique<pipeline::ShardedDetector>(
          detect_config.build_table(), detect_options);
      // Incremental reload: SIGHUP re-reads the config file and swaps
      // the ownership snapshot in on the ingest thread, at a batch
      // boundary. A bad config keeps the previous table live — an
      // operator typo must never take detection down.
      std::signal(SIGHUP, request_reload);
      options.pipeline.detection_tap =
          [d = detector.get(),
           path = detect_config_path](std::span<const feeds::Observation> batch) {
            if (g_reload_requested != 0) {
              g_reload_requested = 0;
              try {
                auto table = load_detect_config(path).build_table();
                const std::size_t owned = table->owned().size();
                const std::size_t tenants = table->tenants().size();
                d->reload(std::move(table));
                std::fprintf(stderr,
                             "reload: ownership config %s applied "
                             "(%zu prefixes, %zu tenants)\n",
                             path.c_str(), owned, tenants);
              } catch (const std::exception& e) {
                std::fprintf(stderr,
                             "warning: reload of %s failed, keeping previous "
                             "ownership: %s\n",
                             path.c_str(), e.what());
              }
            }
            d->submit_batch(batch);
          };
    }

    supervisor = std::make_unique<ingest::IngestSupervisor>(options, urls);

    std::unique_ptr<telemetry::MetricsServer> metrics_server;
    if (metrics_port >= 0 || !metrics_snapshot.empty()) {
      telemetry::MetricsServerOptions server_options;
      server_options.port = metrics_port >= 0 ? static_cast<int>(metrics_port) : 0;
      server_options.snapshot_path = metrics_snapshot;
      server_options.snapshot_interval_ms = static_cast<int>(metrics_interval_ms);
      // /healthz = the no-silent-loss ledger, read live. `converted` is
      // incremented before the outcome counters, so the only reachable
      // failure is a genuine accounting violation.
      const telemetry::IngestCounters& ledger = supervisor->metrics();
      server_options.health = [&ledger]() {
        telemetry::HealthStatus status;
        if (!ledger.enabled()) return status;
        const std::uint64_t converted = ledger.converted->value();
        const std::uint64_t accounted = ledger.journaled->value() +
                                        ledger.skipped->value() +
                                        ledger.dropped->value();
        if (accounted > converted) {
          status.ok = false;
          status.body = "ledger violation: journaled+skipped+dropped=" +
                        std::to_string(accounted) + " > converted=" +
                        std::to_string(converted) + "\n";
        }
        return status;
      };
      metrics_server =
          std::make_unique<telemetry::MetricsServer>(registry, server_options);
      if (metrics_port >= 0) {
        std::fprintf(stderr, "metrics: listening on http://127.0.0.1:%d/metrics\n",
                     metrics_server->port());
      }
    }

    const ingest::IngestReport report = supervisor->run();
    if (detector) {
      const auto alerts = detector->merged_alerts();
      for (const auto& alert : alerts) {
        std::fprintf(stderr, "alert: %s\n", alert.to_string().c_str());
      }
      std::fprintf(stderr,
                   "detection: %llu observations, %zu merged alerts "
                   "(%zu shards)\n",
                   static_cast<unsigned long long>(
                       detector->observations_processed()),
                   alerts.size(), detector->shard_count());
    }
    for (const auto& sr : report.sources) {
      if (sr.state == ingest::SourceState::kFailed) {
        std::fprintf(stderr, "warning: %s failed: %s\n", sr.url.c_str(),
                     sr.fetch.last_error.c_str());
      } else if (sr.feed.convert.truncated || !sr.feed.convert.error.empty()) {
        std::fprintf(stderr, "warning: %s truncated: %llu complete records ingested\n",
                     sr.url.c_str(),
                     static_cast<unsigned long long>(sr.feed.convert.records));
      }
    }
    if (stats_json) {
      json::Value doc = ingest::ingest_report_to_json(options, report);
      doc.as_object()["metrics"] = registry.snapshot_json();
      std::printf("%s\n", doc.dump(2).c_str());
    } else {
      std::printf("ingested %llu records across %llu sources (next_seq %llu)\n",
                  static_cast<unsigned long long>(report.records_journaled),
                  static_cast<unsigned long long>(report.sources.size()),
                  static_cast<unsigned long long>(report.journal_next_seq));
    }
    return (report.sources_failed > 0 || report.sources_truncated > 0) ? 3 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    if (stats_json) {
      // Fatal-error post-mortem: everything the run accomplished before
      // dying, plus the error itself — the ledger is never empty.
      json::Value doc =
          supervisor
              ? ingest::ingest_report_to_json(options, supervisor->partial_report())
              : json::Value(json::Object{});
      doc.as_object()["error"] = json::Value(std::string(e.what()));
      if (telemetry_enabled) {
        doc.as_object()["metrics"] = registry.snapshot_json();
      }
      std::printf("%s\n", doc.dump(2).c_str());
    }
    return 1;
  }
}
