#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "artemis/config.hpp"
#include "feeds/monitor_hub.hpp"
#include "ingest/pipeline.hpp"
#include "journal/reader.hpp"
#include "journal/replay.hpp"
#include "journal/writer.hpp"
#include "mrt/observation_convert.hpp"
#include "mrt/stream_reader.hpp"
#include "pipeline/sharded_detector.hpp"

#include "gen.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using artemis::core::Config;
using artemis::core::HijackAlert;
using artemis::core::HijackType;
using artemis::core::OwnershipTable;
using artemis::feeds::MonitorHub;
using artemis::feeds::Observation;
using artemis::journal::JournalReader;
using artemis::journal::JournalWriter;
using artemis::journal::ReplayFeed;
using artemis::pipeline::ShardedDetector;
using TablePtr = std::shared_ptr<const OwnershipTable>;
using Bytes = std::vector<std::uint8_t>;

/// archive_catchup and the journal pre-builds feed the pipeline in
/// chunks of this size, as a fetch loop would.
constexpr std::size_t kChunkBytes = 64 * 1024;
/// live_feed: an alert later than this after its hijack was due failed.
constexpr double kAlertLimitMs = 1000.0;
/// setup_s is the median of repeated set-ups: at least 3, more while they
/// take under a second in total, at most 100. They run back to back, each
/// reusing the heap the previous one freed, so the median measures the
/// set-up's own work rather than the kernel's first-touch page faults.
bool more_setups(std::size_t done, double spent_s) {
  return done < 3 || (spent_s < 1.0 && done < 100);
}

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e9;
}

// ---------------------------------------------------------------- memory

/// VmHWM of this process, in MiB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Returns freed heap to the kernel and restarts the VmHWM high-water
/// mark at the current RSS, so the next reading covers only what follows.
/// Records in `r` whether the kernel accepted the reset (without it the
/// peak includes set-up).
void restart_peak_rss(RunResult& r) {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  r.details["peak_rss_reset"] = out ? 1.0 : 0.0;
}

// ----------------------------------------------------------------- spans

struct SpanIds {
  std::uint32_t setup = 0, pass = 0, verify = 0;
  std::uint32_t build = 0, create = 0, merge = 0, submit = 0;
  std::uint32_t inflate = 0, convert = 0, shim = 0;
  std::uint32_t open_writer = 0, append = 0, lag_flush = 0, close = 0;
  std::uint32_t open_reader = 0, read = 0, publish = 0, wait = 0;
};

/// Where a code path records spans: nowhere (untraced) or a tracer.
struct Probe {
  Tracer* tracer = nullptr;
  SpanIds id;

  static Probe traced(Tracer& t) {
    Probe p;
    p.tracer = &t;
    p.id = SpanIds{t.name("phase.setup"),       t.name("phase.pass"),
                   t.name("phase.verify"),      t.name("ownership.build"),
                   t.name("detect.create"),     t.name("detect.merge"),
                   t.name("detect.submit"),     t.name("mrt.inflate"),
                   t.name("mrt.convert"),       t.name("ingest.batch"),
                   t.name("journal.open_writer"), t.name("journal.append"),
                   t.name("journal.lag_flush"), t.name("journal.close"),
                   t.name("journal.open_reader"), t.name("journal.read"),
                   t.name("hub.publish"),       t.name("gen.wait")};
    return p;
  }
  Tracer::Scope scope(std::uint32_t name) const { return Tracer::Scope(tracer, name); }
};

/// Counts the traced run gathers at the layer boundaries.
struct LayerCounts {
  double inflated_bytes = 0;
  std::uint64_t records = 0, observations = 0, skipped = 0, batches = 0;
  std::uint64_t converted = 0, journaled = 0, dropped = 0, lag_flushes = 0;
  std::uint64_t segments = 0, journal_bytes = 0;
  std::uint64_t scanned = 0, delivered = 0, segments_scanned = 0, segments_skipped = 0;
  std::uint64_t detect_obs = 0, detect_matched = 0, detect_alerts = 0;
  std::uint64_t prefixes = 0, tenants = 0;
  std::vector<double> batch_wait_ms;
};

// ---------------------------------------------------------- ground truth

std::string tenant_name(std::size_t id) {
  std::string digits = std::to_string(id);
  return "t" + std::string(digits.size() < 4 ? 4 - digits.size() : 0, '0') + digits;
}

/// The ownership config a deployment would load: every owned route under
/// its tenant, legitimate origin = the route's origin. `only` restricts
/// it to one tenant (a tenant's own forensic view).
Config make_config(const Universe& u, std::int64_t only = -1) {
  Config config;
  for (std::size_t t = 0; t < u.tenant_routes.size(); ++t) {
    if (only >= 0 && static_cast<std::size_t>(only) != t) continue;
    const auto id = config.add_tenant(tenant_name(t));
    for (const auto index : u.tenant_routes[t]) {
      const Route& r = u.routes[index];
      artemis::core::OwnedPrefix owned;
      owned.prefix = r.prefix.to_net();
      owned.legitimate_origins = {r.origin};
      config.add_owned(id, std::move(owned));
    }
  }
  return config;
}

/// Checks a detector's alerts against the hijacks it must have seen:
/// each expected hijack raises exactly its alert (type, observed prefix,
/// offender, tenant), and every other alert is a super-prefix alert for
/// a generated super-prefix announcement. Returns the missed hijacks.
std::size_t check_alerts(const Window& w, const std::vector<HijackAlert>& alerts,
                         const std::vector<std::size_t>& expected,
                         std::vector<std::string>& errors, const std::string& where) {
  const auto fail = [&](const std::string& what) {
    if (errors.size() < 20) errors.push_back(where + ": " + what);
  };
  std::vector<char> want(w.hijacks.size(), 0);
  std::vector<char> seen(w.hijacks.size(), 0);
  for (const auto h : expected) want[h] = 1;
  for (const HijackAlert& a : alerts) {
    if (a.offender >= kHijackerAsnBase &&
        a.offender - kHijackerAsnBase < w.hijacks.size()) {
      const std::size_t index = a.offender - kHijackerAsnBase;
      const Hijack& h = w.hijacks[index];
      const HijackType type =
          h.kind == HijackKind::kExact ? HijackType::kExactOrigin : HijackType::kSubPrefix;
      if (!want[index]) {
        fail("alert for a hijack outside this run's input: " + a.to_string());
      } else if (seen[index]) {
        fail("duplicate alert: " + a.to_string());
      } else if (a.type != type || a.observed_prefix != h.observed.to_net() ||
                 a.owned_prefix != h.owned.to_net() ||
                 a.tenant_name != tenant_name(h.tenant)) {
        fail("wrong alert for hijack " + std::to_string(index) + ": " + a.to_string());
      }
      seen[index] = 1;
      continue;
    }
    const bool known_super =
        a.type == HijackType::kSuperPrefix && a.offender >= kSuperAsnBase &&
        a.offender - kSuperAsnBase < w.supers.size() &&
        w.supers[a.offender - kSuperAsnBase].prefix.to_net() == a.observed_prefix;
    if (!known_super) fail("unexpected alert: " + a.to_string());
  }
  std::size_t missed = 0;
  for (const auto h : expected) {
    if (!seen[h]) {
      ++missed;
      fail("hijack " + std::to_string(h) + " never alerted");
    }
  }
  return missed;
}

std::vector<std::string> alert_lines(const std::vector<HijackAlert>& alerts) {
  std::vector<std::string> out;
  out.reserve(alerts.size());
  for (const auto& a : alerts) out.push_back(a.to_string());
  return out;
}

/// When each fresh alert fired (steady clock), by offender.
struct AlertClock {
  std::vector<std::pair<std::uint32_t, std::int64_t>> fired;

  artemis::core::AlertHandler handler() {
    return [this](const HijackAlert& a) { fired.emplace_back(a.offender, now_ns()); };
  }
  /// Latency of every hijack alert from its due time.
  template <typename DueFn>
  void latencies(const Window& w, DueFn due_ns, std::vector<double>& out) const {
    for (const auto& [offender, t] : fired) {
      if (offender < kHijackerAsnBase || offender - kHijackerAsnBase >= w.hijacks.size()) {
        continue;
      }
      out.push_back(OpenLoopLedger::latency_ms(due_ns(offender - kHijackerAsnBase), t));
    }
  }
};

// --------------------------------------------------------------- ingest

/// One source's import ledger, from either ingest path.
struct Ledger {
  std::uint64_t records = 0, observations = 0, skipped = 0;
  std::uint64_t journaled = 0, dropped = 0;
  bool clean = true;
};

/// One pipeline batch: when it reached a stage (see Ingest::marks), and
/// its first observation's position in the source's converted stream.
struct BatchMark {
  std::int64_t at_ns = 0;
  std::uint64_t first_obs = 0;
};

/// The ingest path. Untraced it is IngestPipeline itself (artemis_ingest
/// defaults: batch 4096, lag bound 65536 with flush, detection tap after
/// the append). IngestPipeline hides its inner calls, so the traced path
/// makes the same public calls in the same order — sniffed
/// ChunkDecompressor -> ObservationConverter -> lag check + append_batch
/// -> submit_batch — with a span around each.
class Ingest {
 public:
  Ingest(const Ingest&) = delete;
  Ingest& operator=(const Ingest&) = delete;

  Ingest(JournalWriter& writer, ShardedDetector* detector, const Probe& probe,
         LayerCounts* counts)
      : writer_(writer), detector_(detector), probe_(probe), counts_(counts) {
    if (probe_.tracer == nullptr) {
      artemis::ingest::PipelineOptions options;
      if (detector != nullptr) {
        options.detection_tap = [this, detector](std::span<const Observation> batch) {
          detector->submit_batch(batch);
          marks_.push_back({now_ns(), converted_});
          converted_ += batch.size();
        };
      }
      pipeline_ = std::make_unique<artemis::ingest::IngestPipeline>(writer, options);
      return;
    }
    converter_ = std::make_unique<artemis::mrt::ObservationConverter>(options_.convert);
    sink_ = [this](std::span<const Observation> batch) { on_batch(batch); };
    inflated_ = [this](std::span<const std::uint8_t> data) {
      counts_->inflated_bytes += static_cast<double>(data.size());
      auto s = probe_.scope(probe_.id.convert);
      converter_->feed(data, sink_);
    };
  }

  void begin() {
    converted_ = 0;
    marks_.clear();
    if (pipeline_) {
      pipeline_->begin_source();
      return;
    }
    converter_->begin_file();
    decompressor_.reset();
    ledger_ = Ledger{};
  }

  /// The first chunk must hold the 4 magic bytes (every caller's does).
  void feed(std::span<const std::uint8_t> chunk) {
    if (pipeline_) {
      pipeline_->feed(chunk);
      return;
    }
    if (!decompressor_) {
      const auto magic = chunk.first(std::min<std::size_t>(4, chunk.size()));
      decompressor_ =
          artemis::mrt::make_chunk_decompressor(artemis::mrt::sniff_compression(magic));
    }
    auto s = probe_.scope(probe_.id.inflate);
    decompressor_->feed(chunk, inflated_);
  }

  Ledger finish() {
    if (pipeline_) {
      const auto stats = pipeline_->finish_source();
      Ledger l;
      l.records = stats.convert.records;
      l.observations = stats.convert.observations;
      l.skipped = stats.convert.skipped_records;
      l.journaled = stats.observations_journaled;
      l.dropped = stats.observations_dropped + stats.observations_skipped;
      l.clean = stats.convert.clean();
      return l;
    }
    {
      auto s = probe_.scope(probe_.id.inflate);
      decompressor_->finish(inflated_);
    }
    artemis::mrt::ConvertFileStats stats;
    {
      auto s = probe_.scope(probe_.id.convert);
      stats = converter_->finish_file(sink_);
    }
    ledger_.records = stats.records;
    ledger_.observations = stats.observations;
    ledger_.skipped = stats.skipped_records;
    ledger_.clean = stats.clean() && !decompressor_->truncated();
    counts_->records += stats.records;
    counts_->observations += stats.observations;
    counts_->skipped += stats.skipped_records;
    return ledger_;
  }

  /// One mark per batch: traced, when it left the converter; untraced
  /// (with a detector), when it was journaled and classified.
  const std::vector<BatchMark>& marks() const { return marks_; }

 private:
  void on_batch(std::span<const Observation> batch) {
    if (batch.empty()) return;
    probe_.tracer->set_batch(static_cast<std::uint32_t>(counts_->batches));
    auto s = probe_.scope(probe_.id.shim);
    marks_.push_back({now_ns(), converted_});
    converted_ += batch.size();
    counts_->converted += batch.size();
    ++counts_->batches;
    if (writer_.records_buffered() >= options_.max_lag_records) {
      auto f = probe_.scope(probe_.id.lag_flush);
      writer_.flush();
      ++counts_->lag_flushes;
    }
    {
      auto a = probe_.scope(probe_.id.append);
      writer_.append_batch(batch);
    }
    ledger_.journaled += batch.size();
    counts_->journaled += batch.size();
    if (detector_ != nullptr) {
      auto d = probe_.scope(probe_.id.submit);
      detector_->submit_batch(batch);
    }
    probe_.tracer->set_batch(kNoSpan);
  }

  JournalWriter& writer_;
  ShardedDetector* detector_;
  Probe probe_;
  LayerCounts* counts_;
  std::uint64_t converted_ = 0;
  std::vector<BatchMark> marks_;
  std::unique_ptr<artemis::ingest::IngestPipeline> pipeline_;
  // Traced path.
  artemis::ingest::PipelineOptions options_;
  std::unique_ptr<artemis::mrt::ObservationConverter> converter_;
  std::unique_ptr<artemis::mrt::ChunkDecompressor> decompressor_;
  artemis::feeds::ObservationBatchHandler sink_;
  artemis::mrt::ChunkDecompressor::Output inflated_;
  Ledger ledger_;
};

/// Time from each hijack being due until the batch holding its
/// observation left the converter.
template <typename DueFn>
void batch_waits(const Window& w, const std::vector<BatchMark>& marks, DueFn due_ns,
                 std::vector<double>& out) {
  for (std::size_t h = 0; h < w.hijacks.size(); ++h) {
    const auto it = std::upper_bound(
        marks.begin(), marks.end(), w.hijacks[h].obs_index,
        [](std::uint64_t obs, const BatchMark& m) { return obs < m.first_obs; });
    if (it == marks.begin()) continue;
    out.push_back(static_cast<double>(std::prev(it)->at_ns - due_ns(h)) / 1e6);
  }
}

/// `detected`: what the detector fed by this import processed, when one was.
void check_ledger(const Window& w, const Ledger& l, std::optional<std::uint64_t> detected,
                  std::vector<std::string>& errors, const std::string& where) {
  const auto fail = [&](const std::string& what) {
    if (errors.size() < 20) errors.push_back(where + ": " + what);
  };
  if (!l.clean) fail("import did not end cleanly");
  if (l.records != w.records || l.observations != w.observations ||
      l.skipped != w.skipped_records) {
    fail("converter counts " + std::to_string(l.records) + "/" +
         std::to_string(l.observations) + "/" + std::to_string(l.skipped) +
         " records/observations/skipped, generator wrote " + std::to_string(w.records) +
         "/" + std::to_string(w.observations) + "/" + std::to_string(w.skipped_records));
  }
  if (l.observations != l.journaled + l.dropped) {
    fail("ledger gap: converted " + std::to_string(l.observations) + " != journaled " +
         std::to_string(l.journaled) + " + dropped " + std::to_string(l.dropped));
  }
  if (detected && *detected != l.journaled) {
    fail("detector saw " + std::to_string(*detected) + " of " +
         std::to_string(l.journaled) + " journaled observations");
  }
}

/// Imports `input` into a fresh journal at `dir` with no detection (the
/// untimed pre-build of the replay workloads).
std::uint64_t prebuild_journal(const Window& w, const Bytes& input, const fs::path& dir,
                               const artemis::journal::JournalWriterOptions& options,
                               const Probe& probe, LayerCounts* counts,
                               std::vector<std::string>& errors) {
  fs::remove_all(dir);
  const std::int64_t start = now_ns();
  auto root = probe.scope(probe.id.setup);
  std::unique_ptr<JournalWriter> writer;
  {
    auto s = probe.scope(probe.id.open_writer);
    writer = std::make_unique<JournalWriter>(dir.string(), options);
  }
  Ingest ingest(*writer, nullptr, probe, counts);
  ingest.begin();
  for (std::size_t off = 0; off < input.size(); off += kChunkBytes) {
    ingest.feed(std::span(input).subspan(off, std::min(kChunkBytes, input.size() - off)));
  }
  const Ledger ledger = ingest.finish();
  {
    auto s = probe.scope(probe.id.close);
    writer->close();
  }
  if (counts != nullptr) {
    batch_waits(w, ingest.marks(), [start](std::size_t) { return start; },
                counts->batch_wait_ms);
    counts->segments += writer->segments_opened();
    counts->journal_bytes += writer->bytes_written();
  }
  check_ledger(w, ledger, std::nullopt, errors, "journal pre-build");
  return ledger.journaled;
}

/// A live ingest deployment: ownership table, detector with its alert
/// clock, journal writer on `dir`, and the ingest path feeding both.
/// Heap-held: the detector's alert handler points at `clock`.
struct Deployment {
  TablePtr table;
  AlertClock clock;
  std::unique_ptr<ShardedDetector> detector;
  std::unique_ptr<JournalWriter> writer;
  std::unique_ptr<Ingest> ingest;
};

/// The program's set-up for the ingest workloads (what setup_s times):
/// config and table, detector, journal writer on a fresh `dir`, pipeline.
std::unique_ptr<Deployment> deploy(const Universe& u, const fs::path& dir,
                                   const Probe& probe, LayerCounts* counts) {
  auto d = std::make_unique<Deployment>();
  d->clock.fired.reserve(8192);
  auto root = probe.scope(probe.id.setup);
  {
    auto b = probe.scope(probe.id.build);
    d->table = make_config(u).build_table();
  }
  {
    auto c = probe.scope(probe.id.create);
    d->detector = std::make_unique<ShardedDetector>(d->table);
    d->detector->on_alert(d->clock.handler());
  }
  {
    auto j = probe.scope(probe.id.open_writer);
    d->writer = std::make_unique<JournalWriter>(dir.string());
  }
  d->ingest = std::make_unique<Ingest>(*d->writer, d->detector.get(), probe, counts);
  return d;
}

/// setup_s samples: repeated deployments (see more_setups), torn down.
std::vector<double> time_deployments(const Universe& u, const fs::path& dir) {
  std::vector<double> out;
  for (double spent = 0; more_setups(out.size(), spent); spent += out.back()) {
    fs::remove_all(dir);
    const std::int64_t t0 = now_ns();
    const auto d = deploy(u, dir, Probe{}, nullptr);
    out.push_back(seconds_between(t0, now_ns()));
  }
  return out;
}

// --------------------------------------------------------------- replay

struct ReplayOut {
  double wall_s = 0;
  std::uint64_t replayed = 0;
  std::uint64_t scanned = 0;
  std::vector<HijackAlert> alerts;
};

/// The journal_alerts path: JournalReader -> ReplayFeed (optionally
/// filtered) -> MonitorHub -> ShardedDetector -> merged alerts.
ReplayOut replay(const fs::path& dir, const TablePtr& table,
                 const artemis::journal::QueryFilter& filter, const Probe& probe,
                 std::uint32_t phase, AlertClock* clock, LayerCounts* counts) {
  ReplayOut out;
  const std::int64_t t0 = now_ns();
  {
    auto root = probe.scope(phase);
    std::unique_ptr<JournalReader> reader;
    std::unique_ptr<ReplayFeed> feed;
    {
      auto s = probe.scope(probe.id.open_reader);
      reader = std::make_unique<JournalReader>(dir.string());
      artemis::journal::ReplayOptions options;
      options.filter = filter;
      feed = std::make_unique<ReplayFeed>(*reader, options);
    }
    std::unique_ptr<ShardedDetector> detector;
    {
      auto s = probe.scope(probe.id.create);
      detector = std::make_unique<ShardedDetector>(table);
      if (clock != nullptr) detector->on_alert(clock->handler());
    }
    MonitorHub hub;
    if (probe.tracer == nullptr) {
      detector->attach(hub);
      out.replayed = feed->replay_all(hub);
    } else {
      ShardedDetector* d = detector.get();
      hub.subscribe_batch([d, &probe](std::span<const Observation> batch) {
        auto s = probe.scope(probe.id.submit);
        d->submit_batch(batch);
      });
      auto s = probe.scope(probe.id.read);
      out.replayed = feed->replay_all([&hub, &probe](std::span<const Observation> batch) {
        auto p = probe.scope(probe.id.publish);
        hub.publish_batch(batch);
      });
    }
    {
      auto s = probe.scope(probe.id.merge);
      out.alerts = detector->merged_alerts();
    }
    out.scanned = reader->records_scanned();
    if (counts != nullptr) {
      counts->scanned += reader->records_scanned();
      counts->delivered += out.replayed;
      counts->segments_scanned += reader->segments_scanned();
      counts->segments_skipped += reader->segments_skipped();
      counts->detect_obs += detector->observations_processed();
      counts->detect_matched += detector->observations_matched();
      counts->detect_alerts += out.alerts.size();
    }
  }
  out.wall_s = seconds_between(t0, now_ns());
  return out;
}

std::uint64_t journal_disk_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// -------------------------------------------------------------- results

/// Everything one workload measures, turned into metrics at the end.
struct Samples {
  std::vector<double> throughput;  ///< per pass, obs/s (or one aggregate)
  /// Alert latency percentiles of each pass (one entry for an open loop
  /// or for pooled queries).
  std::vector<double> alert_p50_ms, alert_p99_ms;
  std::size_t alert_samples = 0;
  double alert_tail_used = 100;  ///< lowest percentile reported as "p99"
  std::vector<double> query_ms;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
  double journal_bytes_per_obs = 0;

  void add_alert_latencies(std::vector<double> ms) {
    double used = 0;
    alert_p99_ms.push_back(tail_percentile(ms, 99.0, used));
    alert_p50_ms.push_back(percentile(ms, 50.0));
    alert_samples += ms.size();
    alert_tail_used = std::min(alert_tail_used, used);
  }
};

void end_to_end_metrics(Samples& s, RunResult& r) {
  r.metric("throughput_obs_s", median(s.throughput), "obs/s");
  r.metric("alert_latency_p50_ms", median(s.alert_p50_ms), "ms");
  r.metric("alert_latency_p99_ms", median(s.alert_p99_ms), "ms");
  r.metric("query_latency_p50_ms", median(s.query_ms), "ms");
  r.metric("setup_s", median(s.setup_s), "s");
  r.metric("peak_rss_mb", s.peak_rss_mb, "MB");
  r.metric("journal_bytes_per_obs", s.journal_bytes_per_obs, "B/obs");
  r.metric("ok_ratio",
           r.attempted == 0 ? 0.0
                            : 1.0 - static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted),
           "ratio");
  r.details["alert_latency_samples"] = static_cast<double>(s.alert_samples);
  r.details["alert_latency_passes"] = static_cast<double>(s.alert_p50_ms.size());
  r.details["alert_latency_tail_percentile"] = s.alert_tail_used;
  r.details["query_samples"] = static_cast<double>(s.query_ms.size());
  r.details["query_latency_p10_ms"] = percentile(s.query_ms, 10.0);
  r.details["query_latency_p90_ms"] = percentile(s.query_ms, 90.0);
  r.details["throughput_samples"] = static_cast<double>(s.throughput.size());
  if (s.throughput.size() > 1) {
    r.details["throughput_min"] = *std::min_element(s.throughput.begin(), s.throughput.end());
    r.details["throughput_max"] = *std::max_element(s.throughput.begin(), s.throughput.end());
  }
  r.details["setup_samples"] = static_cast<double>(s.setup_s.size());
}

/// Per-layer metrics of a traced run, plus coverage and overhead.
void layer_metrics(const Tracer& tracer, LayerCounts& c, double overhead,
                   double lateness_tail_ms, const RunOptions& o, RunResult& r) {
  const TraceSummary t = summarize(tracer);
  const auto self = [&t](std::initializer_list<const char*> names) {
    double total = 0;
    for (const char* n : names) {
      const auto it = t.name_self_s.find(n);
      if (it != t.name_self_s.end()) total += it->second;
    }
    return total;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  r.metric("mrt.inflate_s", self({"mrt.inflate"}), "s");
  r.metric("mrt.inflate_mb", c.inflated_bytes / (1024.0 * 1024.0), "MB");
  r.metric("mrt.convert_s", self({"mrt.convert"}), "s");
  r.metric("mrt.records", static_cast<double>(c.records), "count");
  r.metric("mrt.observations", static_cast<double>(c.observations), "count");
  r.metric("mrt.skipped_records", static_cast<double>(c.skipped), "count");
  r.metric("mrt.batches", static_cast<double>(c.batches), "count");
  r.metric("mrt.batch_wait_ms_p50", percentile(c.batch_wait_ms, 50.0), "ms");
  r.metric("ingest.converted", static_cast<double>(c.converted), "count");
  r.metric("ingest.journaled", static_cast<double>(c.journaled), "count");
  r.metric("ingest.dropped", static_cast<double>(c.dropped), "count");
  r.metric("ingest.lag_flushes", static_cast<double>(c.lag_flushes), "count");
  r.metric("journal.append_s", self({"journal.append", "journal.lag_flush"}), "s");
  r.metric("journal.close_s", self({"journal.close"}), "s");
  r.metric("journal.segments", static_cast<double>(c.segments), "count");
  r.metric("journal.bytes", static_cast<double>(c.journal_bytes), "B");
  r.metric("journal.read_s", self({"journal.read", "journal.open_reader"}), "s");
  r.metric("journal.records_scanned", static_cast<double>(c.scanned), "count");
  r.metric("journal.records_delivered", static_cast<double>(c.delivered), "count");
  r.metric("journal.segments_scanned", static_cast<double>(c.segments_scanned), "count");
  r.metric("journal.segments_skipped", static_cast<double>(c.segments_skipped), "count");
  r.metric("journal.useful_ratio",
           ratio(static_cast<double>(c.delivered), static_cast<double>(c.scanned)), "ratio");
  r.metric("hub.publish_s", self({"hub.publish"}), "s");
  r.metric("detect.submit_s", self({"detect.submit"}), "s");
  r.metric("detect.observations", static_cast<double>(c.detect_obs), "count");
  r.metric("detect.matched", static_cast<double>(c.detect_matched), "count");
  r.metric("detect.alerts", static_cast<double>(c.detect_alerts), "count");
  r.metric("detect.match_ratio",
           ratio(static_cast<double>(c.detect_matched), static_cast<double>(c.detect_obs)),
           "ratio");
  r.metric("ownership.build_s", self({"ownership.build"}), "s");
  r.metric("ownership.prefixes", static_cast<double>(c.prefixes), "count");
  r.metric("ownership.tenants", static_cast<double>(c.tenants), "count");
  r.metric("gen.lateness_ms_p99", lateness_tail_ms, "ms");
  const double coverage = t.coverage("phase.pass");
  r.metric("trace.coverage", coverage, "ratio");
  r.metric("trace.overhead", overhead, "ratio");
  for (const char* layer : {"mrt", "ingest", "journal", "hub", "detect", "ownership", "gen"}) {
    r.metric(std::string("share.") + layer, t.share("phase.pass", layer), "ratio");
  }
  if (coverage < 0.9) {
    r.errors.push_back("trace coverage " + std::to_string(coverage) +
                       " < 0.9: the spans miss part of the timed phase");
  }

  // The span file and the per-phase breakdown, for reading by hand.
  const fs::path dir = fs::path(o.out_dir) / "trace";
  fs::create_directories(dir);
  if (!write_spans(tracer, (dir / (o.workload + ".spans.tsv")).string())) {
    r.errors.push_back("cannot write the span file");
  }
  std::ofstream summary(dir / (o.workload + ".layers.tsv"));
  summary << "phase\tlayer\tself_s\tshare_of_phase_wall\n";
  for (const auto& [phase, layers] : t.layer_self_s) {
    for (const auto& [layer, seconds] : layers) {
      summary << phase << '\t' << layer << '\t' << seconds << '\t' << t.share(phase, layer)
              << '\n';
    }
    summary << phase << "\t(wall)\t" << t.phase_wall_s.at(phase) << "\t1\n";
  }
}

/// Overhead of tracing: traced over untraced wall (or busy) time.
double overhead_ratio(const std::vector<double>& traced, const std::vector<double>& plain) {
  const double base = median(plain);
  return base > 0 ? median(traced) / base : 0.0;
}

void compare_alert_lists(const std::vector<std::string>& plain,
                         const std::vector<std::string>& traced, RunResult& r,
                         const std::string& where) {
  if (plain != traced) {
    r.errors.push_back(where + ": traced and untraced runs raised different alerts (" +
                       std::to_string(plain.size()) + " vs " +
                       std::to_string(traced.size()) + ")");
  }
}

/// Lateness of a closed loop: the gap between one pass ending and the
/// next starting (the generator's own bookkeeping between requests).
struct ClosedLoopGaps {
  OpenLoopLedger ledger;
  std::int64_t last_end = 0;
  void start(std::int64_t t) {
    if (last_end != 0) ledger.on_send(last_end, t);
  }
  void end(std::int64_t t) { last_end = t; }
  double tail_ms() const {
    double used = 0;
    return ledger.sent() == 0 ? 0.0 : ledger.lateness_tail_ms(used);
  }
};

// ======================================================= archive_catchup

RunResult archive_catchup(const RunOptions& o) {
  RunResult r;
  const Universe u = make_universe({40'000, 10'000, 10, 100}, o.seed);
  WindowSpec spec;
  spec.rib_v4 = 6'000;
  spec.rib_v6 = 2'000;
  spec.rib_peers = 16;
  spec.updates = 200'000;
  spec.owned_share = 0.05;
  spec.hijacks = 1'000;
  const Window w = make_window(u, spec, o.seed);
  const Bytes gz = gzip_bytes(w.mrt);
  r.inputs["universe"] = hex64(universe_hash(u));
  r.inputs["window.mrt"] = hex64(fnv1a(w.mrt));
  r.inputs["window.mrt.gz"] = hex64(fnv1a(gz));
  const fs::path dir = fs::path(o.out_dir) / "work" / "archive_catchup";
  std::vector<std::size_t> all(w.hijacks.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

  struct PassOut {
    double wall_s = 0;
    Ledger ledger;
    std::uint64_t journal_bytes = 0;
    std::vector<std::string> alerts;
    TablePtr table;
  };
  LayerCounts counts;
  Samples s;
  const auto run_pass = [&](const Probe& probe) {
    PassOut out;
    fs::remove_all(dir);
    const auto d = deploy(u, dir, probe, &counts);
    ShardedDetector* detector = d->detector.get();
    JournalWriter* writer = d->writer.get();
    Ingest* ingest = d->ingest.get();
    out.table = d->table;
    const std::int64_t p0 = now_ns();
    {
      auto root = probe.scope(probe.id.pass);
      ingest->begin();
      for (std::size_t off = 0; off < gz.size(); off += kChunkBytes) {
        ingest->feed(std::span(gz).subspan(off, std::min(kChunkBytes, gz.size() - off)));
      }
      out.ledger = ingest->finish();
      auto c = probe.scope(probe.id.close);
      writer->close();
    }
    out.wall_s = seconds_between(p0, now_ns());
    out.journal_bytes = writer->bytes_written();
    const auto alerts = detector->merged_alerts();
    out.alerts = alert_lines(alerts);
    check_ledger(w, out.ledger, detector->observations_processed(), r.errors,
                 "archive pass");
    const std::size_t missed = check_alerts(w, alerts, all, r.errors, "archive pass");
    r.attempted += out.ledger.observations + w.hijacks.size();
    r.failed += out.ledger.dropped + missed;
    std::vector<double> latencies;
    d->clock.latencies(w, [p0](std::size_t) { return p0; }, latencies);
    s.add_alert_latencies(std::move(latencies));
    if (probe.tracer != nullptr) {
      batch_waits(w, ingest->marks(), [p0](std::size_t) { return p0; },
                  counts.batch_wait_ms);
      counts.detect_obs += detector->observations_processed();
      counts.detect_matched += detector->observations_matched();
      counts.detect_alerts += alerts.size();
      counts.segments += writer->segments_opened();
      counts.journal_bytes += writer->bytes_written();
      counts.prefixes += out.table->owned().size();
      counts.tenants += out.table->tenants().size();
    }
    return out;
  };
  const auto verify = [&](const PassOut& last, const Probe& probe) {
    const ReplayOut rep =
        replay(dir, last.table, {}, probe, probe.id.verify, nullptr,
               probe.tracer != nullptr ? &counts : nullptr);
    if (rep.replayed != last.ledger.journaled) {
      r.errors.push_back("replay delivered " + std::to_string(rep.replayed) + " of " +
                         std::to_string(last.ledger.journaled) + " journaled records");
    }
    if (alert_lines(rep.alerts) != last.alerts) {
      r.errors.push_back("replaying the journal raised different alerts than the live tap");
    }
  };

  if (!o.trace) {
    s.setup_s = time_deployments(u, dir);
    restart_peak_rss(r);
    const std::int64_t start = now_ns();
    std::vector<std::string> first_alerts;
    PassOut last;
    while (s.throughput.size() < 3 || seconds_between(start, now_ns()) < o.seconds) {
      last = run_pass(Probe{});
      s.throughput.push_back(static_cast<double>(last.ledger.journaled) / last.wall_s);
      s.query_ms.push_back(last.wall_s * 1e3);
      if (first_alerts.empty()) first_alerts = last.alerts;
      if (last.alerts != first_alerts) {
        r.errors.push_back("two passes over the same input raised different alerts");
      }
    }
    s.peak_rss_mb = peak_rss_mb() - static_cast<double>(w.mrt.size() + gz.size()) / (1 << 20);
    s.journal_bytes_per_obs = static_cast<double>(last.journal_bytes) /
                              static_cast<double>(last.ledger.journaled);
    verify(last, Probe{});
    end_to_end_metrics(s, r);
  } else {
    Tracer tracer;
    const Probe traced = Probe::traced(tracer);
    std::vector<double> plain_wall, traced_wall;
    std::vector<std::string> plain_alerts;
    ClosedLoopGaps gaps;
    PassOut last;
    for (int i = 0; i < 3; ++i) {
      last = run_pass(Probe{});
      plain_wall.push_back(last.wall_s);
      plain_alerts = last.alerts;
    }
    for (int i = 0; i < 3; ++i) {
      gaps.start(now_ns());
      last = run_pass(traced);
      gaps.end(now_ns());
      traced_wall.push_back(last.wall_s);
      compare_alert_lists(plain_alerts, last.alerts, r, "archive");
    }
    verify(last, traced);
    layer_metrics(tracer, counts, overhead_ratio(traced_wall, plain_wall), gaps.tail_ms(), o,
                  r);
  }
  fs::remove_all(dir);
  return r;
}

// ==================================================== table_scale_replay

RunResult table_scale_replay(const RunOptions& o) {
  RunResult r;
  Universe u = make_universe({1'050'000, 200'000, 1'000, 1'000}, o.seed);
  WindowSpec spec;
  spec.rib_v4 = 30'000;
  spec.rib_v6 = 10'000;
  spec.rib_peers = 8;
  spec.updates = 250'000;
  spec.owned_share = 0.5;
  spec.super_share = 0.02;
  spec.hijacks = 1'000;
  const Window w = make_window(u, spec, o.seed);
  r.inputs["universe"] = hex64(universe_hash(u));
  r.inputs["window.mrt"] = hex64(fnv1a(w.mrt));
  const fs::path dir = fs::path(o.out_dir) / "work" / "table_scale_replay";
  std::vector<std::size_t> all(w.hijacks.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

  Tracer tracer;
  const Probe probe = o.trace ? Probe::traced(tracer) : Probe{};
  LayerCounts counts;
  artemis::journal::JournalWriterOptions journal_options;
  journal_options.segment_bytes = 4u << 20;  // several segments
  const std::uint64_t records = prebuild_journal(w, w.mrt, dir, journal_options, probe,
                                                 o.trace ? &counts : nullptr, r.errors);
  Samples s;
  s.journal_bytes_per_obs =
      static_cast<double>(journal_disk_bytes(dir)) / static_cast<double>(records);

  // Set-up: the 1M-prefix / 1k-tenant table.
  TablePtr table;
  for (double spent = 0; o.trace ? s.setup_s.empty() : more_setups(s.setup_s.size(), spent);
       spent += s.setup_s.back()) {
    table.reset();
    const std::int64_t t0 = now_ns();
    {
      auto root = probe.scope(probe.id.setup);
      auto b = probe.scope(probe.id.build);
      table = make_config(u).build_table();
    }
    s.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  counts.prefixes = table->owned().size();
  counts.tenants = table->tenants().size();
  u = Universe{};  // the program holds only the table from here on

  const auto run_pass = [&](const Probe& p, AlertClock& clock) {
    const std::int64_t p0 = now_ns();
    ReplayOut out = replay(dir, table, {}, p, p.id.pass, &clock,
                           p.tracer != nullptr ? &counts : nullptr);
    if (out.replayed != records) {
      r.errors.push_back("replay delivered " + std::to_string(out.replayed) + " of " +
                         std::to_string(records) + " journaled records");
    }
    const std::size_t missed = check_alerts(w, out.alerts, all, r.errors, "replay pass");
    r.attempted += out.replayed + w.hijacks.size();
    r.failed += missed + (records > out.replayed ? records - out.replayed : 0);
    return std::make_pair(out, p0);
  };

  if (!o.trace) {
    restart_peak_rss(r);
    const std::int64_t start = now_ns();
    std::vector<std::string> first;
    while (s.throughput.size() < 3 || seconds_between(start, now_ns()) < o.seconds) {
      AlertClock clock;
      auto [out, p0] = run_pass(Probe{}, clock);
      s.throughput.push_back(static_cast<double>(out.replayed) / out.wall_s);
      s.query_ms.push_back(out.wall_s * 1e3);
      const std::int64_t base = p0;
      std::vector<double> latencies;
      clock.latencies(w, [base](std::size_t) { return base; }, latencies);
      s.add_alert_latencies(std::move(latencies));
      if (first.empty()) first = alert_lines(out.alerts);
      if (alert_lines(out.alerts) != first) {
        r.errors.push_back("two replays of one journal raised different alerts");
      }
    }
    s.peak_rss_mb = peak_rss_mb() - static_cast<double>(w.mrt.size()) / (1 << 20);
    end_to_end_metrics(s, r);
  } else {
    std::vector<double> plain_wall, traced_wall;
    std::vector<std::string> plain_alerts;
    ClosedLoopGaps gaps;
    for (int i = 0; i < 2; ++i) {
      AlertClock clock;
      auto [out, p0] = run_pass(Probe{}, clock);
      plain_wall.push_back(out.wall_s);
      plain_alerts = alert_lines(out.alerts);
    }
    for (int i = 0; i < 2; ++i) {
      AlertClock clock;
      gaps.start(now_ns());
      auto [out, p0] = run_pass(probe, clock);
      gaps.end(now_ns());
      traced_wall.push_back(out.wall_s);
      compare_alert_lists(plain_alerts, alert_lines(out.alerts), r, "replay");
    }
    layer_metrics(tracer, counts, overhead_ratio(traced_wall, plain_wall), gaps.tail_ms(), o,
                  r);
  }
  fs::remove_all(dir);
  return r;
}

// ============================================================= live_feed

RunResult live_feed(const RunOptions& o) {
  RunResult r;
  const Universe u = make_universe({120'000, 30'000, 100, 1'000}, o.seed);
  // RIS-Live firehose order at a steady rate, plus one session reset in
  // which a peer re-announces its table as fast as it can send. Trace
  // mode runs the schedule twice (untraced, then traced), each shorter.
  const double span_s = o.trace ? o.seconds * 0.4 : o.seconds;
  constexpr double kRate = 20'000;  // records per second
  WindowSpec spec;
  spec.updates = static_cast<std::size_t>(kRate * span_s);
  spec.span_us = static_cast<std::int64_t>(span_s * 1e6);
  spec.owned_share = 0.2;
  spec.hijacks = static_cast<std::size_t>(100 * span_s);
  // The burst is sized so that its backlog clears in well under the
  // converter's batch-fill time (about 150 ms at this rate, the latency
  // ceiling of every steady-rate hijack), even on a host twice as slow.
  // p99 then stays on that ceiling instead of flipping between it and the
  // burst's processing time, which swings with the host's speed; the
  // burst moves p99 only once its backlog outlasts a batch fill. Its size
  // does not grow with the run, so neither does its backlog.
  spec.burst = 50'000;
  spec.burst_hijacks = spec.hijacks / 20;
  const Window w = make_window(u, spec, o.seed);
  r.inputs["universe"] = hex64(universe_hash(u));
  r.inputs["feed.mrt"] = hex64(fnv1a(w.mrt));
  std::vector<std::int64_t> due_ns(w.record_ts_us.size());
  for (std::size_t i = 0; i < due_ns.size(); ++i) {
    due_ns[i] = (w.record_ts_us[i] - spec.start_us) * 1'000;
  }
  const fs::path dir = fs::path(o.out_dir) / "work" / "live_feed";
  std::vector<std::size_t> all(w.hijacks.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;

  LayerCounts counts;
  struct LiveOut {
    double busy_s = 0;
    Ledger ledger;
    std::vector<double> alert_ms, record_ms;
    double lateness_tail_ms = 0;
    std::vector<std::string> alerts;
    TablePtr table;
    std::uint64_t journal_bytes = 0;
  };
  const auto run = [&](Deployment& d, const Probe& probe) {
    LiveOut out;
    OpenLoopLedger schedule;
    const std::int64_t t0 = now_ns() + 2'000'000;
    const std::int64_t wall0 = now_ns();
    {
      auto root = probe.scope(probe.id.pass);
      d.ingest->begin();
      std::size_t begin = 0;
      for (std::size_t i = 0; i < due_ns.size(); ++i) {
        const std::int64_t due = t0 + due_ns[i];
        std::int64_t t = now_ns();
        if (t < due) {
          auto g = probe.scope(probe.id.wait);
          const std::int64_t waited_from = t;
          while ((t = now_ns()) < due) {
          }
          schedule.on_wait(t - waited_from);
        }
        schedule.on_send(due, t);
        d.ingest->feed(std::span(w.mrt).subspan(begin, w.record_end[i] - begin));
        begin = w.record_end[i];
      }
      out.ledger = d.ingest->finish();
      auto c = probe.scope(probe.id.close);
      d.writer->close();
    }
    out.busy_s = seconds_between(wall0, now_ns()) -
                 static_cast<double>(schedule.waited_ns()) / 1e9;
    out.journal_bytes = d.writer->bytes_written();
    const auto due_of = [&](std::size_t h) { return t0 + due_ns[w.hijacks[h].record]; };
    d.clock.latencies(w, due_of, out.alert_ms);
    if (probe.tracer == nullptr) {
      // Each record is done once the batch holding its last observation
      // is journaled and classified.
      const auto& marks = d.ingest->marks();
      out.record_ms.reserve(due_ns.size());
      std::size_t b = 0;
      for (std::size_t i = 0; i < due_ns.size() && !marks.empty(); ++i) {
        const std::uint64_t first = i == 0 ? 0 : w.record_obs_end[i - 1];
        const std::uint64_t end = w.record_obs_end[i];
        if (end == first) continue;  // converts to no observation
        while (b + 1 < marks.size() && marks[b + 1].first_obs < end) ++b;
        out.record_ms.push_back(OpenLoopLedger::latency_ms(t0 + due_ns[i], marks[b].at_ns));
      }
    }
    double used = 0;
    out.lateness_tail_ms = schedule.lateness_tail_ms(used);
    const auto alerts = d.detector->merged_alerts();
    out.alerts = alert_lines(alerts);
    out.table = d.table;
    check_ledger(w, out.ledger, d.detector->observations_processed(), r.errors, "live feed");
    const std::size_t missed = check_alerts(w, alerts, all, r.errors, "live feed");
    std::size_t late = 0;
    for (const double ms : out.alert_ms) late += ms > kAlertLimitMs ? 1 : 0;
    r.attempted += out.ledger.observations + w.hijacks.size();
    r.failed += out.ledger.dropped + missed + late;
    if (probe.tracer != nullptr) {
      batch_waits(w, d.ingest->marks(), due_of, counts.batch_wait_ms);
      counts.detect_obs += d.detector->observations_processed();
      counts.detect_matched += d.detector->observations_matched();
      counts.detect_alerts += alerts.size();
      counts.segments += d.writer->segments_opened();
      counts.journal_bytes += d.writer->bytes_written();
      counts.prefixes += d.table->owned().size();
      counts.tenants += d.table->tenants().size();
    }
    return out;
  };
  const auto verify = [&](const LiveOut& live, const Probe& probe) {
    const ReplayOut rep = replay(dir, live.table, {}, probe, probe.id.verify, nullptr,
                                 probe.tracer != nullptr ? &counts : nullptr);
    if (rep.replayed != live.ledger.journaled) {
      r.errors.push_back("replay delivered " + std::to_string(rep.replayed) + " of " +
                         std::to_string(live.ledger.journaled) + " journaled records");
    }
    if (alert_lines(rep.alerts) != live.alerts) {
      r.errors.push_back("replaying the journal raised different alerts than the live tap");
    }
  };

  if (!o.trace) {
    Samples s;
    s.setup_s = time_deployments(u, dir);
    fs::remove_all(dir);
    std::unique_ptr<Deployment> d = deploy(u, dir, Probe{}, nullptr);
    restart_peak_rss(r);
    const LiveOut out = run(*d, Probe{});
    s.peak_rss_mb = peak_rss_mb() - static_cast<double>(w.mrt.size()) / (1 << 20);
    s.throughput.push_back(static_cast<double>(out.ledger.journaled) / out.busy_s);
    s.add_alert_latencies(out.alert_ms);
    s.query_ms = out.record_ms;
    s.journal_bytes_per_obs =
        static_cast<double>(out.journal_bytes) / static_cast<double>(out.ledger.journaled);
    r.details["generator_lateness_tail_ms"] = out.lateness_tail_ms;
    d.reset();
    verify(out, Probe{});
    end_to_end_metrics(s, r);
  } else {
    Tracer tracer;
    const Probe traced = Probe::traced(tracer);
    fs::remove_all(dir);
    std::unique_ptr<Deployment> d = deploy(u, dir, Probe{}, nullptr);
    const LiveOut plain = run(*d, Probe{});
    d.reset();
    fs::remove_all(dir);
    d = deploy(u, dir, traced, &counts);
    const LiveOut out = run(*d, traced);
    d.reset();
    compare_alert_lists(plain.alerts, out.alerts, r, "live feed");
    verify(out, traced);
    layer_metrics(tracer, counts, plain.busy_s > 0 ? out.busy_s / plain.busy_s : 0.0,
                  out.lateness_tail_ms, o, r);
  }
  fs::remove_all(dir);
  return r;
}

// ======================================================== forensic_query

RunResult forensic_query(const RunOptions& o) {
  RunResult r;
  constexpr std::size_t kTenants = 20;
  Universe u = make_universe({32'000, 8'000, kTenants, 1'000}, o.seed);
  WindowSpec spec;
  spec.updates = 400'000;
  spec.span_us = 30LL * 86'400 * 1'000'000;  // a month of history
  spec.owned_share = 0.3;
  spec.hijacks = 4'000;
  const Window w = make_window(u, spec, o.seed);
  r.inputs["universe"] = hex64(universe_hash(u));
  r.inputs["window.mrt"] = hex64(fnv1a(w.mrt));
  const fs::path dir = fs::path(o.out_dir) / "work" / "forensic_query";

  Tracer tracer;
  const Probe probe = o.trace ? Probe::traced(tracer) : Probe{};
  LayerCounts counts;
  artemis::journal::JournalWriterOptions journal_options;
  journal_options.segment_bytes = 64u << 10;
  journal_options.compress_segments = true;
  journal_options.index_segments = true;
  const std::uint64_t records = prebuild_journal(w, w.mrt, dir, journal_options, probe,
                                                 o.trace ? &counts : nullptr, r.errors);
  Samples s;
  s.journal_bytes_per_obs =
      static_cast<double>(journal_disk_bytes(dir)) / static_cast<double>(records);

  // Set-up: each tenant's own ownership table (its forensic view).
  std::vector<TablePtr> tables;
  for (double spent = 0; o.trace ? s.setup_s.empty() : more_setups(s.setup_s.size(), spent);
       spent += s.setup_s.back()) {
    tables.clear();
    const std::int64_t t0 = now_ns();
    {
      auto root = probe.scope(probe.id.setup);
      auto b = probe.scope(probe.id.build);
      for (std::size_t t = 0; t < kTenants; ++t) {
        tables.push_back(make_config(u, static_cast<std::int64_t>(t)).build_table());
      }
    }
    s.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  for (const auto& t : tables) {
    counts.prefixes += t->owned().size();
    counts.tenants += t->tenants().size();
  }
  u = Universe{};

  // A fixed list of queries, cycled: tenants and window positions vary
  // with the seed, the window width (a tenth of the month) does not, so
  // every query costs about the same and the median is steady.
  struct Query {
    std::size_t tenant;
    std::int64_t min_us, max_us;
  };
  std::vector<Query> queries;
  Prng qrng(o.seed ^ 0x7175657279ULL);
  for (std::size_t q = 0; q < 24; ++q) {
    const double width = 0.1;
    const double at = qrng.unit() * (1.0 - width);
    const auto min_us =
        spec.start_us + static_cast<std::int64_t>(at * static_cast<double>(spec.span_us));
    queries.push_back({(q * 7 + qrng.below(kTenants)) % kTenants, min_us,
                       min_us + static_cast<std::int64_t>(width *
                                                          static_cast<double>(spec.span_us))});
  }
  const auto run_query = [&](const Query& q, const Probe& p, std::vector<double>* alert_ms) {
    artemis::journal::QueryFilter filter;
    filter.min_event_us = q.min_us;
    filter.max_event_us = q.max_us;
    for (const auto& owned : tables[q.tenant]->owned()) {
      filter.any_prefixes.push_back(owned.prefix);
    }
    AlertClock clock;
    const std::int64_t q0 = now_ns();
    ReplayOut out = replay(dir, tables[q.tenant], filter, p, p.id.pass, &clock,
                           p.tracer != nullptr ? &counts : nullptr);
    std::vector<std::size_t> expected;
    for (std::size_t h = 0; h < w.hijacks.size(); ++h) {
      const Hijack& hj = w.hijacks[h];
      const bool in_window =
          std::any_of(hj.sightings_us.begin(), hj.sightings_us.end(),
                      [&q](std::int64_t t) { return t >= q.min_us && t <= q.max_us; });
      if (hj.tenant == q.tenant && in_window) expected.push_back(h);
    }
    const std::size_t missed = check_alerts(w, out.alerts, expected, r.errors, "query");
    r.attempted += expected.size() + 1;
    r.failed += missed;
    if (alert_ms != nullptr) clock.latencies(w, [q0](std::size_t) { return q0; }, *alert_ms);
    return out;
  };
  const auto verify = [&](const Probe& p) {
    const ReplayOut all = replay(dir, tables.front(), {}, p, p.id.verify, nullptr,
                                 p.tracer != nullptr ? &counts : nullptr);
    if (all.replayed != records) {
      r.errors.push_back("full replay delivered " + std::to_string(all.replayed) + " of " +
                         std::to_string(records) + " journaled records");
    }
  };

  if (!o.trace) {
    restart_peak_rss(r);
    const std::int64_t start = now_ns();
    double scanned = 0, busy = 0;
    std::vector<double> latencies;
    for (std::size_t i = 0; i < queries.size() || seconds_between(start, now_ns()) < o.seconds;
         ++i) {
      const ReplayOut out = run_query(queries[i % queries.size()], Probe{}, &latencies);
      s.query_ms.push_back(out.wall_s * 1e3);
      scanned += static_cast<double>(out.scanned);
      busy += out.wall_s;
    }
    s.peak_rss_mb = peak_rss_mb() - static_cast<double>(w.mrt.size()) / (1 << 20);
    s.throughput.push_back(scanned / busy);
    s.add_alert_latencies(std::move(latencies));
    verify(Probe{});
    end_to_end_metrics(s, r);
  } else {
    std::vector<double> plain_wall, traced_wall;
    ClosedLoopGaps gaps;
    std::vector<std::vector<std::string>> plain_alerts;
    for (const Query& q : queries) {
      const ReplayOut plain = run_query(q, Probe{}, nullptr);
      plain_wall.push_back(plain.wall_s);
      plain_alerts.push_back(alert_lines(plain.alerts));
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      gaps.start(now_ns());
      const ReplayOut out = run_query(queries[i], probe, nullptr);
      gaps.end(now_ns());
      traced_wall.push_back(out.wall_s);
      compare_alert_lists(plain_alerts[i], alert_lines(out.alerts), r, "query");
    }
    verify(probe);
    layer_metrics(tracer, counts, overhead_ratio(traced_wall, plain_wall), gaps.tail_ms(), o,
                  r);
  }
  fs::remove_all(dir);
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"archive_catchup", "table_scale_replay",
                                                 "live_feed", "forensic_query"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  fs::create_directories(fs::path(options.out_dir) / "work");
  if (options.workload == "archive_catchup") return archive_catchup(options);
  if (options.workload == "table_scale_replay") return table_scale_replay(options);
  if (options.workload == "live_feed") return live_feed(options);
  if (options.workload == "forensic_query") return forensic_query(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace perfbench
