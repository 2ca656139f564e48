// IngestPipeline: transport bytes in, journal records out.
//
// Sits between a FetchSource (or any byte producer) and a JournalWriter:
// sniffs the compression from the stream's magic bytes, pushes chunks
// through a reused ChunkDecompressor, feeds the decompressed MRT bytes to
// the streaming ObservationConverter, and appends the resulting batches —
// all in O(chunk) memory, allocation-free once warm (the decompressors,
// the converter's scratch and the writer's buffer are all recycled across
// sources; tests/detection_alloc_test.cpp pins it).
//
// Two concerns live at the append shim:
//
//  * Crash resume. A restarted supervisor re-fetches the interrupted URL
//    from byte 0 and re-converts deterministically; the shim drops the
//    first `skip` observations — exactly the ones the durable journal
//    already holds — so the journal continues without a duplicated or
//    lost record (the supervisor computes `skip` from the journal tail
//    and its persisted cursor).
//
//  * Backpressure. The journal lag (writer.records_buffered()) is
//    bounded by max_lag_records. kFlush (default) pushes the buffered
//    records to the OS — ingest pays the write, nothing is lost. kDrop
//    sheds the incoming batch instead and ACCOUNTS it: dropped counts are
//    first-class stats, never silent, and the arithmetic invariant
//      converted == journaled + skipped + dropped
//    holds at every finish_source() (tests assert it under fault load).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "feeds/observation.hpp"
#include "journal/writer.hpp"
#include "mrt/observation_convert.hpp"
#include "mrt/stream_reader.hpp"
#include "telemetry/metrics.hpp"

namespace artemis::ingest {

enum class LagPolicy : std::uint8_t {
  kFlush,  ///< bound lag by flushing the writer (lossless, default)
  kDrop,   ///< bound lag by shedding incoming batches (accounted loss)
};

/// Parses "flush" / "drop". Returns false on any other text.
bool parse_lag_policy(std::string_view text, LagPolicy& policy);
std::string_view to_string(LagPolicy policy);

struct PipelineOptions {
  mrt::ObservationConvertOptions convert;
  /// Backpressure bound on writer.records_buffered(), checked per batch.
  std::size_t max_lag_records = 65536;
  LagPolicy lag_policy = LagPolicy::kFlush;
  /// Optional live-detection tap, invoked with exactly the span each
  /// append journals (after the resume skip, after a kDrop shed). That
  /// equivalence is the contract: in a run with no drops and no crash,
  /// the tap sees the same stream a later journal replay would — so a
  /// ShardedDetector fed here (artemis_ingest --detect) raises the same
  /// alerts the replay path does. Called on the ingest thread, which
  /// classifies each span before the next one is converted.
  feeds::ObservationBatchHandler detection_tap;
  /// When set, the pipeline registers the ingest counter bundle and
  /// feeds the live ledger (converted/journaled/skipped/dropped, plus
  /// converter record counts at finish_source). Counter ordering is the
  /// /healthz contract: `converted` is bumped BEFORE the outcome
  /// counters, so a concurrent reader sees converted >= journaled +
  /// skipped + dropped (the difference is in flight) and a true ledger
  /// violation only as journaled+skipped+dropped > converted. Must
  /// outlive the pipeline.
  telemetry::MetricsRegistry* metrics = nullptr;
};

/// Per-source ledger, reset by begin_source(). The "no silent loss"
/// invariant: convert.observations == journaled + skipped + dropped.
struct SourceFeedStats {
  mrt::ConvertFileStats convert;
  mrt::Compression compression = mrt::Compression::kNone;
  std::uint64_t bytes_in = 0;  ///< transport (possibly compressed) bytes fed
  std::uint64_t observations_journaled = 0;
  std::uint64_t observations_skipped = 0;  ///< resume shim (already durable)
  std::uint64_t observations_dropped = 0;  ///< kDrop backpressure sheds
  std::uint64_t batches_dropped = 0;
  std::uint64_t lag_flushes = 0;  ///< kFlush backpressure flushes
  bool stream_truncated = false;  ///< compressed stream tore mid-member
  std::string stream_error;
};

class IngestPipeline {
 public:
  IngestPipeline(journal::JournalWriter& writer, PipelineOptions options = {});

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Starts a new source stream. `skip_observations` > 0 is the crash-
  /// resume case: that many leading observations re-converted from the
  /// re-fetched stream are dropped at the append shim (they are already
  /// durable in the journal).
  void begin_source(std::uint64_t skip_observations = 0);

  /// Pushes transport bytes (an HTTP body chunk, a file slice). Safe to
  /// call with any chunking, including one byte at a time.
  void feed(std::span<const std::uint8_t> chunk);

  /// Ends the source stream: drains the decompressor and the converter's
  /// carried tail, flushes the final partial batch, and returns the
  /// source's ledger. A mid-member transport tear surfaces here as
  /// stream_truncated (+ convert.truncated), same as the whole-file path.
  SourceFeedStats finish_source();

  /// The running ledger of the in-flight source (finish_source() returns
  /// the final version of the same object).
  const SourceFeedStats& current() const { return stats_; }

  mrt::ObservationConverter& converter() { return converter_; }
  journal::JournalWriter& writer() { return writer_; }

  /// The registered counter bundle (cells null when options.metrics was
  /// null). The supervisor shares it for fetch/cursor accounting.
  const telemetry::IngestCounters& metrics() const { return metrics_; }

 private:
  void on_batch(std::span<const feeds::Observation> batch);
  mrt::ChunkDecompressor* decompressor_for(mrt::Compression compression);

  journal::JournalWriter& writer_;
  PipelineOptions options_;
  mrt::ObservationConverter converter_;
  feeds::ObservationBatchHandler batch_sink_;  ///< bound once; reused per feed
  mrt::ChunkDecompressor::Output decompressed_sink_;
  // One decompressor per kind, created on first use and reset() on reuse,
  // so a long-running ingest loop allocates nothing per source.
  std::unique_ptr<mrt::ChunkDecompressor> identity_;
  std::unique_ptr<mrt::ChunkDecompressor> gzip_;
  std::unique_ptr<mrt::ChunkDecompressor> bzip2_;
  mrt::ChunkDecompressor* active_ = nullptr;  ///< null until sniffed
  std::uint8_t head_[4];                      ///< pre-sniff byte stash
  std::size_t head_len_ = 0;
  std::uint64_t skip_remaining_ = 0;
  SourceFeedStats stats_;
  telemetry::IngestCounters metrics_;  ///< null cells = disabled
};

}  // namespace artemis::ingest
