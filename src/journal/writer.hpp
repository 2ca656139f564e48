// JournalWriter: the flight recorder's append side.
//
// Taps a MonitorHub's batch stream (or is fed directly) and appends every
// observation to the current segment file, rotating to a new segment once
// the configured size is exceeded. All encoding goes through one reusable
// byte buffer that is handed to write(2) in large chunks, so the steady
// state — sources interned, buffer at its high-water capacity — performs
// no heap allocations per batch: the hub's zero-allocation contract
// extends through the tap (tests/detection_alloc_test.cpp).
//
// Durability model: records become readable once flush()ed (or when the
// buffer fills); a crash between flushes loses only buffered records and
// can tear at most the final record on disk, which the reader's
// truncated-tail recovery drops cleanly. close() (or destruction)
// flushes everything.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "feeds/monitor_hub.hpp"
#include "feeds/observation.hpp"
#include "journal/codec.hpp"
#include "journal/index.hpp"
#include "telemetry/metrics.hpp"

namespace artemis::journal {

/// When the writer calls fsync(2). flush() alone makes records survive a
/// process kill (the bytes are the kernel's); fsync additionally makes
/// them survive a host power loss. kNever is the replay-tool default —
/// machine crashes lose the tail, which the resume contract already
/// drops cleanly. kOnRotate bounds power-loss exposure to one segment;
/// kInterval bounds it to a wall-clock window at a per-interval fsync
/// cost (the always-on ingest service's setting).
enum class FsyncPolicy : std::uint8_t { kNever, kOnRotate, kInterval };

/// What the writer deletes, and when. All limits apply to SEALED
/// segments only — the active segment is never deleted — and are
/// enforced oldest-first at every seal (rotation or close). Zero means
/// "no limit" for each knob; the default policy deletes nothing.
struct RetentionPolicy {
  /// Keep at most this many sealed segments.
  std::size_t max_segments = 0;
  /// Keep at most this many on-disk bytes of sealed segments (compressed
  /// segments count their compressed size).
  std::uint64_t max_bytes = 0;
  /// Delete sealed segments whose newest record was delivered more than
  /// this far (sim micros) before the journal's newest record. Applies
  /// only to segments with a readable index footer — age is unknowable
  /// without one, and retention never guesses.
  std::int64_t max_age_us = 0;

  bool enabled() const {
    return max_segments != 0 || max_bytes != 0 || max_age_us != 0;
  }
};

struct JournalWriterOptions {
  /// Rotate to a new segment once the current one reaches this many
  /// bytes (checked at batch boundaries; segments overshoot by at most
  /// one batch).
  std::size_t segment_bytes = 64u << 20;
  /// Buffered encode bytes before a write(2). Batches stage in memory up
  /// to this amount; flush() forces the write.
  std::size_t buffer_bytes = 256u << 10;
  FsyncPolicy fsync_policy = FsyncPolicy::kNever;
  /// kInterval only: wall-clock milliseconds between fsyncs, checked
  /// whenever buffered bytes reach the file (so an idle writer does not
  /// wake; the bound is "interval after the next write").
  std::int64_t fsync_interval_ms = 1000;
  /// Write a seg-<hex>.ajx index footer for every sealed segment (at
  /// rotation and at close), and backfill footers missing after a crash
  /// on resume. Footers are advisory — readers work without them — so
  /// this is safe to toggle per run.
  bool index_segments = true;
  /// Bloom filter size for the footers, bits (power of two >= 64).
  std::uint32_t index_bloom_bits = kDefaultBloomBits;
  /// Re-store sealed segments gzip-compressed (seg-<hex>.aj.gz; the raw
  /// file is removed only after the compressed one is fully on disk).
  /// Silently keeps segments raw when the binary lacks zlib.
  bool compress_segments = false;
  RetentionPolicy retention;
};

/// Parses the CLI spelling of the retention knob into `options`:
/// "none", or a comma-separated list of `segments=<n>`, `bytes=<n[k|m|g]>`
/// and `age=<n[s|m|h|d]>` terms ("segments=48,age=24h"). Returns false
/// on any other text.
bool parse_retention_policy(std::string_view text, JournalWriterOptions& options);

/// The inverse spelling, for stats output ("segments=48,age=86400s").
std::string retention_policy_to_string(const JournalWriterOptions& options);

/// Parses the CLI/scenario spelling of the knob — "never", "on_rotate",
/// or "interval:<ms>" — into `options`. Returns false on any other text.
bool parse_fsync_policy(std::string_view text, JournalWriterOptions& options);

/// The inverse spelling, for stats output ("interval:250").
std::string fsync_policy_to_string(const JournalWriterOptions& options);

class JournalWriter {
 public:
  /// Creates `dir` (and parents) if needed and opens a segment. When the
  /// directory already holds a journal (the restarted-monitor case), the
  /// writer RESUMES it: a torn tail left by a crash is truncated away
  /// and recording continues in a fresh segment at the next sequence
  /// number, so readers see one contiguous history. Throws JournalError
  /// when the directory/segment cannot be created or the existing
  /// journal was written by a different format version.
  explicit JournalWriter(std::string dir, JournalWriterOptions options = {});
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends a batch (usually called via the hub tap). Not thread-safe:
  /// one writer belongs to one hub's delivery thread.
  void append_batch(std::span<const feeds::Observation> batch);

  void append(const feeds::Observation& obs) { append_batch({&obs, 1}); }

  /// A batch handler that records into this writer — subscribe it to any
  /// feed or hub. The writer must outlive the subscription's use.
  feeds::ObservationBatchHandler tap() {
    return [this](std::span<const feeds::Observation> batch) {
      append_batch(batch);
    };
  }

  /// Subscribes the tap to a hub's batch stream.
  void attach(feeds::MonitorHub& hub) { hub.subscribe_batch(tap()); }

  /// Writes all buffered records to the current segment file.
  void flush();

  /// flush() + fsync(2), regardless of the configured policy. The
  /// ingest supervisor calls this before persisting a fetch cursor, so
  /// the cursor can never claim more than the journal holds.
  void sync();

  /// flush() + close the segment. Idempotent; further appends throw.
  void close();

  const std::string& dir() const { return dir_; }
  std::uint64_t records_written() const { return records_; }
  std::uint64_t segments_opened() const { return segments_; }
  /// Encoded bytes handed to the OS so far (excludes buffered bytes).
  std::uint64_t bytes_written() const { return total_bytes_; }
  /// Sequence number the next record will get.
  std::uint64_t next_sequence() const { return next_seq_; }

  // Lag accounting: how far the durable journal trails the append
  // stream. The ingest supervisor's backpressure policy bounds
  // records_buffered(); the stats surface exposes it as "journal lag".
  /// Records appended but not yet handed to write(2) (lost by a kill).
  std::uint64_t records_buffered() const { return records_ - records_flushed_; }
  /// Encoded bytes staged in memory, not yet handed to write(2).
  std::size_t bytes_buffered() const { return buffer_.size() - buffer_consumed_; }
  /// fsync(2) calls issued so far (policy-driven plus explicit sync()).
  std::uint64_t fsyncs() const { return fsyncs_; }

  /// Sealed segments re-stored gzip-compressed so far.
  std::uint64_t segments_compressed() const { return compressions_; }
  /// Sealed segments deleted by the retention policy so far.
  std::uint64_t segments_deleted() const { return retention_deletes_; }

  /// Attaches telemetry cells (register via telemetry::register_journal).
  /// Observation-only relaxed stores; the tap's zero-allocation steady
  /// state is unchanged (alloc-test enforced).
  void set_metrics(const telemetry::JournalCounters& metrics) {
    metrics_ = metrics;
  }

 private:
  /// One sealed segment the retention policy may reap: identity, on-disk
  /// cost, and (when its footer was readable) the delivery time of its
  /// newest record for the age rule.
  struct SealedSegment {
    std::uint64_t first_seq = 0;
    std::uint64_t bytes = 0;
    std::int64_t max_delivered_us = 0;
    bool has_footer = false;
  };

  /// Continues an existing journal in `dir_`: computes the resume
  /// sequence from the last segment and truncates its torn tail, if any.
  void resume_existing();
  void open_segment();
  void write_buffer();
  void do_fsync();
  /// Post-close-of-fd sealing of the segment starting at `first_seq`:
  /// index footer, optional compression, retention sweep. Must run
  /// before open_segment() resets the encoder's source table.
  void seal_segment(std::uint64_t first_seq);
  /// True when a valid footer is on disk afterwards (footer writes are
  /// best-effort: a failure degrades that segment to full scans).
  bool write_footer(std::uint64_t first_seq);
  /// Rewrites seg-<hex>.aj as seg-<hex>.aj.gz; returns the stored size
  /// (compressed, or raw when compression is off/unavailable).
  std::uint64_t store_sealed(std::uint64_t first_seq);
  void enforce_retention();
  /// Scans dir_ for already-sealed segments (resume) so retention counts
  /// the journal's full history, not just this process's segments.
  void load_sealed_registry();

  std::string dir_;
  JournalWriterOptions options_;
  RecordEncoder encoder_;
  std::vector<std::uint8_t> buffer_;
  std::size_t buffer_consumed_ = 0;  ///< buffer_ prefix already written out
  int fd_ = -1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t segment_first_seq_ = 0;  ///< first_seq of the open segment
  std::uint64_t segment_written_ = 0;  ///< bytes written to current segment
  std::int64_t last_delivered_us_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t records_flushed_ = 0;
  std::uint64_t segments_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::int64_t last_fsync_ms_ = 0;  ///< steady-clock ms of the last fsync
  telemetry::JournalCounters metrics_;  ///< null cells = disabled
  bool closed_ = false;
  // Queryable-archive state: the open segment's footer accumulator (its
  // Bloom array is allocated once here and memset per segment, keeping
  // the append tap allocation-free) and the sealed-segment registry the
  // retention sweep walks oldest-first.
  SegmentIndexBuilder index_builder_;
  std::vector<SealedSegment> sealed_;  ///< ascending first_seq
  std::uint64_t compressions_ = 0;
  std::uint64_t retention_deletes_ = 0;
};

}  // namespace artemis::journal
