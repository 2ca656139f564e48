// JournalReader: sequential decode of a journal directory.
//
// Opens every segment (sorted by the first-sequence number embedded in
// the file name), validates each header — magic, header CRC, and an
// exact format-version match: a segment written by a different format
// version is refused with a named error, never misparsed — and checks
// that record sequences run contiguously across segments, so a missing
// or mid-journal-truncated segment surfaces as a hard error instead of
// silently dropped history.
//
// Recovery semantics: an incomplete record at the tail of the LAST
// segment is the expected signature of a crashed writer; the reader
// recovers every complete record before it and reports the condition via
// truncated_tail() instead of throwing. A CRC mismatch on a complete
// record is real corruption and throws JournalError.
//
// Reading decodes into a pipeline::ObservationBatch whose recycled slots
// keep their heap buffers, so a warm replay loop allocates only when a
// record is genuinely larger than anything seen before.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "journal/codec.hpp"
#include "journal/index.hpp"
#include "pipeline/observation_batch.hpp"

namespace artemis::journal {

class JournalReader {
 public:
  /// Scans `dir` for segments. Throws JournalError when the directory is
  /// unreadable or holds no segments.
  explicit JournalReader(std::string dir);

  JournalReader(const JournalReader&) = delete;
  JournalReader& operator=(const JournalReader&) = delete;

  /// Restricts read_batch to records matching `filter`. Call before the
  /// first read. Segments whose index footer proves no record can match
  /// are skipped without being opened (or decompressed) at all; records
  /// in scanned segments are filtered exactly, after decode. Sequence
  /// accounting stays intact across skips (the footer's CRC-protected
  /// record count advances the expected sequence), so gap detection is
  /// as strict as an unfiltered read.
  void set_filter(QueryFilter filter) {
    filter_ = std::move(filter);
    filter_source_ = filter_.resolve_source();
    filtering_ = !filter_.is_trivial();
  }

  /// Clears `out` and refills it with up to `max` observations in
  /// recorded order (matching the filter, when one is set). Returns the
  /// number delivered; 0 means end of journal. Throws JournalError on
  /// corruption (bad CRC, sequence gap, foreign format version).
  std::size_t read_batch(pipeline::ObservationBatch& out, std::size_t max);

  /// True once an incomplete record was found at the journal's tail (all
  /// complete records before it were delivered normally).
  bool truncated_tail() const { return truncated_tail_; }

  std::uint64_t records_read() const { return records_read_; }
  /// Sequence number of the next record to be delivered.
  std::uint64_t next_sequence() const { return next_seq_; }
  std::size_t segment_count() const { return segments_.size(); }
  const std::string& dir() const { return dir_; }

  // Scan accounting (the `journal_query` acceptance check: a selective
  // predicate over a multi-segment journal must SKIP the segments whose
  // footers rule them out, not open them).
  /// Segments opened and decoded so far.
  std::uint64_t segments_scanned() const { return segments_scanned_; }
  /// Segments pruned by their index footer without being opened.
  std::uint64_t segments_skipped() const { return segments_skipped_; }
  /// Records decoded (or run-memo stepped) so far — delivered or not.
  std::uint64_t records_scanned() const { return records_scanned_; }

 private:
  /// One segment's bytes, mmap'd read-only straight from the page cache
  /// (zero-copy, NDN-DPDK segment-file style); falls back to a plain
  /// read when mapping fails (e.g. filesystems without mmap).
  struct MappedSegment {
    MappedSegment() = default;
    ~MappedSegment();
    MappedSegment(const MappedSegment&) = delete;
    MappedSegment& operator=(const MappedSegment&) = delete;
    void open(const std::string& path);
    void reset();
    const std::uint8_t* data = nullptr;
    std::size_t size = 0;
    bool mapped = false;
    std::vector<std::uint8_t> owned;  ///< fallback storage only
  };

  /// Loads + validates the next segment; returns false when none remain.
  bool advance_segment();

  std::string dir_;
  std::vector<std::string> segments_;  ///< full paths, sequence order
  std::size_t segment_index_ = 0;      ///< next segment to load
  MappedSegment segment_;              ///< current segment contents
  std::size_t cursor_ = 0;             ///< decode position in the segment
  bool segment_loaded_ = false;
  RecordDecoder decoder_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t records_read_ = 0;
  bool first_segment_ = true;
  bool truncated_tail_ = false;
  QueryFilter filter_;
  feeds::SourceId filter_source_ = feeds::kNoSource;  ///< filter_.resolve_source()
  bool filtering_ = false;
  std::uint64_t segments_scanned_ = 0;
  std::uint64_t segments_skipped_ = 0;
  std::uint64_t records_scanned_ = 0;

  // Run memo: real feeds repeat a route within a burst, so consecutive
  // records are frequently byte-identical (the delta encoding maps
  // "same route, same instant" to the same bytes). When the framed
  // payload AND stored CRC match the previous record's exactly, the
  // observation is the verified previous one — copy it and skip the CRC
  // and decode work entirely. ~3-4× on bench_journal's replay bench.
  std::size_t prev_offset_ = 0;  ///< previous payload offset in data_
  std::size_t prev_length_ = static_cast<std::size_t>(-1);
  std::uint32_t prev_crc_ = 0;
  feeds::Observation prev_obs_;
};

}  // namespace artemis::journal
