// Per-segment index footers: the journal's queryable-archive layer.
//
// Every sealed segment seg-<hex>.aj[.gz] gets a sibling seg-<hex>.ajx
// "footer" file summarizing what the segment holds: its sequence range,
// its event/delivery time ranges, the interned source set, and a Bloom
// filter over the prefixes it mentions. A predicate query (journal_query,
// or a filtered ReplayFeed) reads only the tiny footers to decide which
// segments can possibly match, then decodes just those — cold archives
// stay compressed on disk unless the footer says they matter.
//
// The footer is ADVISORY metadata, same contract as the batch-frames
// sidecar: a missing, torn, or corrupt footer degrades that segment to a
// full scan, never an error. The record stream remains the only source
// of truth; footers can always be rebuilt from it (build_missing_footers,
// `journal_query --build-index`). Wire format is normative in
// docs/journal-format.md — fixtures regenerate from the document.
//
// Bloom semantics (the part that has to be exactly right): the filter
// answers "could any record's prefix OVERLAP query prefix P?" — overlap,
// not equality, because hijack forensics asks about covering routes and
// sub-prefix hijacks alike. Each record prefix is inserted truncated to
// every ladder length <= its own length (v4 ladder 8/16/24, v6 ladder
// 16/32/48); a record shorter than the first rung inserts a per-family
// marker key instead. A query tests P truncated to every ladder rung
// <= len(P), plus the marker; any hit means "maybe". A query prefix
// shorter than the first rung disables the Bloom test (conservatively
// "maybe") — see docs/journal-format.md §Bloom for the proof sketch.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/route.hpp"
#include "feeds/observation.hpp"
#include "journal/format.hpp"
#include "netbase/prefix.hpp"

namespace artemis::journal {

/// seg-<hex>.ajx magic, first 8 bytes of the file.
inline constexpr std::string_view kIndexMagic = "AJINDEX1";

/// The footer format version this build writes and reads. A footer with
/// a different version is ignored (full scan), not an error — footers
/// are advisory.
inline constexpr std::uint16_t kIndexVersion = 1;

/// Default Bloom size: 2^17 bits = 16 KiB per segment before trailing-
/// zero trimming (a sparse segment's footer is much smaller on disk).
inline constexpr std::uint32_t kDefaultBloomBits = 1u << 17;

/// "seg-<hex>.ajx" next to the segment files.
std::string index_path(const std::string& dir, std::uint64_t first_seq);

// ------------------------------------------------------------ the query

/// A replay/query predicate. Default-constructed matches everything.
/// Segment-level pruning uses the footer for the time range, source and
/// prefix terms; origin and type always filter record by record.
struct QueryFilter {
  /// Inclusive event-time window, in sim micros.
  std::int64_t min_event_us = std::numeric_limits<std::int64_t>::min();
  std::int64_t max_event_us = std::numeric_limits<std::int64_t>::max();
  /// Overlap predicate: matches records whose prefix covers or is
  /// covered by this one.
  std::optional<net::Prefix> prefix;
  /// Any-overlap predicate: matches records whose prefix overlaps AT
  /// LEAST ONE of these (ANDed with every other term, including
  /// `prefix`). This is the ownership projection — journal_alerts loads
  /// a config's owned prefixes here so footers prune segments that never
  /// mention owned space. Empty matches any.
  std::vector<net::Prefix> any_prefixes;
  /// Exact source name ("mrt:AS1234"); empty matches any. Records carry
  /// ids, so the record-level test takes this name resolved once.
  std::string source;
  /// Origin AS of the record's path; kNoAsn matches any.
  bgp::Asn origin = bgp::kNoAsn;
  /// Observation type; nullopt matches any.
  std::optional<feeds::ObservationType> type;

  bool is_trivial() const {
    return min_event_us == std::numeric_limits<std::int64_t>::min() &&
           max_event_us == std::numeric_limits<std::int64_t>::max() &&
           !prefix.has_value() && any_prefixes.empty() && source.empty() &&
           origin == bgp::kNoAsn && !type.has_value();
  }

  /// `source` as a SourceId (kNoSource when empty). Interns the name:
  /// resolve once per filter, not per record.
  feeds::SourceId resolve_source() const {
    return source.empty() ? feeds::kNoSource : feeds::intern_source(source);
  }

  /// The record-level test (exact, no false positives). `source_id` is
  /// this filter's resolve_source().
  bool matches(const feeds::Observation& obs, feeds::SourceId source_id) const;
};

// ----------------------------------------------------------- the footer

/// A decoded seg-<hex>.ajx footer.
struct SegmentIndex {
  std::uint64_t first_seq = 0;
  std::uint64_t record_count = 0;
  std::int64_t min_event_us = 0;
  std::int64_t max_event_us = 0;
  std::int64_t min_delivered_us = 0;
  std::int64_t max_delivered_us = 0;
  std::vector<std::string> sources;  ///< interned set, first-sight order
  std::uint8_t bloom_hashes = 0;     ///< k
  std::uint64_t bloom_bits = 0;      ///< m, power of two
  std::vector<std::uint64_t> bloom;  ///< m/64 words (zero tail restored)

  /// False only when the footer PROVES no record can match — every
  /// "don't know" answers true (the reader then scans the segment).
  bool may_match(const QueryFilter& filter) const;

  /// The Bloom overlap test alone ("could any record prefix overlap P?").
  bool may_contain_prefix(const net::Prefix& prefix) const;

  bool contains_source(std::string_view source) const;

  /// Serializes to the .ajx wire form (magic..CRC).
  std::vector<std::uint8_t> encode() const;

  /// Parses footer bytes. Returns nullopt — never throws — on short,
  /// torn, foreign-version, corrupt-CRC or malformed input: advisory
  /// metadata degrades, it does not error.
  static std::optional<SegmentIndex> decode(const std::uint8_t* data,
                                            std::size_t size);
};

/// Loads and validates `path`. nullopt when the file is missing or fails
/// SegmentIndex::decode — both mean "full-scan this segment".
std::optional<SegmentIndex> load_segment_index(const std::string& path);

// -------------------------------------------------------- the builder

/// Accumulates one open segment's footer as records are appended (the
/// writer's side). The Bloom array is allocated once and memset at
/// reset(), so the append hot path stays allocation-free; consecutive
/// records repeating one prefix (the common burst shape) pay the Bloom
/// insertion only once.
class SegmentIndexBuilder {
 public:
  explicit SegmentIndexBuilder(std::uint32_t bloom_bits = kDefaultBloomBits);

  /// Clears all state for a fresh segment starting at `first_seq`.
  void reset(std::uint64_t first_seq);

  /// Folds one appended observation into the running summary.
  void add(const feeds::Observation& obs);

  std::uint64_t record_count() const { return record_count_; }

  /// Snapshots the footer. `sources` is the segment's source table in
  /// first-sight order (the record encoder already maintains exactly
  /// this set); the footer stores their names.
  SegmentIndex finalize(std::span<const feeds::SourceId> sources) const;

 private:
  std::uint64_t first_seq_ = 0;
  std::uint64_t record_count_ = 0;
  std::int64_t min_event_us_ = 0;
  std::int64_t max_event_us_ = 0;
  std::int64_t min_delivered_us_ = 0;
  std::int64_t max_delivered_us_ = 0;
  std::uint64_t bloom_bits_;
  std::vector<std::uint64_t> bloom_;
  net::Prefix last_prefix_;  ///< burst dedup for the Bloom insertion
  bool any_prefix_ = false;
};

// ------------------------------------------------------- maintenance

/// Builds footers for sealed segments that lack a valid one, by decoding
/// the segment (decompressing if needed). The LAST segment in a journal
/// is assumed sealed too — callers invoke this on quiescent journals
/// (a live writer footers its own segments). Returns the number of
/// footers written; segments that fail to decode are skipped (they will
/// full-scan, which is the correct degradation). Throws JournalError
/// only when `dir` itself is unreadable.
std::size_t build_missing_footers(const std::string& dir,
                                  std::uint32_t bloom_bits = kDefaultBloomBits);

}  // namespace artemis::journal
