// Journal wire-format primitives: varints, zigzag, CRC32, segment header.
//
// The observation journal is a directory of append-only segment files
// ("flight recorder" style, after NDN-DPDK's segment-file I/O). Each
// segment is:
//
//   [SegmentHeader]                       32 bytes, fixed
//   [record]*                             until EOF (or truncated tail)
//
// and each record is:
//
//   varint payload_len | payload bytes | crc32(payload) LE32
//
// The payload encoding (codec.hpp) is delta/varint compressed and
// self-contained per segment: interned source strings and timestamp
// deltas reset at every segment boundary, so any segment can be decoded
// knowing only its header. The header carries the format version (the
// reader refuses anything it does not speak — no misparsing) and the
// sequence number of the first record, so a directory of segments forms
// one monotone, gap-checkable sequence.
//
// Crash recovery contract: a torn write can only produce an incomplete
// record at the tail of the *last* segment. The reader treats "bytes end
// before the record does" as a clean end-of-journal (recovering every
// complete record); a CRC mismatch on a complete record is corruption
// and is reported as an error, never silently skipped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace artemis::journal {

/// Thrown for unreadable directories, bad magic, unsupported format
/// versions, sequence gaps and CRC failures. Truncated tails are NOT
/// errors (see reader.hpp).
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

// ------------------------------------------------------------ constants

/// Segment file magic: "AJRN" (Artemis JouRNal), little-endian u32.
inline constexpr std::uint32_t kSegmentMagic = 0x4E524A41u;

/// The format version this build writes and reads. Bump on any payload
/// or header layout change; readers hard-reject other versions.
inline constexpr std::uint16_t kFormatVersion = 1;

/// Fixed header size; the first record starts at this offset.
inline constexpr std::size_t kSegmentHeaderSize = 32;

/// Segment file names: seg-<first_seq, 16 lowercase hex digits>.aj —
/// lexicographic order == sequence order. A sealed segment may instead
/// be stored gzip-compressed as seg-<hex>.aj.gz (cold archive form; the
/// reader decompresses transparently and replay is bit-identical), and
/// carries its index footer in a seg-<hex>.ajx sidecar (docs/
/// journal-format.md) — advisory metadata: torn or missing degrades to
/// a full scan, never an error.
inline constexpr std::string_view kSegmentPrefix = "seg-";
inline constexpr std::string_view kSegmentSuffix = ".aj";
inline constexpr std::string_view kCompressedSegmentSuffix = ".aj.gz";
inline constexpr std::string_view kIndexSuffix = ".ajx";

namespace detail {
/// "seg-" + 16 lowercase hex digits + `suffix`, nothing else.
inline bool is_segment_name_with_suffix(std::string_view name,
                                        std::string_view suffix) {
  if (name.size() != kSegmentPrefix.size() + 16 + suffix.size() ||
      !name.starts_with(kSegmentPrefix) || !name.ends_with(suffix)) {
    return false;
  }
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = name[kSegmentPrefix.size() + i];
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}
}  // namespace detail

inline bool is_raw_segment_file_name(std::string_view name) {
  return detail::is_segment_name_with_suffix(name, kSegmentSuffix);
}

inline bool is_compressed_segment_file_name(std::string_view name) {
  return detail::is_segment_name_with_suffix(name, kCompressedSegmentSuffix);
}

/// A reader-visible segment in either storage form. The index sidecar
/// (.ajx) and every other file — a legacy batch-frames.ajf included —
/// fail this test, so sequence accounting and resume only ever see
/// record-bearing files.
inline bool is_segment_file_name(std::string_view name) {
  return is_raw_segment_file_name(name) || is_compressed_segment_file_name(name);
}

inline bool is_index_file_name(std::string_view name) {
  return detail::is_segment_name_with_suffix(name, kIndexSuffix);
}

/// The first_seq a segment-shaped file name encodes. Callers must have
/// checked one of the predicates above.
inline std::uint64_t segment_name_seq(std::string_view name) {
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = name[kSegmentPrefix.size() + i];
    seq = (seq << 4) |
          static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return seq;
}

// -------------------------------------------------------------- varints

/// Appends an LEB128 varint (1-10 bytes). `Sink` needs push_back(uint8_t).
template <typename Sink>
inline void put_varint(Sink& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80u);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// ZigZag: maps small-magnitude signed values to small unsigned varints.
inline constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline constexpr std::int64_t zigzag_decode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// Bounded varint read. Returns false when the buffer ends mid-varint
/// (truncation) or the varint overflows 10 bytes (corruption — the
/// caller distinguishes via the CRC that follows).
inline bool get_varint(const std::uint8_t*& cursor, const std::uint8_t* end,
                       std::uint64_t& value) {
  value = 0;
  int shift = 0;
  while (cursor != end && shift < 70) {
    const std::uint8_t byte = *cursor++;
    value |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return true;
    shift += 7;
  }
  return false;
}

// ------------------------------------------------------------- framing

/// Steps over one framed record (`varint len | payload | crc32`).
/// Returns true with `payload`/`length` set and `cursor` advanced past
/// the frame; false — leaving `cursor` untouched — when the bytes end
/// before the frame does (a torn tail). Overflow-safe against corrupt
/// near-UINT64_MAX length varints. Shared by the reader's decode loop
/// and the writer's resume scan so both agree on what counts as a
/// complete record.
inline bool next_frame(const std::uint8_t*& cursor, const std::uint8_t* end,
                       const std::uint8_t*& payload, std::uint64_t& length) {
  const std::uint8_t* p = cursor;
  if (!get_varint(p, end, length)) return false;
  const std::uint64_t remaining = static_cast<std::uint64_t>(end - p);
  if (length > remaining || remaining - length < 4) return false;
  payload = p;
  cursor = p + length + 4;
  return true;
}

// ---------------------------------------------------------------- CRC32

/// The journal's checksum: CRC-32C (Castagnoli, poly 0x1EDC6F41,
/// reflected), the polynomial with hardware support on x86 (SSE4.2) and
/// ARM. The software path is slicing-by-8 (~0.5 B/cycle vs ~3 cycles/B
/// byte-at-a-time); hardware and software produce identical values, so
/// journals are portable across machines. Self-contained — no zlib.
/// Implementation in format.cpp; records pay this per ~25-byte payload,
/// which is why the table-per-byte variant was too slow for the replay
/// throughput bar (bench_journal).
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

// ------------------------------------------------------- segment header

/// Fixed 32-byte little-endian header at the front of every segment.
struct SegmentHeader {
  std::uint16_t version = kFormatVersion;
  /// Sequence number of this segment's first record. Sequences are
  /// assigned by the writer, start at 0 and increment by 1 per record;
  /// the reader checks contiguity across segments.
  std::uint64_t first_seq = 0;
  /// delivered_at (micros) of the last record in the *previous* segment
  /// (0 for the first) — purely informational, handy for seeking tools.
  std::int64_t base_time_us = 0;

  void encode(std::uint8_t out[kSegmentHeaderSize]) const;

  /// Validates magic and the header CRC; throws JournalError on either.
  /// Does NOT validate the version — the caller checks it explicitly so
  /// it can name the offending file and versions in its error.
  static SegmentHeader decode(const std::uint8_t in[kSegmentHeaderSize],
                              const std::string& file);
};

}  // namespace artemis::journal
