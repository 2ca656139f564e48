// MRT transport: compressed archive bytes in, raw MRT bytes out.
//
// Archived RouteViews/RIS windows ship gzip'd (updates) or bzip2'd (RIB
// snapshots). This layer makes compression a transport detail: open a
// path, get decompressed MRT bytes — streaming, no temp files, O(chunk)
// resident memory. Compression is sniffed from magic bytes, never file
// extensions (mirrors on object stores rename freely). Decoding the
// records themselves is ObservationConverter's job
// (mrt/observation_convert.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace artemis::mrt {

enum class Compression : std::uint8_t { kNone, kGzip, kBzip2 };

/// Sniffs the leading magic bytes (gzip 1f 8b, bzip2 "BZh" + block-size
/// digit).
Compression sniff_compression(std::span<const std::uint8_t> head);

/// A pull source of decompressed bytes. A torn or corrupt compressed
/// stream is NOT an exception: read() returns what was recovered, then 0,
/// with truncated() set — the MRT record layer treats the tail exactly
/// like an interrupted download of an uncompressed file.
class InputStream {
 public:
  virtual ~InputStream() = default;

  /// Fills up to buf.size() bytes; 0 means end of stream.
  virtual std::size_t read(std::span<std::uint8_t> buf) = 0;

  bool truncated() const { return truncated_; }
  const std::string& error() const { return error_; }

 protected:
  bool truncated_ = false;
  std::string error_;  ///< non-empty iff truncated(): what tore
};

/// Opens `path` with transparent decompression (sniffed, streaming).
/// Throws std::runtime_error if the file cannot be opened, or if it is
/// compressed and the binary was built without the matching library.
std::unique_ptr<InputStream> open_input(const std::string& path);

/// Same, with the compression already known (a caller that sniffed the
/// leading bytes itself skips the extra open+read here).
std::unique_ptr<InputStream> open_input(const std::string& path,
                                        Compression compression);

/// Push-mode peer of InputStream, for transports that deliver bytes to
/// us instead of being pulled from a file — the ingest supervisor's HTTP
/// body arrives one socket read at a time. Same tear contract as the
/// whole-file path: a torn or corrupt stream is NOT an exception. The
/// already-recovered prefix has been delivered to `out`, truncated() is
/// set, and further input is ignored — so a chunk-fed import recovers
/// exactly what the pull-based import of the same bytes would
/// (tests/mrt_import_test.cpp pins the equivalence).
class ChunkDecompressor {
 public:
  using Output = std::function<void(std::span<const std::uint8_t>)>;

  virtual ~ChunkDecompressor() = default;

  /// Pushes transport bytes; delivers decompressed bytes to `out` (zero
  /// or more calls; the identity codec forwards the span unchanged).
  /// Returns false once the stream has torn.
  virtual bool feed(std::span<const std::uint8_t> in, const Output& out) = 0;

  /// Signals end of transport. A stream cut mid-member tears here;
  /// trailing non-member bytes after a complete member are ignored, like
  /// gzip(1). Idempotent.
  virtual void finish(const Output& out) = 0;

  /// Rearms for a new stream of the same compression kind, so a
  /// long-running ingest loop reuses one decompressor (and its buffers)
  /// per source instead of allocating per fetch.
  virtual void reset() = 0;

  bool truncated() const { return truncated_; }
  const std::string& error() const { return error_; }

 protected:
  bool truncated_ = false;
  std::string error_;  ///< non-empty iff truncated(): what tore
};

/// Push-mode peer of open_input. Throws std::runtime_error for a
/// compression whose library this binary was built without.
std::unique_ptr<ChunkDecompressor> make_chunk_decompressor(Compression compression);

#ifdef ARTEMIS_HAVE_ZLIB
/// Deterministic single-member gzip (mtime 0, no name: the output
/// depends only on the input bytes, the level and the zlib version).
/// Fixture tooling today; the journal cold-segment archiver tomorrow.
std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> in,
                                        int level = 9);
#endif

/// Whole-file convenience: reads and transparently decompresses. A torn
/// or corrupt compressed stream throws std::runtime_error — a record-
/// boundary tear would otherwise be indistinguishable from a complete
/// file. (The streaming importer keeps its recover-the-prefix behavior
/// by driving InputStream directly and checking truncated().)
std::vector<std::uint8_t> read_file_bytes(const std::string& path);

}  // namespace artemis::mrt
