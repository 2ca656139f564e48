#include "mrt/stream_reader.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#ifdef ARTEMIS_HAVE_ZLIB
#include <zlib.h>
#endif
#ifdef ARTEMIS_HAVE_BZIP2
#include <bzlib.h>
#endif

namespace artemis::mrt {

Compression sniff_compression(std::span<const std::uint8_t> head) {
  if (head.size() >= 2 && head[0] == 0x1F && head[1] == 0x8B) return Compression::kGzip;
  // "BZh" plus the block-size digit: a bare 3-byte check would
  // misclassify a raw MRT file whose first timestamp is 0x425A68xx.
  if (head.size() >= 4 && head[0] == 'B' && head[1] == 'Z' && head[2] == 'h' &&
      head[3] >= '1' && head[3] <= '9') {
    return Compression::kBzip2;
  }
  return Compression::kNone;
}

namespace {

/// Raw file bytes via read(2); owns the descriptor.
class FdSource {
 public:
  explicit FdSource(const std::string& path)
      : fd_(::open(path.c_str(), O_RDONLY)), path_(path) {
    if (fd_ < 0) throw std::runtime_error("cannot open MRT file: " + path);
  }
  ~FdSource() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdSource(const FdSource&) = delete;
  FdSource& operator=(const FdSource&) = delete;

  std::size_t read(std::span<std::uint8_t> buf) {
    std::size_t off = 0;
    while (off < buf.size()) {
      const ::ssize_t n = ::read(fd_, buf.data() + off, buf.size() - off);
      if (n == 0) break;
      if (n < 0) {
        if (errno == EINTR) continue;  // signal mid-import: retry, not abort
        throw std::runtime_error("cannot read MRT file: " + path_);
      }
      off += static_cast<std::size_t>(n);
    }
    return off;
  }

  const std::string& path() const { return path_; }

 private:
  int fd_;
  std::string path_;
};

class RawInput final : public InputStream {
 public:
  explicit RawInput(const std::string& path) : src_(path) {}
  std::size_t read(std::span<std::uint8_t> buf) override { return src_.read(buf); }

 private:
  FdSource src_;
};

constexpr std::size_t kCompressedChunk = 256 * 1024;

#ifdef ARTEMIS_HAVE_ZLIB
class GzipInput final : public InputStream {
 public:
  explicit GzipInput(const std::string& path) : src_(path), in_(kCompressedChunk) {
    zs_.zalloc = Z_NULL;
    zs_.zfree = Z_NULL;
    zs_.opaque = Z_NULL;
    // 15 + 32: max window, auto-detect zlib vs gzip wrapper.
    if (inflateInit2(&zs_, 15 + 32) != Z_OK) {
      throw std::runtime_error("inflateInit failed for " + path);
    }
  }
  ~GzipInput() override { inflateEnd(&zs_); }

  std::size_t read(std::span<std::uint8_t> buf) override {
    zs_.next_out = buf.data();
    zs_.avail_out = static_cast<uInt>(buf.size());
    while (zs_.avail_out > 0 && !done_) {
      if (zs_.avail_in == 0 && !eof_) refill();
      const int r = inflate(&zs_, Z_NO_FLUSH);
      if (r == Z_STREAM_END) {
        // Concatenated members (pigz, split-and-cat mirrors): if the next
        // bytes open another gzip member, keep inflating; trailing
        // non-member bytes are ignored like gzip(1) does. refill()
        // preserves undrained input, so a member boundary straddling a
        // read is still detected.
        if (zs_.avail_in < 2 && !eof_) refill();
        if (zs_.avail_in >= 2 && zs_.next_in[0] == 0x1F && zs_.next_in[1] == 0x8B) {
          if (inflateReset(&zs_) != Z_OK) {
            tear("gzip member reset failed");
            break;
          }
          continue;
        }
        done_ = true;
      } else if (r == Z_OK) {
        if (zs_.avail_in == 0 && eof_ && zs_.avail_out > 0) {
          tear("gzip stream truncated");  // mid-member EOF
        }
      } else if (r == Z_BUF_ERROR && zs_.avail_in == 0 && eof_) {
        tear("gzip stream truncated");
      } else {
        tear(zs_.msg != nullptr ? zs_.msg : "gzip stream corrupt");
      }
    }
    return buf.size() - zs_.avail_out;
  }

 private:
  void refill() {
    // Preserve undrained input: a member boundary can straddle reads.
    const std::size_t keep = zs_.avail_in;
    if (keep > 0 && zs_.next_in != in_.data()) {
      std::memmove(in_.data(), zs_.next_in, keep);
    }
    const std::size_t n = src_.read({in_.data() + keep, in_.size() - keep});
    zs_.next_in = in_.data();
    zs_.avail_in = static_cast<uInt>(keep + n);
    eof_ = n == 0;
  }
  void tear(const std::string& what) {
    truncated_ = true;
    error_ = what;
    done_ = true;
  }

  FdSource src_;
  std::vector<std::uint8_t> in_;
  z_stream zs_ = {};
  bool eof_ = false;
  bool done_ = false;
};
#endif  // ARTEMIS_HAVE_ZLIB

#ifdef ARTEMIS_HAVE_BZIP2
class Bz2Input final : public InputStream {
 public:
  explicit Bz2Input(const std::string& path) : src_(path), in_(kCompressedChunk) {
    if (BZ2_bzDecompressInit(&bzs_, 0, 0) != BZ_OK) {
      throw std::runtime_error("bzDecompressInit failed for " + path);
    }
  }
  ~Bz2Input() override { BZ2_bzDecompressEnd(&bzs_); }

  std::size_t read(std::span<std::uint8_t> buf) override {
    bzs_.next_out = reinterpret_cast<char*>(buf.data());
    bzs_.avail_out = static_cast<unsigned>(buf.size());
    while (bzs_.avail_out > 0 && !done_) {
      if (bzs_.avail_in == 0 && !eof_) refill();
      const int r = BZ2_bzDecompress(&bzs_);
      if (r == BZ_STREAM_END) {
        // Multi-stream files (pbzip2): restart on a following "BZh<1-9>".
        // refill() preserves undrained input across the boundary.
        if (bzs_.avail_in < 4 && !eof_) refill();
        if (bzs_.avail_in >= 4 && bzs_.next_in[0] == 'B' && bzs_.next_in[1] == 'Z' &&
            bzs_.next_in[2] == 'h' && bzs_.next_in[3] >= '1' && bzs_.next_in[3] <= '9') {
          char* carry_in = bzs_.next_in;
          const unsigned carry_avail = bzs_.avail_in;
          char* carry_out = bzs_.next_out;
          const unsigned carry_out_avail = bzs_.avail_out;
          BZ2_bzDecompressEnd(&bzs_);
          bzs_ = {};
          const int init = BZ2_bzDecompressInit(&bzs_, 0, 0);
          // Restore the output cursor either way: the wiped struct must
          // not make `buf.size() - avail_out` over-report written bytes.
          bzs_.next_out = carry_out;
          bzs_.avail_out = carry_out_avail;
          if (init != BZ_OK) {
            tear("bzip2 stream reset failed");
            break;
          }
          bzs_.next_in = carry_in;
          bzs_.avail_in = carry_avail;
          continue;
        }
        done_ = true;
      } else if (r == BZ_OK) {
        if (bzs_.avail_in == 0 && eof_ && bzs_.avail_out > 0) {
          tear("bzip2 stream truncated");
        }
      } else {
        tear("bzip2 stream corrupt");
      }
    }
    return buf.size() - bzs_.avail_out;
  }

 private:
  void refill() {
    const std::size_t keep = bzs_.avail_in;
    if (keep > 0 &&
        bzs_.next_in != reinterpret_cast<char*>(in_.data())) {
      std::memmove(in_.data(), bzs_.next_in, keep);
    }
    const std::size_t n = src_.read({in_.data() + keep, in_.size() - keep});
    bzs_.next_in = reinterpret_cast<char*>(in_.data());
    bzs_.avail_in = static_cast<unsigned>(keep + n);
    eof_ = n == 0;
  }
  void tear(const std::string& what) {
    truncated_ = true;
    error_ = what;
    done_ = true;
  }

  FdSource src_;
  std::vector<std::uint8_t> in_;
  bz_stream bzs_ = {};
  bool eof_ = false;
  bool done_ = false;
};
#endif  // ARTEMIS_HAVE_BZIP2

Compression sniff_file(const std::string& path) {
  FdSource src(path);
  std::uint8_t head[4] = {};
  const std::size_t n = src.read(head);
  return sniff_compression({head, n});
}

// -------------------------------------------------- push-mode decompression

/// kNone: transport bytes ARE the payload; forward the span untouched.
class IdentityChunk final : public ChunkDecompressor {
 public:
  bool feed(std::span<const std::uint8_t> in, const Output& out) override {
    if (!in.empty()) out(in);
    return true;
  }
  void finish(const Output&) override {}
  void reset() override {}
};

/// Shared shape of the zlib/bz2 push decoders: a persistent codec stream
/// fed directly from the caller's chunk, draining into one reusable
/// output buffer; member/stream boundaries may straddle chunks, so up to
/// magic-length bytes are carried while deciding "next member or
/// trailing garbage". Tears follow the InputStream contract (flag, not
/// throw) — both decoders only differ in the codec calls.
template <typename Derived>
class CodecChunkBase : public ChunkDecompressor {
 public:
  CodecChunkBase() : out_buf_(kCompressedChunk) {}

  bool feed(std::span<const std::uint8_t> in, const Output& out) override {
    std::size_t pos = 0;
    while (pos < in.size() && !done_) {
      if (boundary_len_ > 0 || at_boundary_) {
        // Between members: accumulate magic-length bytes to decide.
        while (boundary_len_ < Derived::kMagicLen && pos < in.size()) {
          boundary_carry_[boundary_len_++] = in[pos++];
        }
        if (boundary_len_ < Derived::kMagicLen) return !done_;
        if (!Derived::is_magic(boundary_carry_)) {
          done_ = true;  // trailing non-member bytes: ignored, clean end
          return false;
        }
        if (!self().restart()) {
          tear(Derived::kResetError);
          return false;
        }
        at_boundary_ = false;
        // Replay the carried magic through the fresh stream (codec
        // streams accept arbitrarily partial input).
        const std::size_t len = boundary_len_;
        boundary_len_ = 0;
        decode({boundary_carry_, len}, out);
        continue;
      }
      pos += decode(in.subspan(pos), out);
    }
    return !done_;
  }

  void finish(const Output&) override {
    if (done_) return;
    if (at_boundary_ || boundary_len_ > 0) {
      // Ended while sniffing a possible next member: whatever those
      // bytes were, a complete member already finished — clean end.
      done_ = true;
      return;
    }
    if (self().mid_member()) {
      tear(Derived::kTruncatedError);
    }
    done_ = true;
  }

  void reset() override {
    if (!self().restart()) throw std::runtime_error(Derived::kResetError);
    truncated_ = false;
    error_.clear();
    done_ = false;
    at_boundary_ = false;
    boundary_len_ = 0;
  }

 protected:
  /// Runs the codec over `in`, emitting to `out`; returns bytes consumed.
  /// Sets at_boundary_ at member end, done_/tear on corruption.
  std::size_t decode(std::span<const std::uint8_t> in, const Output& out) {
    return self().decode_impl(in, out);
  }

  void tear(const char* what) {
    truncated_ = true;
    error_ = what;
    done_ = true;
  }

  Derived& self() { return static_cast<Derived&>(*this); }

  std::vector<std::uint8_t> out_buf_;
  std::uint8_t boundary_carry_[4] = {};
  std::size_t boundary_len_ = 0;
  bool at_boundary_ = false;
  bool done_ = false;
};

#ifdef ARTEMIS_HAVE_ZLIB
class GzipChunk final : public CodecChunkBase<GzipChunk> {
 public:
  static constexpr std::size_t kMagicLen = 2;
  static constexpr const char* kResetError = "gzip member reset failed";
  static constexpr const char* kTruncatedError = "gzip stream truncated";

  GzipChunk() {
    zs_.zalloc = Z_NULL;
    zs_.zfree = Z_NULL;
    zs_.opaque = Z_NULL;
    if (inflateInit2(&zs_, 15 + 32) != Z_OK) {
      throw std::runtime_error("inflateInit failed");
    }
  }
  ~GzipChunk() override { inflateEnd(&zs_); }

  static bool is_magic(const std::uint8_t* p) { return p[0] == 0x1F && p[1] == 0x8B; }

  bool restart() { return inflateReset(&zs_) == Z_OK; }

  /// Mid-member iff inflate has consumed header bytes since the last
  /// member end and not reached the next one.
  bool mid_member() const { return started_; }

  std::size_t decode_impl(std::span<const std::uint8_t> in, const Output& out) {
    zs_.next_in = const_cast<Bytef*>(in.data());
    zs_.avail_in = static_cast<uInt>(in.size());
    started_ = true;
    while (zs_.avail_in > 0 && !done_ && !at_boundary_) {
      zs_.next_out = out_buf_.data();
      zs_.avail_out = static_cast<uInt>(out_buf_.size());
      const int r = inflate(&zs_, Z_NO_FLUSH);
      const std::size_t produced = out_buf_.size() - zs_.avail_out;
      if (produced > 0) out({out_buf_.data(), produced});
      if (r == Z_STREAM_END) {
        at_boundary_ = true;
        started_ = false;
      } else if (r != Z_OK && r != Z_BUF_ERROR) {
        tear(zs_.msg != nullptr ? zs_.msg : "gzip stream corrupt");
      }
    }
    return in.size() - zs_.avail_in;
  }

 private:
  z_stream zs_ = {};
  bool started_ = false;
};
#endif  // ARTEMIS_HAVE_ZLIB

#ifdef ARTEMIS_HAVE_BZIP2
class Bz2Chunk final : public CodecChunkBase<Bz2Chunk> {
 public:
  static constexpr std::size_t kMagicLen = 4;
  static constexpr const char* kResetError = "bzip2 stream reset failed";
  static constexpr const char* kTruncatedError = "bzip2 stream truncated";

  Bz2Chunk() {
    if (BZ2_bzDecompressInit(&bzs_, 0, 0) != BZ_OK) {
      throw std::runtime_error("bzDecompressInit failed");
    }
  }
  ~Bz2Chunk() override { BZ2_bzDecompressEnd(&bzs_); }

  static bool is_magic(const std::uint8_t* p) {
    return p[0] == 'B' && p[1] == 'Z' && p[2] == 'h' && p[3] >= '1' && p[3] <= '9';
  }

  bool restart() {
    BZ2_bzDecompressEnd(&bzs_);
    bzs_ = {};
    return BZ2_bzDecompressInit(&bzs_, 0, 0) == BZ_OK;
  }

  bool mid_member() const { return started_; }

  std::size_t decode_impl(std::span<const std::uint8_t> in, const Output& out) {
    bzs_.next_in = const_cast<char*>(reinterpret_cast<const char*>(in.data()));
    bzs_.avail_in = static_cast<unsigned>(in.size());
    started_ = true;
    while (bzs_.avail_in > 0 && !done_ && !at_boundary_) {
      bzs_.next_out = reinterpret_cast<char*>(out_buf_.data());
      bzs_.avail_out = static_cast<unsigned>(out_buf_.size());
      const int r = BZ2_bzDecompress(&bzs_);
      const std::size_t produced = out_buf_.size() - bzs_.avail_out;
      if (produced > 0) out({out_buf_.data(), produced});
      if (r == BZ_STREAM_END) {
        at_boundary_ = true;
        started_ = false;
      } else if (r != BZ_OK) {
        tear("bzip2 stream corrupt");
      }
    }
    return in.size() - bzs_.avail_in;
  }

 private:
  bz_stream bzs_ = {};
  bool started_ = false;
};
#endif  // ARTEMIS_HAVE_BZIP2

}  // namespace

std::unique_ptr<ChunkDecompressor> make_chunk_decompressor(Compression compression) {
  switch (compression) {
    case Compression::kGzip:
#ifdef ARTEMIS_HAVE_ZLIB
      return std::make_unique<GzipChunk>();
#else
      throw std::runtime_error("gzip payload but built without zlib");
#endif
    case Compression::kBzip2:
#ifdef ARTEMIS_HAVE_BZIP2
      return std::make_unique<Bz2Chunk>();
#else
      throw std::runtime_error("bzip2 payload but built without libbz2");
#endif
    case Compression::kNone:
      break;
  }
  return std::make_unique<IdentityChunk>();
}

std::unique_ptr<InputStream> open_input(const std::string& path) {
  return open_input(path, sniff_file(path));
}

std::unique_ptr<InputStream> open_input(const std::string& path,
                                        Compression compression) {
  switch (compression) {
    case Compression::kGzip:
#ifdef ARTEMIS_HAVE_ZLIB
      return std::make_unique<GzipInput>(path);
#else
      throw std::runtime_error("gzip input but built without zlib: " + path);
#endif
    case Compression::kBzip2:
#ifdef ARTEMIS_HAVE_BZIP2
      return std::make_unique<Bz2Input>(path);
#else
      throw std::runtime_error("bzip2 input but built without libbz2: " + path);
#endif
    case Compression::kNone:
      break;
  }
  return std::make_unique<RawInput>(path);
}

#ifdef ARTEMIS_HAVE_ZLIB
std::vector<std::uint8_t> gzip_compress(std::span<const std::uint8_t> in, int level) {
  z_stream zs = {};
  // 15 + 16: gzip wrapper; zlib writes mtime 0 and no name by default.
  if (deflateInit2(&zs, level, Z_DEFLATED, 15 + 16, 8, Z_DEFAULT_STRATEGY) != Z_OK) {
    throw std::runtime_error("deflateInit failed");
  }
  // Feed input in sub-4GiB slices: avail_in is 32-bit, and a silent
  // wrap would emit a valid-looking member missing most of the data.
  std::vector<std::uint8_t> out;
  std::uint8_t buf[64 * 1024];
  std::size_t pos = 0;
  for (;;) {
    const std::size_t take = std::min<std::size_t>(in.size() - pos, 1u << 30);
    zs.next_in = const_cast<Bytef*>(in.data() + pos);
    zs.avail_in = static_cast<uInt>(take);
    pos += take;
    const int flush = pos == in.size() ? Z_FINISH : Z_NO_FLUSH;
    int r = Z_OK;
    do {
      zs.next_out = buf;
      zs.avail_out = sizeof buf;
      r = deflate(&zs, flush);
      if (r == Z_STREAM_ERROR) {
        deflateEnd(&zs);
        throw std::runtime_error("deflate failed");
      }
      out.insert(out.end(), buf, buf + (sizeof buf - zs.avail_out));
    } while (zs.avail_out == 0);
    if (r == Z_STREAM_END) break;
  }
  deflateEnd(&zs);
  return out;
}
#endif  // ARTEMIS_HAVE_ZLIB

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  const auto in = open_input(path);
  std::vector<std::uint8_t> out;
  std::vector<std::uint8_t> buf(1 << 20);
  for (;;) {
    const std::size_t n = in->read(buf);
    if (n == 0) break;
    out.insert(out.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  if (in->truncated()) {
    throw std::runtime_error("compressed stream torn in " + path + ": " + in->error());
  }
  return out;
}

}  // namespace artemis::mrt
