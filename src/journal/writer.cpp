#include "journal/writer.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <utility>

#include "mrt/stream_reader.hpp"

namespace artemis::journal {
namespace {

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string segment_path(const std::string& dir, std::uint64_t first_seq) {
  char name[32];  // kSegmentPrefix + 16 hex digits + kSegmentSuffix
  std::snprintf(name, sizeof(name), "seg-%016llx.aj",
                static_cast<unsigned long long>(first_seq));
  return dir + "/" + name;
}

std::string compressed_segment_path(const std::string& dir,
                                    std::uint64_t first_seq) {
  return segment_path(dir, first_seq) + ".gz";
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw JournalError(what + ": " + std::strerror(errno));
}

/// Writes `data` to `path` via tmp + fsync + rename, so the file either
/// exists complete or not at all. Returns false on any failure (the tmp
/// is removed; nothing else changes).
bool write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> data) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  std::size_t done = 0;
  bool ok = true;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    done += static_cast<std::size_t>(n);
  }
  if (ok) ok = ::fsync(fd) == 0;
  ::close(fd);
  std::error_code ec;
  if (ok) {
    std::filesystem::rename(tmp, path, ec);
    ok = !ec;
  }
  if (!ok) std::filesystem::remove(tmp, ec);
  return ok;
}

}  // namespace

bool parse_fsync_policy(std::string_view text, JournalWriterOptions& options) {
  if (text == "never") {
    options.fsync_policy = FsyncPolicy::kNever;
    return true;
  }
  if (text == "on_rotate") {
    options.fsync_policy = FsyncPolicy::kOnRotate;
    return true;
  }
  constexpr std::string_view kIntervalPrefix = "interval:";
  if (text.starts_with(kIntervalPrefix)) {
    const std::string_view ms_text = text.substr(kIntervalPrefix.size());
    std::int64_t ms = 0;
    const auto [p, ec] =
        std::from_chars(ms_text.data(), ms_text.data() + ms_text.size(), ms);
    if (ec != std::errc{} || p != ms_text.data() + ms_text.size() || ms < 0) {
      return false;
    }
    options.fsync_policy = FsyncPolicy::kInterval;
    options.fsync_interval_ms = ms;
    return true;
  }
  return false;
}

std::string fsync_policy_to_string(const JournalWriterOptions& options) {
  switch (options.fsync_policy) {
    case FsyncPolicy::kNever: return "never";
    case FsyncPolicy::kOnRotate: return "on_rotate";
    case FsyncPolicy::kInterval:
      return "interval:" + std::to_string(options.fsync_interval_ms);
  }
  return "never";
}

namespace {

/// "<digits><optional unit>" with the given unit table ("" = factor 1).
bool parse_scaled(std::string_view text,
                  std::span<const std::pair<std::string_view, std::uint64_t>> units,
                  std::uint64_t& value) {
  std::uint64_t n = 0;
  const auto [p, ec] = std::from_chars(text.data(), text.data() + text.size(), n);
  if (ec != std::errc{}) return false;
  const std::string_view unit(p, static_cast<std::size_t>(
                                     text.data() + text.size() - p));
  for (const auto& [name, factor] : units) {
    if (unit == name) {
      if (n > std::numeric_limits<std::uint64_t>::max() / (factor ? factor : 1)) {
        return false;
      }
      value = n * factor;
      return true;
    }
  }
  return false;
}

}  // namespace

bool parse_retention_policy(std::string_view text, JournalWriterOptions& options) {
  RetentionPolicy policy;
  if (text == "none") {
    options.retention = policy;
    return true;
  }
  static constexpr std::pair<std::string_view, std::uint64_t> kByteUnits[] = {
      {"", 1}, {"k", 1u << 10}, {"m", 1u << 20}, {"g", 1u << 30}};
  static constexpr std::pair<std::string_view, std::uint64_t> kAgeUnits[] = {
      {"s", 1}, {"m", 60}, {"h", 3600}, {"d", 86400}};
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    const std::string_view term = text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    const std::size_t eq = term.find('=');
    if (eq == std::string_view::npos) return false;
    const std::string_view key = term.substr(0, eq);
    const std::string_view val = term.substr(eq + 1);
    std::uint64_t n = 0;
    if (key == "segments") {
      static constexpr std::pair<std::string_view, std::uint64_t> kNone[] = {
          {"", 1}};
      if (!parse_scaled(val, kNone, n) || n == 0) return false;
      policy.max_segments = static_cast<std::size_t>(n);
    } else if (key == "bytes") {
      if (!parse_scaled(val, kByteUnits, n) || n == 0) return false;
      policy.max_bytes = n;
    } else if (key == "age") {
      if (!parse_scaled(val, kAgeUnits, n) || n == 0) return false;
      policy.max_age_us = static_cast<std::int64_t>(n) * 1'000'000;
    } else {
      return false;
    }
  }
  if (!policy.enabled()) return false;  // empty string
  options.retention = policy;
  return true;
}

std::string retention_policy_to_string(const JournalWriterOptions& options) {
  const RetentionPolicy& p = options.retention;
  if (!p.enabled()) return "none";
  std::string out;
  const auto term = [&out](const std::string& t) {
    if (!out.empty()) out += ',';
    out += t;
  };
  if (p.max_segments != 0) term("segments=" + std::to_string(p.max_segments));
  if (p.max_bytes != 0) term("bytes=" + std::to_string(p.max_bytes));
  if (p.max_age_us != 0) {
    term("age=" + std::to_string(p.max_age_us / 1'000'000) + "s");
  }
  return out;
}

JournalWriter::JournalWriter(std::string dir, JournalWriterOptions options)
    : dir_(std::move(dir)),
      options_(options),
      index_builder_(options.index_segments ? options.index_bloom_bits : 0) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw JournalError("cannot create journal directory " + dir_ + ": " +
                       ec.message());
  }
  buffer_.reserve(options_.buffer_bytes + (64u << 10));
  last_fsync_ms_ = steady_ms();
  resume_existing();
  // Every segment on disk is now sealed (the resume scan truncated any
  // torn tail; appends go to a fresh segment). A crash can have sealed
  // segments without footers — backfill so the archive stays queryable.
  if (options_.index_segments) {
    build_missing_footers(dir_, options_.index_bloom_bits);
  }
  if (options_.retention.enabled()) load_sealed_registry();
  open_segment();
}

void JournalWriter::resume_existing() {
  // A restarted monitor reuses its journal_dir: find where the recorded
  // sequence ends, drop any torn tail the crash left, and continue in a
  // NEW segment (appending into the old one is impossible — its encoder
  // state died with the writer; segments decode standalone by design).
  namespace fs = std::filesystem;
  std::uint64_t first_seq = 0;
  std::string last_path;
  bool last_compressed = false;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (!is_segment_file_name(name)) continue;
    const std::uint64_t seq = segment_name_seq(name);
    // A crash between "compressed copy renamed in" and "raw removed"
    // leaves both storage forms. The raw file is the one that was sealed
    // first — prefer it and sweep the stale duplicate.
    if (is_compressed_segment_file_name(name) &&
        fs::exists(segment_path(dir_, seq))) {
      std::error_code ec;
      fs::remove(entry.path(), ec);
      continue;
    }
    if (last_path.empty() || seq > first_seq ||
        (seq == first_seq && last_compressed)) {
      first_seq = seq;
      last_path = entry.path().string();
      last_compressed = is_compressed_segment_file_name(name);
    }
  }
  if (last_path.empty()) return;

  std::vector<std::uint8_t> data;
  if (last_compressed) {
    // A compressed segment was written whole (tmp + rename at seal), so
    // it cannot hold a torn tail; decode it only to count its records.
    auto input = mrt::open_input(last_path);
    std::uint8_t chunk[64 << 10];
    for (std::size_t n = input->read(chunk); n != 0; n = input->read(chunk)) {
      data.insert(data.end(), chunk, chunk + n);
    }
    if (input->truncated()) {
      throw JournalError(last_path + ": compressed segment is torn (" +
                         input->error() + ")");
    }
  } else {
    std::FILE* file = std::fopen(last_path.c_str(), "rb");
    if (file == nullptr) {
      throw JournalError("cannot open journal segment " + last_path);
    }
    std::fseek(file, 0, SEEK_END);
    const long file_size = std::ftell(file);
    std::fseek(file, 0, SEEK_SET);
    data.resize(file_size > 0 ? static_cast<std::size_t>(file_size) : 0);
    const bool ok = data.empty() ||
                    std::fread(data.data(), 1, data.size(), file) == data.size();
    std::fclose(file);
    if (!ok) throw JournalError("short read on journal segment " + last_path);
  }

  std::size_t complete_end = 0;
  std::uint64_t records = 0;
  if (data.size() >= kSegmentHeaderSize) {
    const SegmentHeader header = SegmentHeader::decode(data.data(), last_path);
    if (header.version != kFormatVersion) {
      throw JournalError(last_path + ": cannot resume a journal written with "
                         "format version " + std::to_string(header.version));
    }
    // The file name encodes first_seq; it is the fallback identity when a
    // crash tore the write before the header itself was complete.
    if (header.first_seq != first_seq) {
      throw JournalError(last_path + ": header sequence " +
                         std::to_string(header.first_seq) +
                         " disagrees with the file name");
    }
    // Walk the frames to the last complete record (next_frame is the
    // same step the reader takes, so resume and recovery agree on what
    // counts as complete); whatever follows is a torn tail to discard.
    const std::uint8_t* cursor = data.data() + kSegmentHeaderSize;
    const std::uint8_t* const end = data.data() + data.size();
    const std::uint8_t* payload = nullptr;
    std::uint64_t length = 0;
    while (next_frame(cursor, end, payload, length)) {
      complete_end = static_cast<std::size_t>(cursor - data.data());
      ++records;
    }
  }
  if (last_compressed && complete_end < data.size()) {
    throw JournalError(last_path + ": compressed segment ends mid-record");
  }

  if (records == 0) {
    // Header-only (or torn-before-header) segment: reclaim its slot so
    // the new segment can take the same first_seq without colliding.
    fs::remove(last_path);
    std::error_code ec;
    fs::remove(index_path(dir_, first_seq), ec);
  } else if (complete_end < data.size()) {
    std::error_code ec;
    fs::resize_file(last_path, complete_end, ec);
    if (ec) {
      throw JournalError("cannot truncate torn tail of " + last_path + ": " +
                         ec.message());
    }
    // Any footer sealed before the tear now over-counts the segment
    // (its record_count includes the records just truncated away, which
    // would corrupt skip-mode sequence accounting once a later segment
    // exists). Drop it; the backfill pass rebuilds an accurate one.
    fs::remove(index_path(dir_, first_seq), ec);
  }
  next_seq_ = first_seq + records;
}

JournalWriter::~JournalWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; a failed final flush loses buffered
    // records, which the durability model already allows for crashes.
  }
}

void JournalWriter::open_segment() {
  const std::string path = segment_path(dir_, next_seq_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd_ < 0) throw_errno("cannot create journal segment " + path);
  ++segments_;
  segment_first_seq_ = next_seq_;
  segment_written_ = 0;

  SegmentHeader header;
  header.first_seq = next_seq_;
  header.base_time_us = last_delivered_us_;
  std::uint8_t raw[kSegmentHeaderSize];
  header.encode(raw);
  buffer_.insert(buffer_.end(), raw, raw + kSegmentHeaderSize);
  encoder_.reset();  // segments decode standalone
  index_builder_.reset(next_seq_);
}

void JournalWriter::write_buffer() {
  // buffer_consumed_ persists across calls: if write(2) fails mid-loop
  // (ENOSPC and the like) and the caller retries after the condition
  // clears, the retry resumes exactly where the last write stopped —
  // re-writing the already-flushed prefix would splice duplicate bytes
  // into the segment and corrupt every record after them.
  while (buffer_consumed_ < buffer_.size()) {
    const ssize_t n = ::write(fd_, buffer_.data() + buffer_consumed_,
                              buffer_.size() - buffer_consumed_);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("journal write failed in " + dir_);
    }
    buffer_consumed_ += static_cast<std::size_t>(n);
    segment_written_ += static_cast<std::size_t>(n);
    total_bytes_ += static_cast<std::size_t>(n);
  }
  buffer_.clear();
  buffer_consumed_ = 0;
  records_flushed_ = records_;
  if (metrics_.lag_records != nullptr) metrics_.lag_records->set(0);
  if (options_.fsync_policy == FsyncPolicy::kInterval && fd_ >= 0 &&
      steady_ms() - last_fsync_ms_ >= options_.fsync_interval_ms) {
    do_fsync();
  }
}

void JournalWriter::do_fsync() {
  if (::fsync(fd_) != 0) throw_errno("journal fsync failed in " + dir_);
  ++fsyncs_;
  if (metrics_.fsyncs != nullptr) metrics_.fsyncs->add();
  last_fsync_ms_ = steady_ms();
}

void JournalWriter::append_batch(std::span<const feeds::Observation> batch) {
  if (closed_) throw JournalError("append on a closed JournalWriter (" + dir_ + ")");
  if (batch.empty()) return;
  for (const auto& obs : batch) {
    encoder_.encode(obs, buffer_);
    if (options_.index_segments) index_builder_.add(obs);
    ++next_seq_;
    ++records_;
    last_delivered_us_ = obs.delivered_at.as_micros();
  }
  if (metrics_.appends != nullptr) {
    metrics_.appends->add();
    metrics_.records->add(batch.size());
    metrics_.lag_records->set(
        static_cast<std::int64_t>(records_ - records_flushed_));
  }
  if (buffer_.size() >= options_.buffer_bytes) write_buffer();
  // Rotation is a batch-boundary event so the steady state inside one
  // segment stays allocation-free.
  if (segment_written_ + buffer_.size() >= options_.segment_bytes) {
    write_buffer();
    if (options_.fsync_policy == FsyncPolicy::kOnRotate) do_fsync();
    if (metrics_.rotations != nullptr) metrics_.rotations->add();
    // close(2) releases the descriptor even on failure: drop fd_ first
    // so a throw cannot leave a dangling descriptor to double-close or
    // write through later.
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) throw_errno("journal segment close failed in " + dir_);
    // Seal before open_segment(): sealing snapshots the encoder's source
    // table and the index accumulator, both of which open_segment resets.
    seal_segment(segment_first_seq_);
    open_segment();
  }
}

void JournalWriter::flush() {
  if (closed_) return;
  write_buffer();
}

void JournalWriter::sync() {
  if (closed_) return;
  write_buffer();
  if (fd_ >= 0) do_fsync();
}

void JournalWriter::close() {
  if (closed_) return;
  write_buffer();
  // A continuation segment that never received a record is pure noise: a
  // no-op restart (everything resume-skipped) would otherwise grow the
  // journal by one header-only file per run. Reclaim it here — the same
  // cleanup the next resume_existing() would do, just earlier. A fresh
  // journal's very first segment is kept even when empty, so "created an
  // empty journal" remains observable.
  const bool empty_continuation =
      next_seq_ == segment_first_seq_ && segment_first_seq_ > 0;
  if (!empty_continuation && options_.fsync_policy != FsyncPolicy::kNever &&
      fd_ >= 0) {
    do_fsync();
  }
  closed_ = true;
  if (fd_ >= 0 && ::close(fd_) != 0) {
    fd_ = -1;
    throw_errno("journal segment close failed in " + dir_);
  }
  fd_ = -1;
  if (empty_continuation) {
    std::error_code ec;
    std::filesystem::remove(segment_path(dir_, segment_first_seq_), ec);
  } else if (next_seq_ > segment_first_seq_) {
    // Seal the final partial segment too — footer, compression, retention
    // — so a freshly-stopped journal is immediately index-queryable. (A
    // record-less first segment stays raw and unfootered: there is
    // nothing to summarize, and readers treat it as the empty journal.)
    seal_segment(segment_first_seq_);
  }
}

void JournalWriter::seal_segment(std::uint64_t first_seq) {
  SealedSegment sealed;
  sealed.first_seq = first_seq;
  sealed.has_footer = write_footer(first_seq);
  sealed.bytes = store_sealed(first_seq);
  sealed.max_delivered_us = last_delivered_us_;
  sealed_.push_back(sealed);
  enforce_retention();
}

bool JournalWriter::write_footer(std::uint64_t first_seq) {
  if (!options_.index_segments || index_builder_.record_count() == 0) {
    return false;
  }
  const std::vector<std::uint8_t> encoded =
      index_builder_.finalize(encoder_.sources()).encode();
  // Best-effort, atomic: a footer either lands whole or the segment just
  // full-scans (and the next resume backfills it).
  return write_file_atomic(index_path(dir_, first_seq), encoded);
}

std::uint64_t JournalWriter::store_sealed(std::uint64_t first_seq) {
  namespace fs = std::filesystem;
  const std::string raw_path = segment_path(dir_, first_seq);
  std::error_code ec;
  const std::uint64_t raw_size = fs::file_size(raw_path, ec);
  if (ec) return 0;
#ifdef ARTEMIS_HAVE_ZLIB
  if (options_.compress_segments) {
    std::FILE* file = std::fopen(raw_path.c_str(), "rb");
    if (file == nullptr) return raw_size;
    std::vector<std::uint8_t> raw(static_cast<std::size_t>(raw_size));
    const bool read_ok =
        std::fread(raw.data(), 1, raw.size(), file) == raw.size();
    std::fclose(file);
    if (!read_ok) return raw_size;
    const std::vector<std::uint8_t> gz = mrt::gzip_compress(raw);
    const std::string gz_path = compressed_segment_path(dir_, first_seq);
    // The compressed copy is fsynced before the raw file goes away, so a
    // power loss never holds the records hostage to page cache; a crash
    // between rename and remove leaves both forms, and everything
    // (reader, resume, query) prefers raw.
    if (!write_file_atomic(gz_path, gz)) return raw_size;
    fs::remove(raw_path, ec);
    ++compressions_;
    if (metrics_.compressions != nullptr) metrics_.compressions->add();
    return gz.size();
  }
#endif
  return raw_size;
}

void JournalWriter::load_sealed_registry() {
  namespace fs = std::filesystem;
  std::map<std::uint64_t, std::uint64_t> sizes;  // first_seq -> bytes
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (!is_segment_file_name(name)) continue;
    std::error_code ec;
    const std::uint64_t size = fs::file_size(entry.path(), ec);
    if (!ec) sizes[segment_name_seq(name)] = size;
  }
  sealed_.clear();
  for (const auto& [seq, bytes] : sizes) {
    SealedSegment sealed;
    sealed.first_seq = seq;
    sealed.bytes = bytes;
    if (const auto footer = load_segment_index(index_path(dir_, seq));
        footer.has_value() && footer->first_seq == seq &&
        footer->record_count > 0) {
      sealed.max_delivered_us = footer->max_delivered_us;
      sealed.has_footer = true;
    }
    sealed_.push_back(sealed);
  }
}

void JournalWriter::enforce_retention() {
  const RetentionPolicy& policy = options_.retention;
  if (!policy.enabled()) return;
  std::uint64_t total_bytes = 0;
  for (const SealedSegment& s : sealed_) total_bytes += s.bytes;
  // Only a PREFIX of the sealed list may go: deleting a middle segment
  // would open a sequence gap, which readers correctly refuse. The age
  // rule therefore stops at the first segment it cannot judge (no
  // footer) or that is still young.
  while (!sealed_.empty()) {
    const SealedSegment& oldest = sealed_.front();
    bool reap = false;
    if (policy.max_segments != 0 && sealed_.size() > policy.max_segments) {
      reap = true;
    }
    if (!reap && policy.max_bytes != 0 && total_bytes > policy.max_bytes) {
      reap = true;
    }
    if (!reap && policy.max_age_us != 0 && oldest.has_footer &&
        last_delivered_us_ - oldest.max_delivered_us > policy.max_age_us) {
      reap = true;
    }
    if (!reap) break;
    std::error_code ec;
    std::filesystem::remove(segment_path(dir_, oldest.first_seq), ec);
    std::filesystem::remove(compressed_segment_path(dir_, oldest.first_seq), ec);
    std::filesystem::remove(index_path(dir_, oldest.first_seq), ec);
    total_bytes -= oldest.bytes;
    sealed_.erase(sealed_.begin());
    ++retention_deletes_;
    if (metrics_.retention_deletes != nullptr) metrics_.retention_deletes->add();
  }
}

}  // namespace artemis::journal
