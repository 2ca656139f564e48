// The observation journal (src/journal/): codec round-trip properties,
// segment framing, corruption handling and crash recovery.
//
// The load-bearing suites are the ISSUE's satellite asks:
//   * CodecRoundTrip — randomized observation batches encode→decode
//     bit-identically (rapidcheck-style seeded property).
//   * Corruption — a flipped payload byte is a CRC rejection, a
//     truncated tail is a clean recovery (never a crash), a segment
//     with a foreign format version is refused by name, a missing
//     middle segment is a sequence-gap error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "journal/codec.hpp"
#include "journal/format.hpp"
#include "journal/reader.hpp"
#include "journal/writer.hpp"
#include "util/rng.hpp"

namespace artemis::journal {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test directory under the gtest temp root.
std::string make_temp_dir(const char* tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("artemis_journal_") + tag + "_" +
                     info->test_suite_name() + "_" + info->name();
  std::replace(name.begin(), name.end(), '/', '_');  // parameterized tests
  const std::string dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

feeds::Observation random_observation(Rng& rng, double& clock_s) {
  static const std::vector<std::string> sources = {
      "ris-live", "bgpmon", "periscope", "batch-updates", "batch-rib"};
  feeds::Observation obs;
  obs.type = static_cast<feeds::ObservationType>(rng.uniform_int(0, 2));
  obs.source = feeds::intern_source(sources[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))]);
  obs.vantage = static_cast<bgp::Asn>(rng.uniform_int(1, 1 << 20));
  if (rng.uniform_int(0, 4) == 0) {  // ~20% IPv6
    obs.prefix = net::Prefix(
        net::IpAddress::v6(rng.next_u64(), rng.next_u64()),
        static_cast<int>(rng.uniform_int(0, 128)));
  } else {
    obs.prefix = net::Prefix(
        net::IpAddress::v4(static_cast<std::uint32_t>(rng.next_u64())),
        static_cast<int>(rng.uniform_int(0, 32)));
  }
  std::vector<bgp::Asn> hops;
  const auto hop_count = rng.uniform_int(0, 6);
  for (std::int64_t i = 0; i < hop_count; ++i) {
    hops.push_back(static_cast<bgp::Asn>(rng.uniform_int(1, 1 << 24)));
  }
  obs.attrs.as_path = bgp::AsPath(std::move(hops));
  obs.attrs.origin = static_cast<bgp::Origin>(rng.uniform_int(0, 2));
  obs.attrs.local_pref = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
  obs.attrs.med = static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 16));
  const auto community_count = rng.uniform_int(0, 3);
  for (std::int64_t i = 0; i < community_count; ++i) {
    obs.attrs.communities.push_back(
        bgp::Community{static_cast<std::uint16_t>(rng.uniform_int(0, 65535)),
                       static_cast<std::uint16_t>(rng.uniform_int(0, 65535))});
  }
  // Mostly forward in time, occasionally backwards (stream reordering) —
  // the delta encoding must handle negative steps.
  clock_s += rng.uniform_int(0, 9) == 0 ? -2.5 : 0.5;
  obs.event_time = SimTime::at_seconds(clock_s);
  obs.delivered_at = obs.event_time + SimDuration::seconds(
                         static_cast<double>(rng.uniform_int(0, 120)));
  return obs;
}

std::vector<feeds::Observation> random_stream(std::uint64_t seed, int count) {
  Rng rng(seed);
  double clock_s = 1000.0;
  std::vector<feeds::Observation> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) out.push_back(random_observation(rng, clock_s));
  return out;
}

void expect_same_observation(const feeds::Observation& a,
                             const feeds::Observation& b, std::size_t index) {
  EXPECT_EQ(a.type, b.type) << "record " << index;
  EXPECT_EQ(a.source, b.source) << "record " << index;
  EXPECT_EQ(a.vantage, b.vantage) << "record " << index;
  EXPECT_EQ(a.prefix, b.prefix) << "record " << index;
  EXPECT_EQ(a.attrs, b.attrs) << "record " << index;
  EXPECT_EQ(a.event_time, b.event_time) << "record " << index;
  EXPECT_EQ(a.delivered_at, b.delivered_at) << "record " << index;
}

/// Reads the whole journal in `dir` in chunks of `batch` observations.
std::vector<feeds::Observation> read_all(JournalReader& reader,
                                         std::size_t batch = 256) {
  std::vector<feeds::Observation> out;
  pipeline::ObservationBatch buffer;
  while (reader.read_batch(buffer, batch) > 0) {
    for (const auto& obs : buffer) out.push_back(obs);
  }
  return out;
}

// --------------------------------------------------- codec round-trip

class CodecRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecRoundTrip, EncodeDecodeIsIdentity) {
  const auto stream = random_stream(GetParam(), 500);
  RecordEncoder encoder;
  RecordDecoder decoder;
  std::vector<std::uint8_t> wire;
  for (const auto& obs : stream) encoder.encode(obs, wire);

  // Walk the framed records exactly as the reader does.
  const std::uint8_t* cursor = wire.data();
  const std::uint8_t* const end = wire.data() + wire.size();
  feeds::Observation decoded;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    std::uint64_t length = 0;
    ASSERT_TRUE(get_varint(cursor, end, length)) << "record " << i;
    ASSERT_LE(length + 4, static_cast<std::uint64_t>(end - cursor));
    ASSERT_EQ(crc32(cursor, static_cast<std::size_t>(length)),
              static_cast<std::uint32_t>(cursor[length]) |
                  static_cast<std::uint32_t>(cursor[length + 1]) << 8 |
                  static_cast<std::uint32_t>(cursor[length + 2]) << 16 |
                  static_cast<std::uint32_t>(cursor[length + 3]) << 24)
        << "record " << i;
    decoder.decode(cursor, static_cast<std::size_t>(length), decoded);
    expect_same_observation(decoded, stream[i], i);
    cursor += length + 4;
  }
  EXPECT_EQ(cursor, end);
  // ~20-30 bytes per record, far below the in-memory footprint.
  EXPECT_LT(wire.size(), stream.size() * 64);
}

TEST_P(CodecRoundTrip, ResetMakesSegmentsStandalone) {
  const auto stream = random_stream(GetParam() ^ 0xfeed, 64);
  RecordEncoder encoder;
  std::vector<std::uint8_t> first;
  for (const auto& obs : stream) encoder.encode(obs, first);
  encoder.reset();
  std::vector<std::uint8_t> second;
  for (const auto& obs : stream) encoder.encode(obs, second);
  // After reset the encoder re-interns and re-bases timestamps: the two
  // encodings are byte-identical, so a decoder can start at any segment.
  EXPECT_EQ(first, second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 17u, 2016u));

// --------------------------------------------------- writer/reader I/O

/// Path of the single (or first) segment in `dir` (the framing sidecar
/// and other non-segment files are skipped).
std::string first_segment(const std::string& dir) {
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!is_segment_file_name(entry.path().filename().string())) continue;
    segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  EXPECT_FALSE(segments.empty());
  return segments.front();
}

void write_journal(const std::string& dir, const std::vector<feeds::Observation>& stream,
                   JournalWriterOptions options = {}, std::size_t chunk = 20) {
  // Modest batches: rotation is a batch-boundary event, so small
  // segment_bytes only takes effect when batches are smaller still.
  JournalWriter writer(dir, options);
  for (std::size_t i = 0; i < stream.size(); i += chunk) {
    writer.append_batch({stream.data() + i, std::min(chunk, stream.size() - i)});
  }
  writer.close();
}

TEST(JournalWriterTest, RoundTripsThroughDisk) {
  const std::string dir = make_temp_dir("roundtrip");
  const auto stream = random_stream(42, 2000);
  {
    JournalWriter writer(dir);
    // Mixed batch sizes, including span-of-one.
    std::size_t i = 0;
    while (i < stream.size()) {
      const std::size_t n = std::min<std::size_t>(1 + i % 37, stream.size() - i);
      writer.append_batch({stream.data() + i, n});
      i += n;
    }
    EXPECT_EQ(writer.records_written(), stream.size());
    EXPECT_EQ(writer.next_sequence(), stream.size());
    writer.close();
  }
  JournalReader reader(dir);
  const auto decoded = read_all(reader);
  ASSERT_EQ(decoded.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    expect_same_observation(decoded[i], stream[i], i);
  }
  EXPECT_FALSE(reader.truncated_tail());
  EXPECT_EQ(reader.records_read(), stream.size());
}

TEST(JournalWriterTest, SegmentBytesDoNotDependOnGlobalSourceIds) {
  // Two writers in one process share the process-wide SourceTable but
  // each segment numbers its sources in its own first-sight order. The
  // names are interned in reverse, so global ids run against first-sight
  // order; the writers' appends interleave record by record.
  const std::vector<std::string> names = {"two-writer-a", "two-writer-b",
                                          "two-writer-c"};
  for (auto it = names.rbegin(); it != names.rend(); ++it) feeds::intern_source(*it);
  ASSERT_GT(feeds::intern_source(names[0]), feeds::intern_source(names[2]));

  // Writer 1 first sees a, b, c; writer 2 first sees c, a, b.
  const auto x = random_stream(7, 300);
  auto stream_for = [&](const std::vector<std::size_t>& order) {
    auto stream = x;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      stream[i].source = feeds::intern_source(names[order[i % 3]]);
    }
    return stream;
  };
  const auto one = stream_for({0, 1, 2});
  const auto two = stream_for({2, 0, 1});
  const std::string dir1 = make_temp_dir("two_writers_1");
  const std::string dir2 = make_temp_dir("two_writers_2");
  {
    JournalWriter writer1(dir1);
    JournalWriter writer2(dir2);
    for (std::size_t i = 0; i < x.size(); ++i) {
      writer1.append(one[i]);
      writer2.append(two[i]);
    }
  }

  const auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
  };
  for (const auto& [dir, stream] : {std::pair{dir1, one}, std::pair{dir2, two}}) {
    // Record i carries segment id i % 3 (each stream cycles three
    // sources), and only the first three records define a name inline.
    const auto bytes = read_bytes(first_segment(dir));
    ASSERT_GT(bytes.size(), kSegmentHeaderSize);
    const std::uint8_t* cursor = bytes.data() + kSegmentHeaderSize;
    const std::uint8_t* const end = bytes.data() + bytes.size();
    const std::uint8_t* payload = nullptr;
    std::uint64_t length = 0;
    std::size_t index = 0;
    while (next_frame(cursor, end, payload, length)) {
      const std::uint8_t* field = payload + 1;  // past the type byte
      std::uint64_t segment_id = 0;
      ASSERT_TRUE(get_varint(field, payload + length, segment_id));
      EXPECT_EQ(segment_id, index % 3) << dir << " record " << index;
      if (index < 3) {
        std::uint64_t name_length = 0;
        ASSERT_TRUE(get_varint(field, payload + length, name_length));
        EXPECT_EQ(std::string(reinterpret_cast<const char*>(field), name_length),
                  feeds::source_name(stream[index].source));
      }
      ++index;
    }
    EXPECT_EQ(index, stream.size());

    JournalReader reader(dir);
    const auto decoded = read_all(reader);
    ASSERT_EQ(decoded.size(), stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      expect_same_observation(decoded[i], stream[i], i);
    }
  }

  // Writing stream one alone gives the same bytes as writing it
  // interleaved with writer 2.
  const std::string dir3 = make_temp_dir("two_writers_3");
  write_journal(dir3, one, {}, 1);
  EXPECT_EQ(read_bytes(first_segment(dir3)), read_bytes(first_segment(dir1)));
}

TEST(JournalWriterTest, RotatesSegmentsAndReaderStitchesThem) {
  const std::string dir = make_temp_dir("rotate");
  const auto stream = random_stream(7, 3000);
  JournalWriterOptions options;
  options.segment_bytes = 4096;  // force many rotations
  options.buffer_bytes = 512;
  {
    JournalWriter writer(dir, options);
    for (std::size_t i = 0; i < stream.size(); i += 16) {
      writer.append_batch(
          {stream.data() + i, std::min<std::size_t>(16, stream.size() - i)});
    }
    writer.close();
    EXPECT_GT(writer.segments_opened(), 5u);
  }
  JournalReader reader(dir);
  EXPECT_GT(reader.segment_count(), 5u);
  const auto decoded = read_all(reader, 100);
  ASSERT_EQ(decoded.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    expect_same_observation(decoded[i], stream[i], i);
  }
}

TEST(JournalWriterTest, CloseIsIdempotentAndAppendAfterCloseThrows) {
  const std::string dir = make_temp_dir("close");
  JournalWriter writer(dir);
  writer.append(random_stream(1, 1)[0]);
  writer.close();
  writer.close();
  EXPECT_THROW(writer.append(random_stream(2, 1)[0]), JournalError);
}

TEST(JournalWriterTest, ResumeContinuesAnExistingJournalContiguously) {
  const std::string dir = make_temp_dir("resume");
  const auto stream = random_stream(31, 600);
  const std::size_t split = 250;
  {
    JournalWriter writer(dir);
    writer.append_batch({stream.data(), split});
    writer.close();
  }
  {
    // The restarted monitor records into the same directory: the new
    // writer picks up at the next sequence, in a new segment.
    JournalWriter writer(dir);
    EXPECT_EQ(writer.next_sequence(), split);
    writer.append_batch({stream.data() + split, stream.size() - split});
    writer.close();
  }
  JournalReader reader(dir);
  EXPECT_EQ(reader.segment_count(), 2u);
  const auto decoded = read_all(reader);
  ASSERT_EQ(decoded.size(), stream.size());  // one contiguous history
  for (std::size_t i = 0; i < stream.size(); ++i) {
    expect_same_observation(decoded[i], stream[i], i);
  }
  EXPECT_FALSE(reader.truncated_tail());
}

TEST(JournalWriterTest, ResumeTruncatesTornTailThenContinues) {
  const std::string dir = make_temp_dir("resumetorn");
  const auto stream = random_stream(37, 400);
  const std::size_t split = 300;
  {
    JournalWriter writer(dir);
    writer.append_batch({stream.data(), split});
    writer.close();
  }
  // The crash: a few bytes of a record torn off the tail.
  const std::string path = first_segment(dir);
  const auto size = fs::file_size(path);
  fs::resize_file(path, size - 7);
  JournalReader probe(dir);
  pipeline::ObservationBatch batch;
  std::size_t survivors = 0;
  while (probe.read_batch(batch, 64) > 0) survivors += batch.size();
  ASSERT_LT(survivors, split);
  ASSERT_TRUE(probe.truncated_tail());

  {
    JournalWriter writer(dir);  // resume: truncates the torn record away
    EXPECT_EQ(writer.next_sequence(), survivors);
    writer.append_batch({stream.data() + split, stream.size() - split});
    writer.close();
  }
  JournalReader reader(dir);
  const auto decoded = read_all(reader);
  EXPECT_FALSE(reader.truncated_tail());  // the tail was cleaned
  ASSERT_EQ(decoded.size(), survivors + (stream.size() - split));
  for (std::size_t i = 0; i < survivors; ++i) {
    expect_same_observation(decoded[i], stream[i], i);
  }
  for (std::size_t i = 0; i < stream.size() - split; ++i) {
    expect_same_observation(decoded[survivors + i], stream[split + i],
                            survivors + i);
  }
}

TEST(JournalWriterTest, StrayNonHexSegmentNamesAreIgnored) {
  // A file matching the seg-*.aj shape but with non-hex digits is not a
  // segment: resume must not try to parse it and the reader must not
  // try to decode it.
  const std::string dir = make_temp_dir("stray");
  const auto stream = random_stream(43, 20);
  write_journal(dir, stream);
  std::ofstream stray(dir + "/seg-zzzzzzzzzzzzzzzz.aj", std::ios::binary);
  stray << "not a segment";
  stray.close();

  {
    JournalWriter writer(dir);  // resume ignores the stray file
    EXPECT_EQ(writer.next_sequence(), stream.size());
  }
  JournalReader reader(dir);
  // Just the original: close() reclaims the resume's record-less
  // continuation segment, so a no-op reopen leaves the journal as found.
  EXPECT_EQ(reader.segment_count(), 1u);
  EXPECT_EQ(read_all(reader).size(), stream.size());
}

TEST(JournalWriterTest, ResumeReclaimsHeaderOnlySegment) {
  const std::string dir = make_temp_dir("resumeempty");
  { JournalWriter writer(dir); }  // header-only segment, no records
  {
    JournalWriter writer(dir);
    EXPECT_EQ(writer.next_sequence(), 0u);
    writer.append_batch(random_stream(41, 10));
  }
  JournalReader reader(dir);
  EXPECT_EQ(reader.segment_count(), 1u);
  EXPECT_EQ(read_all(reader).size(), 10u);
}

TEST(JournalReaderTest, EmptyJournalDeliversNothing) {
  const std::string dir = make_temp_dir("empty");
  {
    JournalWriter writer(dir);  // header-only segment
  }
  JournalReader reader(dir);
  pipeline::ObservationBatch batch;
  EXPECT_EQ(reader.read_batch(batch, 10), 0u);
  EXPECT_FALSE(reader.truncated_tail());
}

TEST(JournalReaderTest, MissingDirectoryThrows) {
  EXPECT_THROW(JournalReader("/nonexistent/journal/dir"), JournalError);
  const std::string dir = make_temp_dir("nosegments");
  EXPECT_THROW(JournalReader{dir}, JournalError);  // no segments
}

// -------------------------------------------------------- corruption

TEST(JournalCorruptionTest, FlippedPayloadByteIsCrcRejected) {
  const std::string dir = make_temp_dir("flip");
  write_journal(dir, random_stream(3, 200));
  const std::string path = first_segment(dir);

  // Flip one byte somewhere in the record area (past the header).
  auto size = fs::file_size(path);
  ASSERT_GT(size, kSegmentHeaderSize + 64);
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekg(static_cast<std::streamoff>(kSegmentHeaderSize + size / 2));
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  file.seekp(static_cast<std::streamoff>(kSegmentHeaderSize + size / 2));
  file.write(&byte, 1);
  file.close();

  JournalReader reader(dir);
  pipeline::ObservationBatch batch;
  EXPECT_THROW(
      {
        while (reader.read_batch(batch, 64) > 0) {
        }
      },
      JournalError);
}

TEST(JournalCorruptionTest, TruncatedTailRecoversAllCompleteRecords) {
  const std::string dir = make_temp_dir("trunc");
  const auto stream = random_stream(11, 300);

  // Learn each record's end offset by encoding the stream again with a
  // fresh encoder (the writer's segment encoder starts identically).
  RecordEncoder encoder;
  std::vector<std::uint8_t> wire;
  std::vector<std::size_t> record_end;  // offset within the record area
  for (const auto& obs : stream) {
    encoder.encode(obs, wire);
    record_end.push_back(wire.size());
  }

  write_journal(dir, stream);
  const std::string path = first_segment(dir);
  ASSERT_EQ(fs::file_size(path), kSegmentHeaderSize + wire.size());

  // Chop the tail at several depths, including mid-record and exactly on
  // a record boundary; recovery must deliver precisely the complete
  // prefix each time — and never crash.
  for (const std::size_t cut :
       {wire.size() - 3, record_end[250], record_end[250] - 1,
        record_end[100] + 1, record_end[0], record_end[0] - 1}) {
    fs::resize_file(path, kSegmentHeaderSize + cut);
    const auto expected = static_cast<std::size_t>(
        std::count_if(record_end.begin(), record_end.end(),
                      [cut](std::size_t end) { return end <= cut; }));
    // A cut exactly on a record boundary is indistinguishable from a
    // clean shutdown — only mid-record cuts report a torn tail.
    const bool on_boundary =
        std::find(record_end.begin(), record_end.end(), cut) != record_end.end();
    JournalReader reader(dir);
    const auto decoded = read_all(reader);
    EXPECT_EQ(reader.truncated_tail(), !on_boundary) << "cut=" << cut;
    ASSERT_EQ(decoded.size(), expected) << "cut=" << cut;
    for (std::size_t i = 0; i < decoded.size(); ++i) {
      expect_same_observation(decoded[i], stream[i], i);
    }
  }
}

TEST(JournalCorruptionTest, TruncationMidJournalIsAnError) {
  const std::string dir = make_temp_dir("midtrunc");
  JournalWriterOptions options;
  options.segment_bytes = 2048;  // several segments
  write_journal(dir, random_stream(13, 500), options);
  const std::string path = first_segment(dir);
  JournalReader probe(dir);
  ASSERT_GT(probe.segment_count(), 1u);

  fs::resize_file(path, fs::file_size(path) - 5);
  JournalReader reader(dir);
  pipeline::ObservationBatch batch;
  EXPECT_THROW(
      {
        while (reader.read_batch(batch, 64) > 0) {
        }
      },
      JournalError);
}

TEST(JournalWriterTest, FsyncPolicyParsesBothWays) {
  JournalWriterOptions options;
  EXPECT_TRUE(parse_fsync_policy("never", options));
  EXPECT_EQ(options.fsync_policy, FsyncPolicy::kNever);
  EXPECT_EQ(fsync_policy_to_string(options), "never");
  EXPECT_TRUE(parse_fsync_policy("on_rotate", options));
  EXPECT_EQ(options.fsync_policy, FsyncPolicy::kOnRotate);
  EXPECT_EQ(fsync_policy_to_string(options), "on_rotate");
  EXPECT_TRUE(parse_fsync_policy("interval:250", options));
  EXPECT_EQ(options.fsync_policy, FsyncPolicy::kInterval);
  EXPECT_EQ(options.fsync_interval_ms, 250);
  EXPECT_EQ(fsync_policy_to_string(options), "interval:250");

  EXPECT_FALSE(parse_fsync_policy("", options));
  EXPECT_FALSE(parse_fsync_policy("always", options));
  EXPECT_FALSE(parse_fsync_policy("interval:", options));
  EXPECT_FALSE(parse_fsync_policy("interval:-5", options));
  EXPECT_FALSE(parse_fsync_policy("interval:5s", options));
}

TEST(JournalWriterTest, FsyncPolicyDrivesFsyncCounts) {
  const auto stream = random_stream(77, 200);

  {  // kNever: not a single fsync, not even at close.
    const std::string dir = make_temp_dir("fsync_never");
    JournalWriter writer(dir);
    writer.append_batch(stream);
    writer.close();
    EXPECT_EQ(writer.fsyncs(), 0u);
  }
  {  // kOnRotate: one per rotation plus the close barrier.
    const std::string dir = make_temp_dir("fsync_rotate");
    JournalWriterOptions options;
    options.fsync_policy = FsyncPolicy::kOnRotate;
    options.segment_bytes = 2048;  // force several rotations
    JournalWriter writer(dir, options);
    for (const auto& obs : stream) writer.append(obs);
    writer.close();
    EXPECT_GE(writer.segments_opened(), 2u);
    // One fsync per rotation plus the close barrier — except when a
    // rotation landed exactly on the final record, in which case the
    // empty continuation segment is reclaimed unsynced at close.
    EXPECT_GE(writer.fsyncs(), writer.segments_opened() - 1);
    EXPECT_LE(writer.fsyncs(), writer.segments_opened());
  }
  {  // kInterval with a zero interval: every write(2) carries an fsync.
    const std::string dir = make_temp_dir("fsync_interval");
    JournalWriterOptions options;
    options.fsync_policy = FsyncPolicy::kInterval;
    options.fsync_interval_ms = 0;
    JournalWriter writer(dir, options);
    writer.append_batch(stream);
    writer.flush();
    const auto after_flush = writer.fsyncs();
    EXPECT_GE(after_flush, 1u);
    writer.close();
    EXPECT_GE(writer.fsyncs(), after_flush);
  }
  {  // Explicit sync(): policy-independent durability point.
    const std::string dir = make_temp_dir("fsync_explicit");
    JournalWriter writer(dir);  // kNever
    writer.append_batch(stream);
    writer.sync();
    EXPECT_EQ(writer.fsyncs(), 1u);
    EXPECT_EQ(writer.records_buffered(), 0u);
  }
}

TEST(JournalWriterTest, LagAccountingTracksBufferedRecords) {
  const std::string dir = make_temp_dir("lag");
  const auto stream = random_stream(78, 64);
  JournalWriterOptions options;
  options.buffer_bytes = 1u << 20;  // nothing drains on its own
  JournalWriter writer(dir, options);

  EXPECT_EQ(writer.records_buffered(), 0u);
  EXPECT_EQ(writer.bytes_buffered(), kSegmentHeaderSize);  // unflushed header
  writer.append_batch({stream.data(), 10});
  EXPECT_EQ(writer.records_buffered(), 10u);
  EXPECT_GT(writer.bytes_buffered(), kSegmentHeaderSize);
  writer.append_batch({stream.data() + 10, 5});
  EXPECT_EQ(writer.records_buffered(), 15u);

  writer.flush();
  EXPECT_EQ(writer.records_buffered(), 0u);
  EXPECT_EQ(writer.bytes_buffered(), 0u);

  writer.append_batch({stream.data() + 15, stream.size() - 15});
  EXPECT_EQ(writer.records_buffered(), stream.size() - 15);
  writer.close();
  EXPECT_EQ(writer.records_buffered(), 0u);

  JournalReader reader(dir);
  EXPECT_EQ(read_all(reader).size(), stream.size());
}

TEST(JournalCorruptionTest, SequenceGapIsAnError) {
  const std::string dir = make_temp_dir("gap");
  JournalWriterOptions options;
  options.segment_bytes = 2048;
  write_journal(dir, random_stream(17, 500), options);
  JournalReader probe(dir);
  ASSERT_GT(probe.segment_count(), 2u);

  // Remove a middle segment: the reader must refuse, not skip history.
  std::vector<std::string> segments;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!is_segment_file_name(entry.path().filename().string())) continue;
    segments.push_back(entry.path().string());
  }
  std::sort(segments.begin(), segments.end());
  fs::remove(segments[1]);

  JournalReader reader(dir);
  pipeline::ObservationBatch batch;
  EXPECT_THROW(
      {
        while (reader.read_batch(batch, 64) > 0) {
        }
      },
      JournalError);
}

TEST(JournalCorruptionTest, ForeignFormatVersionIsRefusedByName) {
  const std::string dir = make_temp_dir("version");
  write_journal(dir, random_stream(19, 50));

  // Fixture: a follow-on segment whose header carries a bumped format
  // version (with a correct header CRC, so only the version check can
  // reject it).
  SegmentHeader header;
  header.version = kFormatVersion + 1;
  header.first_seq = 50;
  std::uint8_t raw[kSegmentHeaderSize];
  header.encode(raw);
  std::ofstream out(dir + "/seg-0000000000000032.aj", std::ios::binary);
  out.write(reinterpret_cast<const char*>(raw), kSegmentHeaderSize);
  out.close();

  JournalReader reader(dir);
  pipeline::ObservationBatch batch;
  try {
    while (reader.read_batch(batch, 64) > 0) {
    }
    FAIL() << "mixed-version segment was not refused";
  } catch (const JournalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("format version"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kFormatVersion + 1)), std::string::npos)
        << what;
  }
}

TEST(JournalCorruptionTest, HugeLengthVarintIsHandledWithoutOverflow) {
  // A corrupt length varint near UINT64_MAX must not wrap the `length +
  // crc` bounds arithmetic and march the reader off the segment: every
  // record before it is recovered and the tail reads as torn.
  const std::string dir = make_temp_dir("hugelen");
  const auto stream = random_stream(29, 5);
  write_journal(dir, stream);
  std::ofstream out(first_segment(dir), std::ios::binary | std::ios::app);
  const unsigned char huge[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                0xFF, 0xFF, 0x01, 0xAA, 0xBB, 0xCC, 0xDD};
  out.write(reinterpret_cast<const char*>(huge), sizeof(huge));
  out.close();

  JournalReader reader(dir);
  const auto decoded = read_all(reader);
  EXPECT_TRUE(reader.truncated_tail());
  ASSERT_EQ(decoded.size(), stream.size());
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    expect_same_observation(decoded[i], stream[i], i);
  }
}

TEST(JournalCorruptionTest, BadMagicAndBadHeaderCrcAreRejected) {
  const std::string dir = make_temp_dir("magic");
  write_journal(dir, random_stream(23, 20));
  const std::string path = first_segment(dir);

  // Corrupt the magic.
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    char zero = 0;
    file.write(&zero, 1);
  }
  EXPECT_THROW(
      {
        JournalReader reader(dir);
        pipeline::ObservationBatch batch;
        reader.read_batch(batch, 1);
      },
      JournalError);
}

}  // namespace
}  // namespace artemis::journal
