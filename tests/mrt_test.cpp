#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "mrt/bytes.hpp"
#include "mrt/mrt.hpp"
#include "mrt/observation_convert.hpp"
#include "mrt/stream_reader.hpp"

namespace artemis::mrt {
namespace {

// ------------------------------------------------------------------ bytes

TEST(BytesTest, WriterBigEndian) {
  ByteWriter w;
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090A0B0C0D0E0FULL);
  const auto& d = w.data();
  ASSERT_EQ(d.size(), 15u);
  EXPECT_EQ(d[0], 0x01);
  EXPECT_EQ(d[1], 0x02);
  EXPECT_EQ(d[2], 0x03);
  EXPECT_EQ(d[3], 0x04);
  EXPECT_EQ(d[6], 0x07);
  EXPECT_EQ(d[7], 0x08);
  EXPECT_EQ(d[14], 0x0F);
}

TEST(BytesTest, ReaderRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u16(65535);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.done());
}

TEST(BytesTest, ReaderThrowsOnTruncation) {
  ByteWriter w;
  w.u16(1);
  ByteReader r(w.data());
  r.u8();
  EXPECT_THROW(r.u16(), DecodeError);
}

TEST(BytesTest, PatchSlots) {
  ByteWriter w;
  const auto s16 = w.reserve_u16();
  const auto s32 = w.reserve_u32();
  w.u8(0xAA);
  w.patch_u16(s16, 0x1234);
  w.patch_u32(s32, 0x56789ABC);
  ByteReader r(w.data());
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0x56789ABCu);
  EXPECT_EQ(r.u8(), 0xAA);
}

TEST(BytesTest, SubReaderConsumes) {
  ByteWriter w;
  w.u32(0x01020304);
  w.u8(0xFF);
  ByteReader r(w.data());
  ByteReader sub = r.sub(4);
  EXPECT_EQ(sub.u32(), 0x01020304u);
  EXPECT_TRUE(sub.done());
  EXPECT_EQ(r.u8(), 0xFF);
}

// ------------------------------------------------------------- BGP UPDATE

bgp::UpdateMessage sample_update() {
  bgp::UpdateMessage u;
  u.sender = 65010;
  u.attrs.as_path = bgp::AsPath({65010, 65020, 65030});
  u.attrs.origin = bgp::Origin::kEgp;
  u.attrs.local_pref = 250;
  u.attrs.med = 17;
  u.attrs.communities = {{65010, 100}, {65010, 200}};
  u.announced = {net::Prefix::must_parse("10.0.0.0/23"),
                 net::Prefix::must_parse("10.0.2.0/24")};
  u.withdrawn = {net::Prefix::must_parse("192.0.2.0/24")};
  return u;
}

TEST(BgpUpdateCodecTest, RoundTripFull) {
  const auto original = sample_update();
  const auto bytes = encode_bgp_update(original);
  ByteReader r(bytes);
  const auto decoded = decode_bgp_update(r, original.sender);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded.sender, original.sender);
  EXPECT_EQ(decoded.announced, original.announced);
  EXPECT_EQ(decoded.withdrawn, original.withdrawn);
  EXPECT_EQ(decoded.attrs.as_path, original.attrs.as_path);
  EXPECT_EQ(decoded.attrs.origin, original.attrs.origin);
  EXPECT_EQ(decoded.attrs.local_pref, original.attrs.local_pref);
  EXPECT_EQ(decoded.attrs.med, original.attrs.med);
  EXPECT_EQ(decoded.attrs.communities, original.attrs.communities);
}

TEST(BgpUpdateCodecTest, PureWithdrawalHasNoAttributes) {
  bgp::UpdateMessage u;
  u.sender = 1;
  u.withdrawn = {net::Prefix::must_parse("10.0.0.0/8")};
  const auto bytes = encode_bgp_update(u);
  ByteReader r(bytes);
  const auto decoded = decode_bgp_update(r, 1);
  EXPECT_TRUE(decoded.announced.empty());
  ASSERT_EQ(decoded.withdrawn.size(), 1u);
  EXPECT_EQ(decoded.withdrawn[0].to_string(), "10.0.0.0/8");
}

TEST(BgpUpdateCodecTest, ZeroLengthPrefixEncodes) {
  bgp::UpdateMessage u;
  u.sender = 1;
  u.attrs.as_path = bgp::AsPath({1});
  u.announced = {net::Prefix::must_parse("0.0.0.0/0")};
  const auto bytes = encode_bgp_update(u);
  ByteReader r(bytes);
  const auto decoded = decode_bgp_update(r, 1);
  ASSERT_EQ(decoded.announced.size(), 1u);
  EXPECT_EQ(decoded.announced[0].length(), 0);
}

TEST(BgpUpdateCodecTest, OddPrefixLengthsPackTightly) {
  // /23 must consume 3 NLRI bytes, /9 two, /32 four + 1 length byte each.
  for (const auto text : {"10.0.0.0/23", "10.128.0.0/9", "1.2.3.4/32", "128.0.0.0/1"}) {
    bgp::UpdateMessage u;
    u.sender = 1;
    u.attrs.as_path = bgp::AsPath({1});
    u.announced = {net::Prefix::must_parse(text)};
    const auto bytes = encode_bgp_update(u);
    ByteReader r(bytes);
    const auto decoded = decode_bgp_update(r, 1);
    ASSERT_EQ(decoded.announced.size(), 1u) << text;
    EXPECT_EQ(decoded.announced[0].to_string(), text);
  }
}

TEST(BgpUpdateCodecTest, BadMarkerRejected) {
  auto bytes = encode_bgp_update(sample_update());
  bytes[0] = 0x00;
  ByteReader r(bytes);
  EXPECT_THROW(decode_bgp_update(r, 1), DecodeError);
}

TEST(BgpUpdateCodecTest, TruncationRejected) {
  const auto bytes = encode_bgp_update(sample_update());
  for (const std::size_t cut : {std::size_t{18}, std::size_t{20}, bytes.size() - 1}) {
    ByteReader r(std::span(bytes.data(), cut));
    EXPECT_THROW(decode_bgp_update(r, 1), DecodeError) << "cut=" << cut;
  }
}

// --------------------------------------------------------------- BGP4MP

TEST(UpdateRecordTest, RoundTripWithMicrosecondTimestamp) {
  UpdateRecord rec;
  rec.peer_asn = 64501;
  rec.local_asn = 12654;
  rec.peer_ip = net::IpAddress::parse("203.0.113.7").value();
  rec.timestamp = SimTime::at_micros(1234567890123456LL);
  rec.update = sample_update();
  rec.update.sender = rec.peer_asn;

  const auto bytes = encode_update_record(rec);
  ByteReader r(bytes);
  const auto raw = read_raw_record(r);
  ASSERT_TRUE(raw);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(raw->type, static_cast<std::uint16_t>(RecordType::kBgp4mpEt));
  const auto decoded = decode_update_record(*raw);
  EXPECT_EQ(decoded.peer_asn, rec.peer_asn);
  EXPECT_EQ(decoded.local_asn, rec.local_asn);
  EXPECT_EQ(decoded.peer_ip, rec.peer_ip);
  EXPECT_EQ(decoded.timestamp, rec.timestamp);  // microsecond precision
  EXPECT_EQ(decoded.update.announced, rec.update.announced);
}

TEST(UpdateRecordTest, WrongSubtypeRejected) {
  UpdateRecord rec;
  rec.peer_asn = 1;
  rec.update = sample_update();
  const auto bytes = encode_update_record(rec);
  ByteReader r(bytes);
  auto raw = read_raw_record(r);
  ASSERT_TRUE(raw);
  raw->subtype = 99;
  EXPECT_THROW(decode_update_record(*raw), DecodeError);
  raw->subtype = static_cast<std::uint16_t>(Bgp4mpSubtype::kMessageAs4);
  raw->type = static_cast<std::uint16_t>(RecordType::kTableDumpV2);
  EXPECT_THROW(decode_update_record(*raw), DecodeError);
}

TEST(RawRecordTest, EmptyStreamYieldsNullopt) {
  ByteReader r(std::span<const std::uint8_t>{});
  EXPECT_FALSE(read_raw_record(r));
}

TEST(RawRecordTest, TruncatedHeaderThrows) {
  const std::uint8_t junk[5] = {1, 2, 3, 4, 5};
  ByteReader r(junk);
  EXPECT_THROW(read_raw_record(r), DecodeError);
}

// ------------------------------------------------ decode via the converter

using feeds::Observation;
using feeds::ObservationType;

/// Every observation ObservationConverter decodes from `data`.
std::vector<Observation> convert(std::span<const std::uint8_t> data,
                                 ConvertFileStats* stats_out = nullptr) {
  ObservationConverter converter;
  std::vector<Observation> out;
  const auto stats =
      converter.convert_file(data, [&out](std::span<const Observation> batch) {
        out.insert(out.end(), batch.begin(), batch.end());
      });
  if (stats_out != nullptr) *stats_out = stats;
  return out;
}

TEST(MrtDecodeTest, UpdatesFanOutToElems) {
  ByteWriter stream;
  UpdateRecord rec;
  rec.peer_asn = 64501;
  rec.timestamp = SimTime::at_seconds(100);
  rec.update = sample_update();
  stream.bytes(encode_update_record(rec));

  const auto elems = convert(stream.data());
  ASSERT_EQ(elems.size(), 3u);  // 2 announces + 1 withdraw
  EXPECT_EQ(elems[0].type, ObservationType::kAnnouncement);
  EXPECT_EQ(elems[1].type, ObservationType::kAnnouncement);
  EXPECT_EQ(elems[2].type, ObservationType::kWithdrawal);
  EXPECT_EQ(elems[0].vantage, 64501u);
  EXPECT_EQ(elems[0].origin_as(), 65030u);
  EXPECT_EQ(elems[0].event_time, SimTime::at_seconds(100));
  EXPECT_EQ(elems[2].prefix.to_string(), "192.0.2.0/24");
}

TEST(MrtDecodeTest, TableDumpFansOutRibEntries) {
  std::vector<RibEntryRecord> entries;
  for (int i = 0; i < 3; ++i) {
    RibEntryRecord entry;
    entry.peer_asn = 100 + static_cast<bgp::Asn>(i % 2);  // two distinct peers
    entry.timestamp = SimTime::at_seconds(50);
    entry.route.prefix = net::Prefix::must_parse("10.0." + std::to_string(i) + ".0/24");
    entry.route.attrs.as_path = bgp::AsPath({100, 200});
    entries.push_back(entry);
  }
  const auto bytes = encode_table_dump(entries, SimTime::at_seconds(7200));
  const auto elems = convert(bytes);
  ASSERT_EQ(elems.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(elems[i].type, ObservationType::kRouteState);
    EXPECT_EQ(elems[i].vantage, 100 + static_cast<bgp::Asn>(i % 2));
    EXPECT_EQ(elems[i].attrs.as_path.to_string(), "100 200");
    // The dump time, not the entry's `originated` (route install) time.
    EXPECT_EQ(elems[i].event_time, SimTime::at_seconds(7200));
  }
}

TEST(MrtDecodeTest, MixedStream) {
  ByteWriter stream;
  RibEntryRecord entry;
  entry.peer_asn = 7;
  entry.route.prefix = net::Prefix::must_parse("10.0.0.0/16");
  entry.route.attrs.as_path = bgp::AsPath({7, 8});
  stream.bytes(encode_table_dump({entry}, SimTime::zero()));
  UpdateRecord rec;
  rec.peer_asn = 9;
  rec.update = sample_update();
  stream.bytes(encode_update_record(rec));

  const auto elems = convert(stream.data());
  ASSERT_EQ(elems.size(), 4u);
  EXPECT_EQ(elems[0].type, ObservationType::kRouteState);
  EXPECT_EQ(elems[1].type, ObservationType::kAnnouncement);
}

TEST(MrtDecodeTest, UnknownRecordTypesSkipped) {
  ByteWriter stream;
  const std::uint8_t body[4] = {1, 2, 3, 4};
  write_raw_record(stream, static_cast<RecordType>(99), 0, SimTime::zero(), body);
  UpdateRecord rec;
  rec.peer_asn = 9;
  rec.update = sample_update();
  stream.bytes(encode_update_record(rec));
  ConvertFileStats stats;
  const auto elems = convert(stream.data(), &stats);
  EXPECT_TRUE(stats.clean());
  EXPECT_EQ(elems.size(), 3u);  // junk record ignored, update decoded
}

TEST(MrtDecodeTest, RibEntryWithUnknownPeerIsAnError) {
  // A RIB record without a preceding PEER_INDEX_TABLE must fail loudly.
  std::vector<RibEntryRecord> entries;
  RibEntryRecord entry;
  entry.peer_asn = 7;
  entry.route.prefix = net::Prefix::must_parse("10.0.0.0/16");
  entry.route.attrs.as_path = bgp::AsPath({7});
  entries.push_back(entry);
  auto bytes = encode_table_dump(entries, SimTime::zero());
  // Strip the first record (the peer index). Parse its header to find the
  // boundary: 12-byte header + body length at offset 8.
  ByteReader r(bytes);
  r.u32();
  r.u16();
  r.u16();
  const std::uint32_t len = r.u32();
  const std::size_t cut = 12 + len;
  std::vector<std::uint8_t> without_index(bytes.begin() + static_cast<long>(cut),
                                          bytes.end());
  ConvertFileStats stats;
  const auto elems = convert(without_index, &stats);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(stats.error, "RIB entry references unknown peer");
  EXPECT_EQ(stats.records, 0u);
  EXPECT_TRUE(elems.empty());
}

TEST(MrtDecodeTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/artemis_mrt_test.mrt";
  ByteWriter stream;
  UpdateRecord rec;
  rec.peer_asn = 3;
  rec.update = sample_update();
  stream.bytes(encode_update_record(rec));
  {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(stream.data().data()),
              static_cast<std::streamsize>(stream.data().size()));
  }
  const auto elems = convert(read_file_bytes(path));
  EXPECT_EQ(elems.size(), 3u);
  std::remove(path.c_str());
  EXPECT_THROW(read_file_bytes(path), std::runtime_error);
}

// ------------------------------------------- pre-AS4 records & AS4_PATH

TEST(UpdateRecordTest, As2RoundTripMergesAs4Path) {
  UpdateRecord rec;
  rec.peer_asn = 64501;
  rec.local_asn = 0;
  rec.peer_ip = net::IpAddress::v4(0x0A000001);
  rec.timestamp = SimTime::at_seconds(100);
  rec.update.announced.push_back(net::Prefix::must_parse("10.0.0.0/24"));
  // A wide ASN forces AS_TRANS + AS4_PATH on the 2-byte wire.
  rec.update.attrs.as_path = bgp::AsPath({64501, 200000, 65030});

  const auto bytes = encode_update_record_as2(rec);
  ByteReader r(bytes);
  const auto raw = read_raw_record(r);
  ASSERT_TRUE(raw);
  EXPECT_EQ(raw->subtype, static_cast<std::uint16_t>(Bgp4mpSubtype::kMessage));
  const auto decoded = decode_update_record(*raw);
  EXPECT_EQ(decoded.peer_asn, 64501u);
  EXPECT_EQ(decoded.update.attrs.as_path.to_string(), "64501 200000 65030");
}

TEST(UpdateRecordTest, As2WithoutWideAsnsHasNoAs4Path) {
  UpdateRecord rec;
  rec.peer_asn = 64501;
  rec.timestamp = SimTime::at_seconds(100);
  rec.update.announced.push_back(net::Prefix::must_parse("10.0.0.0/24"));
  rec.update.attrs.as_path = bgp::AsPath({64501, 65030});
  const auto with_narrow = encode_update_record_as2(rec);
  rec.update.attrs.as_path = bgp::AsPath({64501, 200000});
  const auto with_wide = encode_update_record_as2(rec);
  // The AS4_PATH attribute only appears when a hop was squashed.
  EXPECT_LT(with_narrow.size(), with_wide.size());
  ByteReader r(with_narrow);
  const auto decoded = decode_update_record(*read_raw_record(r));
  EXPECT_EQ(decoded.update.attrs.as_path.to_string(), "64501 65030");
}

/// Builds a raw attribute block with independent AS_PATH (2-byte) and
/// AS4_PATH hop lists — the shapes encode_update_record_as2 can't emit.
std::vector<std::uint8_t> as2_attr_block(const std::vector<bgp::Asn>& as_path,
                                         const std::vector<bgp::Asn>& as4_path) {
  ByteWriter w;
  w.u8(0x40);  // transitive
  w.u8(2);     // AS_PATH
  w.u8(static_cast<std::uint8_t>(2 + 2 * as_path.size()));
  w.u8(2);  // AS_SEQUENCE
  w.u8(static_cast<std::uint8_t>(as_path.size()));
  for (const auto asn : as_path) w.u16(static_cast<std::uint16_t>(asn));
  if (!as4_path.empty()) {
    w.u8(0xC0);  // optional transitive
    w.u8(17);    // AS4_PATH
    w.u8(static_cast<std::uint8_t>(2 + 4 * as4_path.size()));
    w.u8(2);  // AS_SEQUENCE
    w.u8(static_cast<std::uint8_t>(as4_path.size()));
    for (const auto asn : as4_path) w.u32(asn);
  }
  return w.take();
}

TEST(PathAttributesTest, As4MergeKeepsExcessLeadingAsPathHops) {
  // RFC 6793 §4.2.3: an old speaker prepended itself AFTER the AS4_PATH
  // was attached, so AS_PATH is longer; the leading hop survives and the
  // tail comes from AS4_PATH.
  const auto block = as2_attr_block({64496, kAsTrans, 65030}, {200000, 65030});
  ByteReader r(block);
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops;
  std::vector<bgp::Asn> as4;
  decode_path_attributes_into(r, attrs, /*two_byte_as_path=*/true, hops, as4);
  EXPECT_EQ(attrs.as_path.to_string(), "64496 200000 65030");
}

TEST(PathAttributesTest, As4PathIgnoredForFourByteSpeakers) {
  // A MESSAGE_AS4 record can still carry a propagated (stale) AS4_PATH;
  // RFC 6793 §4.2.3: a 4-byte AS_PATH is authoritative and the AS4_PATH
  // must not overwrite it.
  ByteWriter w;
  w.u8(0x40);  // transitive AS_PATH, 4-byte hops
  w.u8(2);
  w.u8(2 + 4 * 2);
  w.u8(2);  // AS_SEQUENCE
  w.u8(2);
  w.u32(64496);
  w.u32(65030);
  w.u8(0xC0);  // stale AS4_PATH with different hops
  w.u8(17);
  w.u8(2 + 4 * 2);
  w.u8(2);
  w.u8(2);
  w.u32(1);
  w.u32(2);
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops;
  std::vector<bgp::Asn> as4;
  decode_path_attributes_into(r, attrs, /*two_byte_as_path=*/false, hops, as4);
  EXPECT_EQ(attrs.as_path.to_string(), "64496 65030");
}

TEST(PathAttributesTest, OverlongAs4PathIsIgnored) {
  // An AS4_PATH longer than the AS_PATH is bogus; RFC 6793 says fall
  // back to the plain AS_PATH.
  const auto block = as2_attr_block({64496, 65030}, {1, 2, 3});
  ByteReader r(block);
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops;
  std::vector<bgp::Asn> as4;
  decode_path_attributes_into(r, attrs, /*two_byte_as_path=*/true, hops, as4);
  EXPECT_EQ(attrs.as_path.to_string(), "64496 65030");
}

TEST(MrtDecodeTest, As2UpdatesFanOutWithMergedPaths) {
  ByteWriter stream;
  UpdateRecord rec;
  rec.peer_asn = 64501;
  rec.timestamp = SimTime::at_seconds(100);
  rec.update.announced.push_back(net::Prefix::must_parse("10.0.0.0/24"));
  rec.update.attrs.as_path = bgp::AsPath({64501, 200000});
  stream.bytes(encode_update_record_as2(rec));
  const auto elems = convert(stream.data());
  ASSERT_EQ(elems.size(), 1u);
  EXPECT_EQ(elems[0].vantage, 64501u);
  EXPECT_EQ(elems[0].origin_as(), 200000u);
}

// ------------------------------------------------------- IPv6 RIB dumps

TEST(MrtDecodeTest, Ipv6RibEntriesRoundTrip) {
  std::vector<RibEntryRecord> entries;
  RibEntryRecord v6;
  v6.peer_asn = 100;
  v6.timestamp = SimTime::at_seconds(50);
  v6.route.prefix = net::Prefix::must_parse("2001:db8::/32");
  v6.route.attrs.as_path = bgp::AsPath({100, 200});
  entries.push_back(v6);
  RibEntryRecord v4;
  v4.peer_asn = 100;
  v4.timestamp = SimTime::at_seconds(50);
  v4.route.prefix = net::Prefix::must_parse("10.0.0.0/16");
  v4.route.attrs.as_path = bgp::AsPath({100, 300});
  entries.push_back(v4);

  const auto bytes = encode_table_dump(entries, SimTime::at_seconds(7200));
  const auto elems = convert(bytes);
  ASSERT_EQ(elems.size(), 2u);
  EXPECT_EQ(elems[0].prefix, net::Prefix::must_parse("2001:db8::/32"));
  EXPECT_EQ(elems[0].origin_as(), 200u);
  EXPECT_EQ(elems[1].prefix, net::Prefix::must_parse("10.0.0.0/16"));
  EXPECT_EQ(elems[1].origin_as(), 300u);
}

// ------------------------------------------------- MP_REACH / MP_UNREACH

bgp::UpdateMessage dual_stack_update() {
  bgp::UpdateMessage u;
  u.sender = 65010;
  u.attrs.as_path = bgp::AsPath({65010, 3356, 65001});
  u.announced = {net::Prefix::must_parse("10.0.0.0/23"),
                 net::Prefix::must_parse("2001:db8::/32"),
                 net::Prefix::must_parse("2001:db8:ffff::/48")};
  u.withdrawn = {net::Prefix::must_parse("192.0.2.0/24"),
                 net::Prefix::must_parse("2001:db8:dead::/48")};
  return u;
}

TEST(MpNlriCodecTest, DualStackRoundTripV4First) {
  const auto original = dual_stack_update();
  const auto bytes = encode_bgp_update(original);
  ByteReader r(bytes);
  const auto decoded = decode_bgp_update(r, original.sender);
  EXPECT_TRUE(r.done());
  // Decode order: classic v4 fields first, MP NLRI appended after. The
  // fixture already lists v4 first, so the round trip is exact.
  EXPECT_EQ(decoded.announced, original.announced);
  EXPECT_EQ(decoded.withdrawn, original.withdrawn);
  EXPECT_EQ(decoded.attrs.as_path, original.attrs.as_path);
}

TEST(MpNlriCodecTest, NextHop32RoundTrips) {
  // 32-byte next hop: global + link-local, the shape most RIS peers emit.
  UpdateEncodeOptions options;
  options.mp_next_hop_len = 32;
  const auto original = dual_stack_update();
  const auto bytes16 = encode_bgp_update(original);
  const auto bytes32 = encode_bgp_update(original, options);
  EXPECT_EQ(bytes32.size(), bytes16.size() + 16);  // exactly the extra next hop
  ByteReader r(bytes32);
  const auto decoded = decode_bgp_update(r, original.sender);
  EXPECT_EQ(decoded.announced, original.announced);
  EXPECT_EQ(decoded.withdrawn, original.withdrawn);
}

TEST(MpNlriCodecTest, V6WithdrawOnlyUpdateCarriesLoneMpUnreach) {
  bgp::UpdateMessage u;
  u.sender = 1;
  u.withdrawn = {net::Prefix::must_parse("2001:db8::/32"),
                 net::Prefix::must_parse("2001:db8:1::/48")};
  const auto bytes = encode_bgp_update(u);
  ByteReader r(bytes);
  const auto decoded = decode_bgp_update(r, 1);
  EXPECT_TRUE(decoded.announced.empty());
  EXPECT_EQ(decoded.withdrawn, u.withdrawn);
  // The attribute section holds exactly one attribute: MP_UNREACH_NLRI
  // (flags, type 15). Classic withdrawn-routes length must be zero.
  ByteReader probe(bytes);
  probe.bytes(16);       // marker
  probe.u16();           // length
  probe.u8();            // type
  EXPECT_EQ(probe.u16(), 0u);  // no classic withdrawn routes
  const std::uint16_t attrs_len = probe.u16();
  ByteReader attrs = probe.sub(attrs_len);
  attrs.u8();  // flags
  EXPECT_EQ(attrs.u8(), 15u);  // MP_UNREACH_NLRI
}

TEST(MpNlriCodecTest, As2RecordWithV6NlriMergesAs4Path) {
  UpdateRecord rec;
  rec.peer_asn = 70000;  // wide: AS_TRANS on the 2-byte wire
  rec.local_asn = 64512;
  rec.peer_ip = net::IpAddress::v4(0x0A000001);
  rec.timestamp = SimTime::at_seconds(100);
  rec.update.sender = rec.peer_asn;
  rec.update.attrs.as_path = bgp::AsPath({70000, 3356, 65001});
  rec.update.announced = {net::Prefix::must_parse("2001:db8::/32")};
  const auto bytes = encode_update_record_as2(rec);
  ByteReader r(bytes);
  const auto raw = read_raw_record(r);
  ASSERT_TRUE(raw.has_value());
  const auto decoded = decode_update_record(*raw);
  EXPECT_EQ(decoded.peer_asn, kAsTrans);  // header ASN is 2-byte on the wire
  ASSERT_EQ(decoded.update.announced.size(), 1u);
  EXPECT_EQ(decoded.update.announced[0], net::Prefix::must_parse("2001:db8::/32"));
  EXPECT_EQ(decoded.update.attrs.as_path, rec.update.attrs.as_path);  // AS4 merge
}

TEST(MpNlriCodecTest, V6PeerAddressRoundTrips) {
  UpdateRecord rec;
  rec.peer_asn = 9;
  rec.local_asn = 64512;
  rec.peer_ip = *net::IpAddress::parse("2001:db8::9");
  rec.timestamp = SimTime::at_seconds(100);
  rec.update.sender = 9;
  rec.update.attrs.as_path = bgp::AsPath({9, 65001});
  rec.update.announced = {net::Prefix::must_parse("2001:db8:aaaa::/48")};
  const auto bytes = encode_update_record(rec);
  ByteReader r(bytes);
  const auto raw = read_raw_record(r);
  ASSERT_TRUE(raw.has_value());
  const auto decoded = decode_update_record(*raw);
  EXPECT_EQ(decoded.peer_ip, rec.peer_ip);
  ASSERT_EQ(decoded.update.announced.size(), 1u);
  EXPECT_EQ(decoded.update.announced[0], rec.update.announced[0]);
}

TEST(MpNlriCodecTest, V4NlriOverV6NextHopDecodes) {
  // RFC 8950: IPv4 unicast NLRI carried in MP_REACH with a 16-byte IPv6
  // next hop (v6-transport sessions). The next hop is unmodeled; the
  // NLRI must decode as ordinary v4 — not kill the record.
  ByteWriter w;
  w.u8(0x80);  // optional
  w.u8(14);    // MP_REACH_NLRI
  w.u8(4 + 16 + 1 + 4);  // afi+safi+nhlen byte, 16B next hop, reserved, /24 NLRI
  w.u16(1);    // AFI: IPv4
  w.u8(1);     // SAFI: unicast
  w.u8(16);    // next-hop length: IPv6
  for (int i = 0; i < 16; ++i) w.u8(0x20);
  w.u8(0);     // reserved
  w.u8(24);    // NLRI: 198.51.100.0/24
  w.u8(198);
  w.u8(51);
  w.u8(100);
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  MpNlriScratch mp;
  decode_path_attributes_into(r, attrs, false, hops, as4, &mp);
  ASSERT_EQ(mp.announced.size(), 1u);
  EXPECT_EQ(mp.announced[0], net::Prefix::must_parse("198.51.100.0/24"));
}

TEST(MpNlriCodecTest, UnknownMpAfiThrowsUnsupportedRecord) {
  // Hand-built attribute section: a lone MP_REACH_NLRI with AFI 25
  // (L2VPN) — recognized shape, unmodeled family.
  ByteWriter w;
  w.u8(0x80);  // optional
  w.u8(14);    // MP_REACH_NLRI
  w.u8(5);     // length
  w.u16(25);   // AFI: L2VPN
  w.u8(1);     // SAFI
  w.u8(0);     // next-hop length
  w.u8(0);     // reserved
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  MpNlriScratch mp;
  EXPECT_THROW(
      decode_path_attributes_into(r, attrs, false, hops, as4, &mp),
      UnsupportedRecord);
}

TEST(MpNlriCodecTest, MpAttributesSkippedWithoutScratch) {
  // RIB-entry context (mp == nullptr): MP attributes are skipped whole —
  // including the abbreviated RFC 6396 form that has no AFI/SAFI at all.
  ByteWriter w;
  w.u8(0x80);
  w.u8(14);
  w.u8(17);  // length: 1 next-hop-len byte + 16 next-hop bytes
  w.u8(16);
  for (int i = 0; i < 16; ++i) w.u8(0xAB);
  ByteReader r(w.data());
  const auto attrs = decode_path_attributes(r);
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(attrs.as_path.empty());
}

// ------------------------------------------------- SAFI 128 labeled VPN

TEST(LabeledVpnCodecTest, RoundTripsThroughLabeledEncoding) {
  // The labeled-VPN wire shape (SAFI 128, label stack + RD on every
  // NLRI, RD-prefixed next hops) must decode back to the bare prefixes —
  // at both next-hop widths.
  for (const int nh : {16, 32}) {
    UpdateEncodeOptions options;
    options.mp_labeled_vpn = true;
    options.mp_next_hop_len = nh;
    const auto original = dual_stack_update();
    const auto bytes = encode_bgp_update(original, options);
    ByteReader r(bytes);
    const auto decoded = decode_bgp_update(r, original.sender);
    EXPECT_TRUE(r.done()) << "nh=" << nh;
    EXPECT_EQ(decoded.announced, original.announced) << "nh=" << nh;
    EXPECT_EQ(decoded.withdrawn, original.withdrawn) << "nh=" << nh;
    EXPECT_EQ(decoded.attrs.as_path, original.attrs.as_path) << "nh=" << nh;
  }
}

TEST(LabeledVpnCodecTest, V4HandCraftedStackSkipsToThePrefix) {
  // VPN-IPv4 (AFI 1 / SAFI 128) with a TWO-entry label stack: only the
  // second entry has the bottom-of-stack bit, so the decoder must walk
  // the stack, then skip the RD, and surface the bare /24.
  ByteWriter w;
  w.u8(0x80);  // optional
  w.u8(14);    // MP_REACH_NLRI
  w.u8(3 + 1 + 12 + 1 + 1 + 6 + 8 + 3);  // prelude..NLRI
  w.u16(1);    // AFI: IPv4
  w.u8(128);   // SAFI: labeled VPN
  w.u8(12);    // next-hop length: RD + v4
  for (int i = 0; i < 12; ++i) w.u8(0x0A);
  w.u8(0);           // reserved
  w.u8(48 + 64 + 24);  // NLRI bits: two labels + RD + /24
  w.u8(0x00); w.u8(0x10); w.u8(0x00);  // label 256, BoS clear
  w.u8(0x00); w.u8(0x10); w.u8(0x11);  // label 257, BoS set
  for (int i = 0; i < 8; ++i) w.u8(0xBB);  // RD 48059:…, not modeled
  w.u8(198); w.u8(51); w.u8(100);          // 198.51.100.0/24
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  MpNlriScratch mp;
  decode_path_attributes_into(r, attrs, false, hops, as4, &mp);
  ASSERT_EQ(mp.announced.size(), 1u);
  EXPECT_EQ(mp.announced[0], net::Prefix::must_parse("198.51.100.0/24"));
}

TEST(LabeledVpnCodecTest, WithdrawCompatLabelTerminatesTheStack) {
  // RFC 8277 §2.4: a withdraw's label field is 0x800000 — bottom-of-
  // stack CLEAR, so only the compat-value check can terminate the walk.
  ByteWriter w;
  w.u8(0x80);  // optional
  w.u8(15);    // MP_UNREACH_NLRI
  w.u8(3 + 1 + 3 + 8 + 3);
  w.u16(1);    // AFI: IPv4
  w.u8(128);   // SAFI: labeled VPN
  w.u8(24 + 64 + 24);
  w.u8(0x80); w.u8(0x00); w.u8(0x00);  // the compat label
  for (int i = 0; i < 8; ++i) w.u8(0);
  w.u8(203); w.u8(0); w.u8(113);  // 203.0.113.0/24
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  MpNlriScratch mp;
  decode_path_attributes_into(r, attrs, false, hops, as4, &mp);
  ASSERT_EQ(mp.withdrawn.size(), 1u);
  EXPECT_EQ(mp.withdrawn[0], net::Prefix::must_parse("203.0.113.0/24"));
}

TEST(LabeledVpnCodecTest, MalformedLabeledNlriRejected) {
  // An NLRI length that cannot hold a label-stack entry (16 bits), and
  // one that holds a label but not the RD (24+32 bits), must both fail
  // cleanly — DecodeError, not a garbage prefix.
  for (const std::uint8_t bits : {std::uint8_t{16}, std::uint8_t{56}}) {
    ByteWriter w;
    w.u8(0x80);
    w.u8(15);  // MP_UNREACH_NLRI
    w.u8(static_cast<std::uint8_t>(3 + 1 + (bits + 7) / 8));
    w.u16(1);
    w.u8(128);
    w.u8(bits);
    for (int i = 0; i < (bits + 7) / 8; ++i) w.u8(0x05);
    ByteReader r(w.data());
    bgp::PathAttributes attrs;
    std::vector<bgp::Asn> hops, as4;
    MpNlriScratch mp;
    EXPECT_THROW(decode_path_attributes_into(r, attrs, false, hops, as4, &mp),
                 DecodeError)
        << "bits=" << int(bits);
  }
}

TEST(LabeledVpnCodecTest, BadLabeledNextHopLengthRejected) {
  // SAFI 128 next hops are RD-prefixed: a bare 4-byte v4 next hop under
  // the labeled SAFI is malformed.
  ByteWriter w;
  w.u8(0x80);
  w.u8(14);  // MP_REACH_NLRI
  w.u8(3 + 1 + 4 + 1);
  w.u16(1);
  w.u8(128);
  w.u8(4);  // unicast-width next hop under SAFI 128
  for (int i = 0; i < 4; ++i) w.u8(0x0A);
  w.u8(0);
  ByteReader r(w.data());
  bgp::PathAttributes attrs;
  std::vector<bgp::Asn> hops, as4;
  MpNlriScratch mp;
  EXPECT_THROW(decode_path_attributes_into(r, attrs, false, hops, as4, &mp),
               DecodeError);
}

TEST(LabeledVpnCodecTest, EveryByteTruncationRejected) {
  // The full truncation matrix over a labeled dual-stack update: every
  // proper prefix of the message must throw, never mis-decode. (The BGP
  // header's total-length field makes every cut detectable.)
  UpdateEncodeOptions options;
  options.mp_labeled_vpn = true;
  const auto bytes = encode_bgp_update(dual_stack_update(), options);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader r(std::span(bytes.data(), cut));
    EXPECT_THROW(decode_bgp_update(r, 1), DecodeError) << "cut=" << cut;
  }
}

TEST(MpNlriCodecTest, AsSetSegmentThrowsUnsupportedRecord) {
  ByteWriter w;
  w.u8(0x40);  // transitive
  w.u8(2);     // AS_PATH
  w.u8(6);     // length
  w.u8(1);     // AS_SET
  w.u8(1);     // one hop
  w.u32(65001);
  ByteReader r(w.data());
  EXPECT_THROW(decode_path_attributes(r), UnsupportedRecord);
}

TEST(MrtDecodeTest, DualStackUpdateFansOutMpElems) {
  UpdateRecord rec;
  rec.peer_asn = 9;
  rec.local_asn = 64512;
  rec.peer_ip = net::IpAddress::v4(0x0A000009);
  rec.timestamp = SimTime::at_seconds(50);
  rec.update.sender = 9;
  rec.update.attrs.as_path = bgp::AsPath({9, 65001});
  rec.update.announced = {net::Prefix::must_parse("10.0.0.0/24"),
                          net::Prefix::must_parse("2001:db8::/32")};
  rec.update.withdrawn = {net::Prefix::must_parse("2001:db8:dead::/48")};
  const auto bytes = encode_update_record(rec);
  const auto elems = convert(bytes);
  ASSERT_EQ(elems.size(), 3u);
  EXPECT_EQ(elems[0].type, ObservationType::kAnnouncement);
  EXPECT_EQ(elems[0].prefix, net::Prefix::must_parse("10.0.0.0/24"));
  EXPECT_EQ(elems[1].type, ObservationType::kAnnouncement);
  EXPECT_EQ(elems[1].prefix, net::Prefix::must_parse("2001:db8::/32"));
  EXPECT_EQ(elems[2].type, ObservationType::kWithdrawal);
  EXPECT_EQ(elems[2].prefix, net::Prefix::must_parse("2001:db8:dead::/48"));
}

}  // namespace
}  // namespace artemis::mrt
