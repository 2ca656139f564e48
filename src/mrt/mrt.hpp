// MRT (RFC 6396) record encoding/decoding.
//
// Legacy pipelines the paper compares against (RouteViews / RIPE RIS
// archives) ship BGP data as MRT files: BGP4MP_ET message records for
// updates and TABLE_DUMP_V2 records for RIB snapshots. This module
// implements the subset the reproduction needs, byte-compatible with the
// RFC for that subset:
//   * BGP4MP_ET / BGP4MP_MESSAGE_AS4 carrying a BGP UPDATE (IPv4 unicast
//     NLRI; attributes ORIGIN, AS_PATH, NEXT_HOP, MED, LOCAL_PREF,
//     COMMUNITY, and MP_REACH_NLRI / MP_UNREACH_NLRI (RFC 4760) for the
//     IPv6 unicast NLRI real dual-stack collectors emit, plus SAFI 128
//     labeled-VPN NLRI (RFC 8277) whose label stack and route
//     distinguisher are stripped back to the bare prefix)
//   * TABLE_DUMP_V2 / RIB_IPV4_UNICAST + RIB_IPV6_UNICAST with an inline
//     peer index
// The encoders write the files BatchFeed publishes and the test fixtures.
// Every consumer decodes through ObservationConverter
// (mrt/observation_convert.hpp); the record decoders here are the
// encoders' inverses, kept for the codec round-trip tests.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bgp/update.hpp"
#include "mrt/bytes.hpp"
#include "util/time.hpp"

namespace artemis::mrt {

/// MRT header "Type" values (RFC 6396 §4).
enum class RecordType : std::uint16_t {
  kTableDumpV2 = 13,
  kBgp4mp = 16,
  kBgp4mpEt = 17,  ///< extended timestamp (adds microseconds)
};

/// Subtypes used by this implementation.
enum class Bgp4mpSubtype : std::uint16_t {
  kMessage = 1,     ///< 2-byte ASNs on the wire (pre-RFC 6793 speakers)
  kMessageAs4 = 4,  ///< 4-byte ASNs throughout
};
enum class TableDumpV2Subtype : std::uint16_t {
  kPeerIndexTable = 1,
  kRibIpv4Unicast = 2,
  kRibIpv6Unicast = 4,
};

/// AS_TRANS (RFC 6793 §9): the 2-byte stand-in a pre-AS4 speaker writes
/// into AS_PATH for any ASN that does not fit 16 bits; the true path
/// travels in the optional-transitive AS4_PATH attribute.
inline constexpr bgp::Asn kAsTrans = 23456;

/// Thrown for record shapes this implementation recognizes but does not
/// model (an AS_SET path segment, an MP AFI/SAFI other than v4/v6
/// unicast or labeled VPN). Derives from DecodeError so legacy callers keep their
/// fail-the-stream behavior; the streaming importer catches it first and
/// skips just the offending record (ConvertFileStats::skipped_records).
class UnsupportedRecord : public DecodeError {
 public:
  explicit UnsupportedRecord(const std::string& what) : DecodeError(what) {}
};

/// A decoded MRT record header plus raw body.
struct RawRecord {
  SimTime timestamp;  ///< seconds + (for *_ET) microseconds
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::vector<std::uint8_t> body;
};

/// A BGP4MP update record: who exchanged the message and the message.
struct UpdateRecord {
  bgp::Asn peer_asn = bgp::kNoAsn;   ///< the router that sent the update
  bgp::Asn local_asn = bgp::kNoAsn;  ///< the collector side
  net::IpAddress peer_ip;
  SimTime timestamp;
  bgp::UpdateMessage update;
};

/// One RIB entry of a TABLE_DUMP_V2 snapshot.
struct RibEntryRecord {
  bgp::Asn peer_asn = bgp::kNoAsn;
  SimTime timestamp;  ///< originated time of the entry
  bgp::Route route;
};

/// Fixture-encoder knobs for the wire shapes real archives contain.
struct UpdateEncodeOptions {
  /// MP_REACH_NLRI next-hop length for IPv6 NLRI: 16 (global only) or 32
  /// (global + link-local, the shape most RIS peers emit).
  int mp_next_hop_len = 16;
  /// Write the AS_PATH as a single AS_SET segment (the aggregate shape
  /// this implementation recognizes but does not model — decoding it
  /// throws UnsupportedRecord). AS4_PATH emission is suppressed.
  bool as_set_path = false;
  /// Encode the MP attributes as SAFI 128 labeled VPN (RFC 4364 /
  /// RFC 8277): each NLRI gains a one-entry label stack (bottom-of-stack
  /// set; MP_UNREACH uses the 0x800000 withdraw-compat value) and a zero
  /// route distinguisher, and the next hop grows the 8-byte RD prefix
  /// VPN speakers write. Decode strips all of it back to the bare prefix.
  bool mp_labeled_vpn = false;
  /// The 20-bit MPLS label announced NLRI carry with mp_labeled_vpn.
  std::uint32_t mp_vpn_label = 1000;
};

/// Encodes one BGP4MP_ET/MESSAGE_AS4 record (header + body). IPv4
/// prefixes in `update.announced`/`withdrawn` travel in the classic
/// NLRI / WITHDRAWN fields; IPv6 prefixes travel in MP_REACH_NLRI /
/// MP_UNREACH_NLRI path attributes (RFC 4760), exactly as dual-stack
/// collectors record them. A v6-withdraw-only update encodes a lone
/// MP_UNREACH attribute and nothing else, the real withdraw shape.
std::vector<std::uint8_t> encode_update_record(const UpdateRecord& rec,
                                               const UpdateEncodeOptions& options = {});

/// Encodes one BGP4MP_ET/MESSAGE record as a pre-AS4 speaker would:
/// 2-byte header ASNs and 2-byte AS_PATH hops with AS_TRANS substituted
/// for wide ASNs, plus an AS4_PATH attribute carrying the true path when
/// any hop needs it. Archived RouteViews windows predating AS4 adoption
/// are full of this shape; the importer's merge test feeds on it.
std::vector<std::uint8_t> encode_update_record_as2(const UpdateRecord& rec,
                                                   const UpdateEncodeOptions& options = {});

/// Fixture encoder: a complete, well-framed BGP4MP_ET/MESSAGE_AS4 record
/// whose AS_PATH is a single AS_SET segment (the aggregate shape this
/// implementation recognizes but does not model) — shorthand for
/// encode_update_record with UpdateEncodeOptions::as_set_path. The
/// importer's record-skip tests and the golden determinism fixture both
/// feed on it — decoding it throws UnsupportedRecord.
std::vector<std::uint8_t> encode_update_record_as_set(const UpdateRecord& rec);

/// Decodes the body of a BGP4MP_ET/MESSAGE or MESSAGE_AS4 record
/// (2-byte AS_PATHs are AS4_PATH-merged per RFC 6793 §4.2.3).
UpdateRecord decode_update_record(const RawRecord& raw);

/// Encodes a full TABLE_DUMP_V2 snapshot: one PEER_INDEX_TABLE record
/// followed by one RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record per entry
/// (subtype chosen by each prefix's family). `snapshot_time` is stamped
/// on every record.
std::vector<std::uint8_t> encode_table_dump(const std::vector<RibEntryRecord>& entries,
                                            SimTime snapshot_time);

/// Reads the next raw record off a byte stream; nullopt at clean EOF,
/// DecodeError on a truncated record.
std::optional<RawRecord> read_raw_record(ByteReader& reader);

/// Writes the MRT common header followed by `body`.
void write_raw_record(ByteWriter& writer, RecordType type, std::uint16_t subtype,
                      SimTime timestamp, std::span<const std::uint8_t> body);

/// Encodes just the BGP UPDATE wire message (RFC 4271 §4.3), without the
/// MRT envelope. Exposed for tests and for the codec microbenchmarks.
std::vector<std::uint8_t> encode_bgp_update(const bgp::UpdateMessage& update,
                                            const UpdateEncodeOptions& options = {});
/// Decodes a BGP UPDATE. MP_REACH/MP_UNREACH NLRI are appended to
/// `announced`/`withdrawn` after the classic v4 fields, so a decoded
/// update carries its v4 prefixes first and its v6 prefixes second.
bgp::UpdateMessage decode_bgp_update(ByteReader& reader, bgp::Asn sender,
                                     bool two_byte_as_path = false);

/// Path-attribute codec shared by UPDATE bodies and TABLE_DUMP_V2 RIB
/// entries (both use the RFC 4271 attribute encoding).
void encode_path_attributes(ByteWriter& writer, const bgp::PathAttributes& attrs);
bgp::PathAttributes decode_path_attributes(ByteReader& attrs_reader);

/// NLRI prefix codec (RFC 4271 §4.3 <length, prefix> tuples), shared by
/// UPDATE bodies, TABLE_DUMP_V2 RIB records and the streaming importer.
void write_nlri_prefix(ByteWriter& writer, const net::Prefix& prefix);
net::Prefix read_nlri_prefix(ByteReader& reader, net::IpFamily family);

/// Caller-owned staging area for multiprotocol NLRI (RFC 4760): prefixes
/// carried in MP_REACH_NLRI / MP_UNREACH_NLRI attributes land here during
/// decode_path_attributes_into, reusing capacity across records.
struct MpNlriScratch {
  std::vector<net::Prefix> announced;
  std::vector<net::Prefix> withdrawn;

  void clear() {
    announced.clear();
    withdrawn.clear();
  }
};

/// Allocation-reusing decode: fills `out` in place (clearing it first)
/// and stages AS hops in the caller-owned scratch vectors, so a warmed-up
/// import loop touches no heap. With `two_byte_as_path` the mandatory
/// AS_PATH is read as 16-bit hops and, when an AS4_PATH attribute is
/// present, the two are merged per RFC 6793 §4.2.3: the AS4_PATH rewrites
/// the tail of the AS_PATH, excess leading (oldest-speaker) hops survive,
/// and an over-long AS4_PATH is ignored entirely.
///
/// With `mp` non-null, MP_REACH/MP_UNREACH NLRI (cleared first) decode
/// into it — v4 and v6 unicast AFIs, 16- and 32-byte v6 next hops; any
/// other AFI/SAFI throws UnsupportedRecord. With `mp` null the MP
/// attributes are skipped whole, which is exactly right for TABLE_DUMP_V2
/// RIB entries (RFC 6396 abbreviates MP_REACH there to a bare next hop).
void decode_path_attributes_into(ByteReader& attrs_reader, bgp::PathAttributes& out,
                                 bool two_byte_as_path,
                                 std::vector<bgp::Asn>& hops_scratch,
                                 std::vector<bgp::Asn>& as4_scratch,
                                 MpNlriScratch* mp = nullptr);

}  // namespace artemis::mrt
