#include "journal/codec.hpp"

#include <cstring>

namespace artemis::journal {
namespace {

// Payload layout (all integers varint/LEB128 unless noted):
//   u8      observation type
//   varint  source id (== current table size: inline definition follows,
//           varint length + raw bytes)
//   varint  vantage ASN
//   u8      address family (4 | 6)
//   u8      prefix length
//   raw     ceil(length / 8) address bytes (canonical network form)
//   varint  AS-path hop count, then one varint per hop (front first)
//   u8      BGP origin
//   varint  local_pref
//   varint  med
//   varint  community count, then per community: varint asn, varint value
//   zigzag  event_time - previous record's event_time (micros)
//   zigzag  delivered_at - event_time (micros)

constexpr std::size_t prefix_bytes(int length) {
  return static_cast<std::size_t>(length + 7) / 8;
}

[[noreturn]] void malformed(const char* what) {
  throw JournalError(std::string("malformed record payload: ") + what);
}

bool get_u8(const std::uint8_t*& cursor, const std::uint8_t* end,
            std::uint8_t& value) {
  if (cursor == end) return false;
  value = *cursor++;
  return true;
}

}  // namespace

// --------------------------------------------------------------- encoder

void RecordEncoder::reset() {
  for (const feeds::SourceId id : sources_) segment_ids_[id] = 0;
  sources_.clear();
  prev_event_us_ = 0;
}

void RecordEncoder::encode(const feeds::Observation& obs,
                           std::vector<std::uint8_t>& out) {
  scratch_.clear();
  scratch_.push_back(static_cast<std::uint8_t>(obs.type));

  if (obs.source >= segment_ids_.size()) {
    segment_ids_.resize(std::size_t{obs.source} + 1);
  }
  std::uint32_t& slot = segment_ids_[obs.source];
  if (slot != 0) {
    put_varint(scratch_, slot - 1);
  } else {  // first sight in this segment: define inline
    put_varint(scratch_, sources_.size());
    const std::string_view name = feeds::source_name(obs.source);
    put_varint(scratch_, name.size());
    scratch_.insert(scratch_.end(), name.begin(), name.end());
    sources_.push_back(obs.source);
    slot = static_cast<std::uint32_t>(sources_.size());
  }

  put_varint(scratch_, obs.vantage);

  scratch_.push_back(static_cast<std::uint8_t>(obs.prefix.family()));
  scratch_.push_back(static_cast<std::uint8_t>(obs.prefix.length()));
  const auto& addr = obs.prefix.address().bytes();
  scratch_.insert(scratch_.end(), addr.begin(),
                  addr.begin() + prefix_bytes(obs.prefix.length()));

  const auto& hops = obs.attrs.as_path.hops();
  put_varint(scratch_, hops.size());
  for (const auto hop : hops) put_varint(scratch_, hop);
  scratch_.push_back(static_cast<std::uint8_t>(obs.attrs.origin));
  put_varint(scratch_, obs.attrs.local_pref);
  put_varint(scratch_, obs.attrs.med);
  put_varint(scratch_, obs.attrs.communities.size());
  for (const auto& community : obs.attrs.communities) {
    put_varint(scratch_, community.asn);
    put_varint(scratch_, community.value);
  }

  const std::int64_t event_us = obs.event_time.as_micros();
  put_varint(scratch_, zigzag_encode(event_us - prev_event_us_));
  put_varint(scratch_, zigzag_encode(obs.delivered_at.as_micros() - event_us));
  prev_event_us_ = event_us;

  // Frame: length | payload | CRC32 (little-endian).
  put_varint(out, scratch_.size());
  out.insert(out.end(), scratch_.begin(), scratch_.end());
  const std::uint32_t crc = crc32(scratch_.data(), scratch_.size());
  out.push_back(static_cast<std::uint8_t>(crc));
  out.push_back(static_cast<std::uint8_t>(crc >> 8));
  out.push_back(static_cast<std::uint8_t>(crc >> 16));
  out.push_back(static_cast<std::uint8_t>(crc >> 24));
}

// --------------------------------------------------------------- decoder

void RecordDecoder::reset() {
  sources_.clear();
  prev_event_us_ = 0;
  last_idempotent_ = false;
}

void RecordDecoder::decode(const std::uint8_t* payload, std::size_t size,
                           feeds::Observation& obs) {
  const std::uint8_t* cursor = payload;
  const std::uint8_t* const end = payload + size;

  std::uint8_t type = 0;
  if (!get_u8(cursor, end, type)) malformed("type");
  if (type > static_cast<std::uint8_t>(feeds::ObservationType::kRouteState)) {
    malformed("unknown observation type");
  }
  obs.type = static_cast<feeds::ObservationType>(type);

  std::uint64_t source_id = 0;
  bool defined_source = false;
  if (!get_varint(cursor, end, source_id)) malformed("source id");
  if (source_id == sources_.size()) {  // inline definition
    defined_source = true;
    std::uint64_t length = 0;
    if (!get_varint(cursor, end, length) ||
        length > static_cast<std::uint64_t>(end - cursor)) {
      malformed("source name");
    }
    sources_.push_back(feeds::intern_source(
        {reinterpret_cast<const char*>(cursor), static_cast<std::size_t>(length)}));
    cursor += length;
  } else if (source_id > sources_.size()) {
    malformed("source id out of range");
  }
  obs.source = sources_[static_cast<std::size_t>(source_id)];

  std::uint64_t vantage = 0;
  if (!get_varint(cursor, end, vantage)) malformed("vantage");
  obs.vantage = static_cast<bgp::Asn>(vantage);

  std::uint8_t family = 0;
  std::uint8_t length = 0;
  if (!get_u8(cursor, end, family) || !get_u8(cursor, end, length)) {
    malformed("prefix");
  }
  if (family != static_cast<std::uint8_t>(net::IpFamily::kIpv4) &&
      family != static_cast<std::uint8_t>(net::IpFamily::kIpv6)) {
    malformed("address family");
  }
  const auto ip_family = static_cast<net::IpFamily>(family);
  if (length > net::family_bits(ip_family)) malformed("prefix length");
  const std::size_t addr_bytes = prefix_bytes(length);
  if (addr_bytes > static_cast<std::size_t>(end - cursor)) malformed("prefix bytes");
  std::uint8_t addr[16] = {};
  std::memcpy(addr, cursor, addr_bytes);
  cursor += addr_bytes;
  // The writer stored canonical (network-form) bytes, and the unstored
  // tail bytes are zero by construction here; masking the one partial
  // byte re-establishes the full canonical invariant even for a
  // tampered-but-CRC-patched file, without the Prefix constructor's
  // full re-masking round trip (this is the decode hot path).
  if ((length & 7) != 0) {
    addr[addr_bytes - 1] &=
        static_cast<std::uint8_t>(0xFF00u >> (length & 7));
  }
  obs.prefix =
      net::Prefix::from_canonical(net::IpAddress::from_bytes(ip_family, addr), length);

  std::uint64_t hop_count = 0;
  if (!get_varint(cursor, end, hop_count) ||
      hop_count > static_cast<std::uint64_t>(end - cursor)) {
    malformed("AS path");
  }
  hops_.clear();
  hops_.reserve(static_cast<std::size_t>(hop_count));
  for (std::uint64_t i = 0; i < hop_count; ++i) {
    std::uint64_t hop = 0;
    if (!get_varint(cursor, end, hop)) malformed("AS path hop");
    hops_.push_back(static_cast<bgp::Asn>(hop));
  }
  obs.attrs.as_path.assign(hops_.data(), hops_.size());

  std::uint8_t origin = 0;
  if (!get_u8(cursor, end, origin)) malformed("origin");
  if (origin > static_cast<std::uint8_t>(bgp::Origin::kIncomplete)) {
    malformed("unknown origin");
  }
  obs.attrs.origin = static_cast<bgp::Origin>(origin);

  std::uint64_t local_pref = 0;
  std::uint64_t med = 0;
  if (!get_varint(cursor, end, local_pref)) malformed("local_pref");
  if (!get_varint(cursor, end, med)) malformed("med");
  obs.attrs.local_pref = static_cast<std::uint32_t>(local_pref);
  obs.attrs.med = static_cast<std::uint32_t>(med);

  std::uint64_t community_count = 0;
  if (!get_varint(cursor, end, community_count) ||
      community_count > static_cast<std::uint64_t>(end - cursor)) {
    malformed("communities");
  }
  obs.attrs.communities.clear();
  obs.attrs.communities.reserve(static_cast<std::size_t>(community_count));
  for (std::uint64_t i = 0; i < community_count; ++i) {
    std::uint64_t asn = 0;
    std::uint64_t value = 0;
    if (!get_varint(cursor, end, asn)) malformed("community asn");
    if (!get_varint(cursor, end, value)) malformed("community value");
    obs.attrs.communities.push_back(
        bgp::Community{static_cast<std::uint16_t>(asn),
                       static_cast<std::uint16_t>(value)});
  }

  std::uint64_t event_delta = 0;
  std::uint64_t delivery_delta = 0;
  if (!get_varint(cursor, end, event_delta)) malformed("event time");
  if (!get_varint(cursor, end, delivery_delta)) malformed("delivery time");
  const std::int64_t event_us = prev_event_us_ + zigzag_decode(event_delta);
  obs.event_time = SimTime::at_micros(event_us);
  obs.delivered_at = SimTime::at_micros(event_us + zigzag_decode(delivery_delta));
  prev_event_us_ = event_us;
  last_idempotent_ = event_delta == 0 && !defined_source;

  if (cursor != end) malformed("trailing bytes");
}

}  // namespace artemis::journal
