#include "gen.hpp"

#include <zlib.h>

#include <algorithm>
#include <map>
#include <stdexcept>

#include "netbase/ip.hpp"

namespace perfbench {

// ------------------------------------------------------------------ PRNG

namespace {

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Prng::Prng(std::uint64_t seed) {
  for (auto& word : s_) word = splitmix(seed);
}

std::uint64_t Prng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Prng::below(std::uint64_t bound) {
  // Lemire's multiply-shift; the tiny bias is irrelevant for inputs.
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double Prng::unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

artemis::net::Prefix Pfx::to_net() const {
  using artemis::net::IpAddress;
  return artemis::net::Prefix(
      v6 ? IpAddress::v6(addr, 0) : IpAddress::v4(static_cast<std::uint32_t>(addr)),
      len);
}

// -------------------------------------------------------------- universe

namespace {

constexpr std::uint32_t kTenantAsnBase = 200'000;
constexpr std::uint32_t kCollectorAsn = 64'512;
constexpr std::size_t kPeers = 32;
constexpr std::size_t kAs2Peers = 4;  ///< pre-AS4 speakers: AS_TRANS + AS4_PATH

std::uint8_t pick_len(Prng& rng, const std::uint8_t* lens, const double* weights,
                      std::size_t n) {
  double u = rng.unit();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (u < weights[i]) return lens[i];
    u -= weights[i];
  }
  return lens[n - 1];
}

std::uint32_t transit_asn(Prng& rng) {
  // Mostly narrow transit ASNs, a few wide ones so pre-AS4 speakers
  // carry AS_TRANS in the middle of paths too.
  const std::uint64_t k = rng.below(56);
  return k < 48 ? static_cast<std::uint32_t>(100 + 17 * k)
                : static_cast<std::uint32_t>(131'072 + k);
}

}  // namespace

Universe make_universe(const UniverseSpec& spec, std::uint64_t seed) {
  Prng rng(seed ^ 0x756e6976657273ULL);
  Universe u;
  const std::size_t v4 = spec.v4_routes / 4 * 4;
  const std::size_t v6 = spec.v6_routes / 4 * 4;
  u.routes.reserve(v4 + v6);

  static constexpr std::uint8_t kLens4[] = {24, 23, 22, 21, 20};
  static constexpr double kWeights4[] = {0.6, 0.15, 0.15, 0.05, 0.05};
  std::uint64_t cursor = 0x01000000;  // 1.0.0.0
  for (std::size_t i = 0; i < v4; ++i) {
    const std::uint8_t len = pick_len(rng, kLens4, kWeights4, 5);
    const std::uint64_t block = 1ULL << (32 - len);
    cursor = (cursor + block - 1) / block * block;
    if (cursor + block > 0xDF000000ULL) throw std::runtime_error("v4 universe too large");
    u.routes.push_back(Route{Pfx{false, len, cursor}, 0, 0, -1});
    cursor += block + rng.below(3) * 256;
  }
  static constexpr std::uint8_t kLens6[] = {48, 44, 40, 36, 32};
  static constexpr double kWeights6[] = {0.5, 0.1, 0.1, 0.1, 0.2};
  cursor = 0x2001000000000000ULL;
  for (std::size_t i = 0; i < v6; ++i) {
    const std::uint8_t len = pick_len(rng, kLens6, kWeights6, 5);
    const std::uint64_t block = 1ULL << (64 - len);
    cursor = (cursor + block - 1) / block * block;
    u.routes.push_back(Route{Pfx{true, len, cursor}, 0, 0, -1});
    cursor += block + rng.below(3) * (1ULL << 16);
  }

  // Ownership: whole runs of four, chosen uniformly (selection sampling
  // keeps the count exact), tenants shuffled across the chosen runs.
  const std::size_t chunks = u.routes.size() / 4;
  const std::size_t per_tenant_chunks = spec.prefixes_per_tenant / 4;
  std::size_t needed = spec.tenants * per_tenant_chunks;
  if (needed > chunks) throw std::runtime_error("universe smaller than the owned table");
  std::vector<std::uint32_t> owners;
  owners.reserve(needed);
  for (std::size_t t = 0; t < spec.tenants; ++t) {
    for (std::size_t k = 0; k < per_tenant_chunks; ++k) {
      owners.push_back(static_cast<std::uint32_t>(t));
    }
  }
  for (std::size_t i = owners.size(); i > 1; --i) {
    std::swap(owners[i - 1], owners[rng.below(i)]);
  }
  u.tenant_routes.resize(spec.tenants);
  for (std::size_t t = 0; t < spec.tenants; ++t) {
    u.tenant_asn.push_back(kTenantAsnBase + static_cast<std::uint32_t>(t));
  }
  std::size_t next_owner = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const bool owned = rng.below(chunks - c) < needed;
    std::int32_t tenant = -1;
    std::uint32_t origin;
    if (owned) {
      --needed;
      tenant = static_cast<std::int32_t>(owners[next_owner++]);
      origin = u.tenant_asn[static_cast<std::size_t>(tenant)];
    } else {
      origin = rng.chance(0.25) ? static_cast<std::uint32_t>(300'000 + rng.below(100'000))
                                : static_cast<std::uint32_t>(1'000 + rng.below(59'000));
    }
    const std::uint32_t transit = transit_asn(rng);
    for (std::size_t k = 0; k < 4; ++k) {
      const auto index = static_cast<std::uint32_t>(c * 4 + k);
      Route& r = u.routes[index];
      r.origin = origin;
      r.transit = transit;
      r.tenant = tenant;
      if (owned) {
        (r.prefix.v6 ? u.owned6 : u.owned4).push_back(index);
        u.tenant_routes[static_cast<std::size_t>(tenant)].push_back(index);
      } else {
        (r.prefix.v6 ? u.unowned6 : u.unowned4).push_back(index);
      }
    }
  }
  return u;
}

// ----------------------------------------------------------- MRT writing

namespace {

class Bytes {
 public:
  explicit Bytes(std::vector<std::uint8_t>& out) : out_(out) {}
  void u8(std::uint32_t v) { out_.push_back(static_cast<std::uint8_t>(v)); }
  void u16(std::uint32_t v) {
    u8(v >> 8);
    u8(v);
  }
  void u32(std::uint32_t v) {
    u16(v >> 16);
    u16(v & 0xFFFF);
  }
  void append(const std::vector<std::uint8_t>& bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }
  std::size_t size() const { return out_.size(); }
  void patch16(std::size_t at, std::size_t v) {
    out_[at] = static_cast<std::uint8_t>(v >> 8);
    out_[at + 1] = static_cast<std::uint8_t>(v);
  }
  void patch32(std::size_t at, std::size_t v) {
    patch16(at, v >> 16);
    patch16(at + 2, v & 0xFFFF);
  }

 private:
  std::vector<std::uint8_t>& out_;
};

void put_prefix(Bytes& b, const Pfx& p) {
  b.u8(p.len);
  const int nbytes = (p.len + 7) / 8;
  const int width = p.v6 ? 64 : 32;
  for (int i = 0; i < nbytes; ++i) {
    b.u8(static_cast<std::uint32_t>(p.addr >> (width - 8 - 8 * i)));
  }
}

void put_attr(Bytes& b, std::uint8_t flags, std::uint8_t type,
              const std::vector<std::uint8_t>& payload) {
  if (payload.size() > 255) {
    b.u8(flags | 0x10u);
    b.u8(type);
    b.u16(static_cast<std::uint32_t>(payload.size()));
  } else {
    b.u8(flags);
    b.u8(type);
    b.u8(static_cast<std::uint32_t>(payload.size()));
  }
  b.append(payload);
}

/// ORIGIN, AS_PATH (one segment), NEXT_HOP, and AS4_PATH when a pre-AS4
/// speaker has to write AS_TRANS for a wide hop.
void put_path_attrs(Bytes& b, const std::vector<std::uint32_t>& path, bool two_byte,
                    bool as_set) {
  put_attr(b, 0x40, 1, {0});
  std::vector<std::uint8_t> seg;
  Bytes s(seg);
  s.u8(as_set ? 1 : 2);
  s.u8(static_cast<std::uint32_t>(path.size()));
  bool wide = false;
  for (const auto asn : path) {
    if (two_byte) {
      wide = wide || asn > 0xFFFF;
      s.u16(asn > 0xFFFF ? 23456 : asn);
    } else {
      s.u32(asn);
    }
  }
  put_attr(b, 0x40, 2, seg);
  put_attr(b, 0x40, 3, {0, 0, 0, 0});
  if (wide) {
    std::vector<std::uint8_t> as4;
    Bytes a(as4);
    a.u8(2);
    a.u8(static_cast<std::uint32_t>(path.size()));
    for (const auto asn : path) a.u32(asn);
    put_attr(b, 0xC0, 17, as4);
  }
}

struct Emitter {
  Window& w;
  Bytes b{w.mrt};

  std::size_t header(std::int64_t ts_us, std::uint16_t type, std::uint16_t subtype,
                     bool extended) {
    b.u32(static_cast<std::uint32_t>(ts_us / 1'000'000));
    b.u16(type);
    b.u16(subtype);
    const std::size_t len_at = b.size();
    b.u32(0);
    if (extended) b.u32(static_cast<std::uint32_t>(ts_us % 1'000'000));
    return len_at;
  }

  /// Closes the record started by header(); `observations` is what the
  /// importer converts it into.
  void finish(std::size_t len_at, std::int64_t ts_us, std::uint64_t observations) {
    b.patch32(len_at, b.size() - len_at - 4);
    w.observations += observations;
    w.record_end.push_back(b.size());
    w.record_ts_us.push_back(ts_us);
    w.record_obs_end.push_back(w.observations);
  }

  /// One BGP4MP_ET update; announce and withdraw hold one family each.
  void update(std::int64_t ts_us, std::uint32_t peer, bool two_byte,
              const std::vector<Pfx>& announce, const std::vector<Pfx>& withdraw,
              const std::vector<std::uint32_t>& path, bool as_set = false) {
    const std::size_t len_at = header(ts_us, 17, two_byte ? 1 : 4, true);
    if (two_byte) {
      b.u16(peer);
      b.u16(kCollectorAsn);
    } else {
      b.u32(peer);
      b.u32(kCollectorAsn);
    }
    b.u16(0);  // interface index
    b.u16(1);  // peer address family: IPv4
    b.u32(0x0A000000u | (peer & 0xFFFFFF));
    b.u32(0);
    for (int i = 0; i < 16; ++i) b.u8(0xFF);
    const std::size_t msg_len_at = b.size() - 16;
    b.u16(0);
    b.u8(2);  // UPDATE
    const bool v6 = (!announce.empty() && announce.front().v6) ||
                    (!withdraw.empty() && withdraw.front().v6);
    const std::size_t wd_at = b.size();
    b.u16(0);
    if (!v6) {
      for (const auto& p : withdraw) put_prefix(b, p);
    }
    b.patch16(wd_at, b.size() - wd_at - 2);
    const std::size_t attrs_at = b.size();
    b.u16(0);
    if (!announce.empty()) put_path_attrs(b, path, two_byte, as_set);
    if (v6 && !announce.empty()) {
      std::vector<std::uint8_t> reach;
      Bytes r(reach);
      r.u16(2);  // AFI IPv6
      r.u8(1);   // SAFI unicast
      r.u8(16);  // next hop length
      for (int i = 0; i < 16; ++i) r.u8(0);
      r.u8(0);  // reserved
      for (const auto& p : announce) put_prefix(r, p);
      put_attr(b, 0x80, 14, reach);
    }
    if (v6 && !withdraw.empty()) {
      std::vector<std::uint8_t> unreach;
      Bytes r(unreach);
      r.u16(2);
      r.u8(1);
      for (const auto& p : withdraw) put_prefix(r, p);
      put_attr(b, 0x80, 15, unreach);
    }
    b.patch16(attrs_at, b.size() - attrs_at - 2);
    if (!v6) {
      for (const auto& p : announce) put_prefix(b, p);
    }
    b.patch16(msg_len_at + 16, b.size() - msg_len_at);
    if (as_set) {
      ++w.skipped_records;
      finish(len_at, ts_us, 0);
    } else {
      ++w.records;
      finish(len_at, ts_us, announce.size() + withdraw.size());
    }
  }

  void peer_index(std::int64_t ts_us, const std::vector<std::uint32_t>& peers) {
    const std::size_t len_at = header(ts_us, 13, 1, false);
    b.u32(0);  // collector BGP ID
    b.u16(0);  // view name length
    b.u16(static_cast<std::uint32_t>(peers.size()));
    for (const auto asn : peers) {
      b.u8(0x02);  // AS4, IPv4 peer
      b.u32(asn);
      b.u32(0x0A000000u | (asn & 0xFFFFFF));
      b.u32(asn);
    }
    ++w.records;
    finish(len_at, ts_us, 0);
  }

  void rib(std::int64_t ts_us, std::uint32_t sequence, const Route& route,
           const std::vector<std::uint16_t>& peer_indexes,
           const std::vector<std::uint32_t>& peers) {
    const std::size_t len_at = header(ts_us, 13, route.prefix.v6 ? 4 : 2, false);
    b.u32(sequence);
    put_prefix(b, route.prefix);
    b.u16(static_cast<std::uint32_t>(peer_indexes.size()));
    for (const auto idx : peer_indexes) {
      b.u16(idx);
      b.u32(static_cast<std::uint32_t>(ts_us / 1'000'000));
      const std::size_t attr_len_at = b.size();
      b.u16(0);
      put_path_attrs(b, {peers[idx], route.transit, route.origin}, false, false);
      b.patch16(attr_len_at, b.size() - attr_len_at - 2);
    }
    ++w.records;
    finish(len_at, ts_us, peer_indexes.size());
  }
};

/// Random distinct positions in [0, n), sorted.
std::vector<std::size_t> sample_positions(Prng& rng, std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  if (n == 0) return out;
  k = std::min(k, n);
  for (std::size_t i = 0; i < n && out.size() < k; ++i) {
    if (rng.below(n - i) < k - out.size()) out.push_back(i);
  }
  return out;
}

Pfx more_specific(Prng& rng, const Pfx& p, int extra) {
  Pfx out = p;
  const int width = p.v6 ? 64 : 32;
  out.len = static_cast<std::uint8_t>(p.len + extra);
  const std::uint64_t bits = rng.below(1ULL << extra);
  out.addr |= bits << (width - out.len);
  return out;
}

Pfx shorten(const Pfx& p, int by) {
  Pfx out = p;
  const int width = p.v6 ? 64 : 32;
  out.len = static_cast<std::uint8_t>(p.len - by);
  const std::uint64_t keep = ~((1ULL << (width - out.len)) - 1);
  out.addr &= keep;
  return out;
}

}  // namespace

Window make_window(const Universe& u, const WindowSpec& spec, std::uint64_t seed) {
  Prng rng(seed ^ 0x77696e646f77ULL);
  Window w;
  Emitter e{w};

  std::vector<std::uint32_t> peers;
  while (peers.size() < kPeers) {
    const auto asn = static_cast<std::uint32_t>(1'000 + rng.below(63'000));
    if (std::find(peers.begin(), peers.end(), asn) == peers.end()) peers.push_back(asn);
  }
  const auto path_for = [&](std::uint32_t peer, const Route& r,
                            std::uint32_t origin) -> std::vector<std::uint32_t> {
    if (rng.chance(0.3)) return {peer, transit_asn(rng), r.transit, origin};
    return {peer, r.transit, origin};
  };

  const auto owned_any = [&](bool v6) -> const std::vector<std::uint32_t>& {
    return v6 ? u.owned6 : u.owned4;
  };
  const auto pick_route = [&](bool want_owned, bool v6) -> const Route& {
    const auto& owned = owned_any(v6);
    const auto& unowned = v6 ? u.unowned6 : u.unowned4;
    const auto& pool = (want_owned && !owned.empty()) || unowned.empty() ? owned : unowned;
    return u.routes[pool[rng.below(pool.size())]];
  };

  for (std::size_t k = 0; k < spec.super_pool && u.owned_count() > 0; ++k) {
    const bool v6 = u.owned4.empty() || (!u.owned6.empty() && rng.chance(spec.v6_share));
    const Route& r = pick_route(true, v6);
    const int by = 3 + static_cast<int>(rng.below(4));
    w.supers.push_back({shorten(r.prefix, std::min(by, r.prefix.len - (v6 ? 16 : 8))),
                        kSuperAsnBase + static_cast<std::uint32_t>(k)});
  }

  // RIB snapshots open the window: one record per prefix, one entry per
  // peer, every route with its legitimate origin.
  if (spec.rib_v4 + spec.rib_v6 > 0) {
    e.peer_index(spec.start_us, peers);
    std::uint32_t sequence = 0;
    std::vector<std::uint16_t> entry_peers;
    for (const bool v6 : {false, true}) {
      const std::size_t first = v6 ? u.routes.size() - u.owned6.size() - u.unowned6.size() : 0;
      const std::size_t count = v6 ? u.owned6.size() + u.unowned6.size()
                                   : u.owned4.size() + u.unowned4.size();
      for (const auto pos : sample_positions(rng, count, v6 ? spec.rib_v6 : spec.rib_v4)) {
        const Route& r = u.routes[first + pos];
        entry_peers.clear();
        const std::size_t start = rng.below(kPeers);
        for (std::size_t k = 0; k < spec.rib_peers; ++k) {
          entry_peers.push_back(static_cast<std::uint16_t>((start + k) % kPeers));
        }
        e.rib(spec.start_us, sequence++, r, entry_peers, peers);
      }
    }
  }

  // Updates: steady records with the burst spliced in at burst_at.
  const std::size_t burst_pos = static_cast<std::size_t>(
      static_cast<double>(spec.updates) * spec.burst_at);
  const std::size_t total = spec.updates + spec.burst;
  const auto steady_hijacks = sample_positions(rng, spec.updates, spec.hijacks);
  // Hijacks inside the burst are evenly spaced, so its latency tail does
  // not depend on where the seed happened to put them.
  std::vector<std::size_t> burst_hijacks;
  for (std::size_t k = 0; k < spec.burst_hijacks; ++k) {
    burst_hijacks.push_back((2 * k + 1) * spec.burst / (2 * spec.burst_hijacks));
  }
  std::vector<bool> is_hijack(total, false);
  for (const auto pos : steady_hijacks) {
    is_hijack[pos < burst_pos ? pos : pos + spec.burst] = true;
  }
  for (const auto pos : burst_hijacks) is_hijack[burst_pos + pos] = true;

  struct Echo {
    std::size_t hijack;
    std::uint32_t peer;
  };
  std::multimap<std::size_t, Echo> echoes;  // position -> repeat sighting
  const std::uint32_t burst_peer = peers[kAs2Peers + rng.below(kPeers - kAs2Peers)];
  std::size_t burst_cursor = rng.below(u.routes.size() / 4) * 4;
  std::vector<Pfx> announce, withdraw;
  std::int64_t burst_ts = spec.start_us;

  for (std::size_t i = 0; i < total; ++i) {
    const bool in_burst = i >= burst_pos && i < burst_pos + spec.burst;
    const std::size_t steady_index =
        i < burst_pos ? i : (in_burst ? burst_pos : i - spec.burst);
    const double at = static_cast<double>(steady_index) /
                      static_cast<double>(std::max<std::size_t>(spec.updates, 1));
    std::int64_t ts =
        spec.start_us + static_cast<std::int64_t>(static_cast<double>(spec.span_us) * at);
    if (in_burst) {
      if (i == burst_pos) burst_ts = ts;
      ts = burst_ts;
    }
    const std::size_t peer_index = rng.below(kPeers);
    std::uint32_t peer = in_burst ? burst_peer : peers[peer_index];
    bool two_byte = !in_burst && peer_index < kAs2Peers;
    announce.clear();
    withdraw.clear();

    if (is_hijack[i]) {
      const bool v6 = !u.owned6.empty() && (u.owned4.empty() || rng.chance(spec.v6_share));
      const Route& r = pick_route(true, v6);
      Hijack h;
      h.record = w.record_end.size();
      h.obs_index = w.observations;
      h.sightings_us.push_back(ts);
      h.owned = r.prefix;
      h.tenant = static_cast<std::uint32_t>(r.tenant);
      h.offender = kHijackerAsnBase + static_cast<std::uint32_t>(w.hijacks.size());
      h.kind = rng.chance(0.5) ? HijackKind::kExact : HijackKind::kSubPrefix;
      h.observed = h.kind == HijackKind::kExact
                       ? r.prefix
                       : more_specific(rng, r.prefix, 1 + static_cast<int>(rng.below(2)));
      announce.push_back(h.observed);
      e.update(ts, peer, two_byte, announce, withdraw, path_for(peer, r, h.offender));
      const std::size_t repeats = rng.below(3);
      for (std::size_t k = 0; k < repeats; ++k) {
        const std::uint32_t repeater = peers[kAs2Peers + rng.below(kPeers - kAs2Peers)];
        echoes.emplace(i + 1 + rng.below(256), Echo{w.hijacks.size(), repeater});
      }
      w.hijacks.push_back(h);
      continue;
    }
    if (!echoes.empty() && echoes.begin()->first <= i) {
      const Echo echo = echoes.begin()->second;
      echoes.erase(echoes.begin());
      Hijack& h = w.hijacks[echo.hijack];
      h.sightings_us.push_back(ts);
      announce.push_back(h.observed);
      const std::vector<std::uint32_t> path{echo.peer, transit_asn(rng), h.offender};
      e.update(ts, echo.peer, false, announce, withdraw, path);
      continue;
    }
    if (in_burst) {
      // The re-announced table: consecutive runs, legitimate origins.
      const Route& first = u.routes[burst_cursor];
      const std::size_t n = 1 + rng.below(4);
      for (std::size_t k = 0; k < n && burst_cursor < u.routes.size(); ++k) {
        const Route& r = u.routes[burst_cursor];
        if (r.prefix.v6 != first.prefix.v6 || r.origin != first.origin) break;
        announce.push_back(r.prefix);
        ++burst_cursor;
      }
      if (burst_cursor >= u.routes.size()) burst_cursor = 0;
      e.update(ts, peer, false, announce, withdraw, {peer, first.transit, first.origin});
      continue;
    }

    const bool v6 = rng.chance(spec.v6_share);
    const double shape = rng.unit();
    double edge = spec.withdraw_share;
    if (shape < edge) {
      const Route& r = pick_route(rng.chance(spec.owned_share), v6);
      withdraw.push_back(r.prefix);
      e.update(ts, peer, two_byte, announce, withdraw, {});
      continue;
    }
    if (shape < (edge += spec.super_share) && !w.supers.empty()) {
      const SuperAnnouncement& s = w.supers[rng.below(w.supers.size())];
      announce.push_back(s.prefix);
      e.update(ts, peer, two_byte, announce, withdraw,
               {peer, transit_asn(rng), s.origin});
      continue;
    }
    if (shape < (edge += spec.more_specific_share)) {
      const Route& r = pick_route(rng.chance(spec.owned_share), v6);
      announce.push_back(more_specific(rng, r.prefix, 1 + static_cast<int>(rng.below(2))));
      e.update(ts, peer, two_byte, announce, withdraw, path_for(peer, r, r.origin));
      continue;
    }
    if (shape < (edge += spec.as_set_share)) {
      const Route& r = pick_route(false, false);
      announce.push_back(r.prefix);
      e.update(ts, peers[kAs2Peers], false, announce, withdraw,
               {peers[kAs2Peers], r.transit, r.origin}, /*as_set=*/true);
      continue;
    }
    // A plain announcement: 1-4 prefixes of one run (one origin).
    const Route& r = pick_route(rng.chance(spec.owned_share), v6);
    const std::size_t index = static_cast<std::size_t>(&r - u.routes.data());
    const std::size_t run_end = index / 4 * 4 + 4;
    const std::uint64_t roll = rng.below(10);
    const std::size_t n = roll < 6 ? 1 : roll < 8 ? 2 : roll < 9 ? 3 : 4;
    for (std::size_t k = index; k < run_end && announce.size() < n; ++k) {
      announce.push_back(u.routes[k].prefix);
    }
    e.update(ts, peer, two_byte, announce, withdraw, path_for(peer, r, r.origin));
  }
  return w;
}

// ----------------------------------------------------------------- misc

std::vector<std::uint8_t> gzip_bytes(std::span<const std::uint8_t> in) {
  z_stream zs{};
  if (deflateInit2(&zs, 6, Z_DEFLATED, 15 + 16, 8, Z_DEFAULT_STRATEGY) != Z_OK) {
    throw std::runtime_error("deflateInit2 failed");
  }
  std::vector<std::uint8_t> out(deflateBound(&zs, static_cast<uLong>(in.size())) + 64);
  zs.next_in = const_cast<Bytef*>(in.data());
  zs.avail_in = static_cast<uInt>(in.size());
  zs.next_out = out.data();
  zs.avail_out = static_cast<uInt>(out.size());
  const int rc = deflate(&zs, Z_FINISH);
  const std::size_t produced = zs.total_out;
  deflateEnd(&zs);
  if (rc != Z_STREAM_END) throw std::runtime_error("deflate failed");
  out.resize(produced);
  return out;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t universe_hash(const Universe& universe) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  };
  for (const Route& r : universe.routes) {
    mix(r.prefix.addr);
    mix((static_cast<std::uint64_t>(r.prefix.len) << 1) | (r.prefix.v6 ? 1 : 0));
    mix(r.origin);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.tenant)));
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace perfbench
