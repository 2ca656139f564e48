// Seeded input generator: a routed prefix universe, multi-tenant
// ownership drawn from it, and MRT byte windows with injected hijacks.
//
// The generator writes MRT (RFC 6396) itself and draws from its own
// PRNG, so the inputs depend only on the seed and the workload's shape,
// never on the code under test: the program receives nothing but the
// generated bytes and the ownership list. Every window comes with its
// ground truth: the hijacks it injects (exact-origin and sub-prefix
// hijacks of owned prefixes, each with a unique offender so each must
// raise exactly one alert) and the super-prefix announcements that may
// legitimately raise further alerts.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netbase/prefix.hpp"

namespace perfbench {

/// splitmix64-seeded xoshiro256**.
class Prng {
 public:
  explicit Prng(std::uint64_t seed);
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound);
  double unit();
  bool chance(double p) { return unit() < p; }

 private:
  std::uint64_t s_[4];
};

/// A generated prefix. v4: the address is the low 32 bits of `addr`;
/// v6: `addr` is the top 64 bits (generated v6 prefixes are /64 or
/// shorter).
struct Pfx {
  bool v6 = false;
  std::uint8_t len = 0;
  std::uint64_t addr = 0;

  artemis::net::Prefix to_net() const;
  bool operator==(const Pfx&) const = default;
};

/// One routed prefix: who originates it, the transit in front of the
/// origin, and the owning tenant (-1 when nobody in the table owns it).
struct Route {
  Pfx prefix;
  std::uint32_t origin = 0;
  std::uint32_t transit = 0;
  std::int32_t tenant = -1;
};

struct UniverseSpec {
  std::size_t v4_routes = 0;
  std::size_t v6_routes = 0;
  std::size_t tenants = 0;
  std::size_t prefixes_per_tenant = 0;  ///< a multiple of 4
};

/// Non-overlapping routed prefixes (v4 /20-/24, v6 /32-/48), in runs of
/// four that share an origin and an owner. Owned runs are spread over
/// the whole space and their tenants interleave, so a covering
/// super-prefix touches several tenants, while every owned prefix
/// belongs to exactly one.
struct Universe {
  std::vector<Route> routes;
  std::vector<std::uint32_t> owned4, owned6, unowned4, unowned6;  ///< route indexes
  std::vector<std::vector<std::uint32_t>> tenant_routes;
  std::vector<std::uint32_t> tenant_asn;
  std::size_t owned_count() const { return owned4.size() + owned6.size(); }
};

Universe make_universe(const UniverseSpec& spec, std::uint64_t seed);

/// Origin ranges the ground truth relies on: hijacker k announces with
/// kHijackerAsnBase + k, super-prefix announcement k with kSuperAsnBase + k.
inline constexpr std::uint32_t kHijackerAsnBase = 4'200'000'000u;
inline constexpr std::uint32_t kSuperAsnBase = 500'000;

enum class HijackKind : std::uint8_t { kExact, kSubPrefix };

/// One injected hijack and the alert it must raise.
struct Hijack {
  std::size_t record = 0;       ///< index of the first record carrying it
  std::uint64_t obs_index = 0;  ///< its observation's position in the converted stream
  /// MRT header times of every record carrying it: the first sighting
  /// (`record`) and the repeats other peers report shortly after.
  std::vector<std::int64_t> sightings_us;
  HijackKind kind = HijackKind::kExact;
  Pfx observed;
  Pfx owned;
  std::uint32_t offender = 0;  ///< unique per hijack
  std::uint32_t tenant = 0;
};

/// A super-prefix announcement with a foreign origin: it covers owned
/// prefixes of one or more tenants and may alert any of them.
struct SuperAnnouncement {
  Pfx prefix;
  std::uint32_t origin = 0;
};

struct WindowSpec {
  /// TABLE_DUMP_V2 snapshots at the window start: prefixes per family
  /// and entries (collector peers) per prefix.
  std::size_t rib_v4 = 0;
  std::size_t rib_v6 = 0;
  std::size_t rib_peers = 16;
  /// BGP4MP updates from 32 interleaved collector peers, evenly spread
  /// over [start, start + span).
  std::size_t updates = 0;
  std::int64_t start_us = 1'700'000'000LL * 1'000'000;
  std::int64_t span_us = 3'600LL * 1'000'000;
  /// Shares of update records by shape.
  double owned_share = 0.1;  ///< announcement targets drawn from owned space
  double v6_share = 1.0 / 3;
  double withdraw_share = 0.1;
  double super_share = 0.01;
  double more_specific_share = 0.05;  ///< legitimate more-specifics
  double as_set_share = 0.001;        ///< records the importer must skip
  std::size_t super_pool = 64;
  std::size_t hijacks = 0;
  /// Session-reset burst: one peer re-announces `burst` routes, all
  /// stamped with the time of the steady record at `burst_at` (a share
  /// of the window), `burst_hijacks` of them hijacks.
  std::size_t burst = 0;
  double burst_at = 0.5;
  std::size_t burst_hijacks = 0;
};

struct Window {
  std::vector<std::uint8_t> mrt;         ///< raw MRT bytes
  std::vector<std::size_t> record_end;   ///< end offset of every record
  std::vector<std::int64_t> record_ts_us;
  /// Observations converted from the window up to the end of each record.
  std::vector<std::uint64_t> record_obs_end;
  std::uint64_t records = 0;  ///< records the importer converts (skips excluded)
  std::uint64_t observations = 0;
  std::uint64_t skipped_records = 0;
  std::vector<Hijack> hijacks;  ///< in record order
  std::vector<SuperAnnouncement> supers;
};

Window make_window(const Universe& universe, const WindowSpec& spec, std::uint64_t seed);

/// Single-member gzip with a zero mtime: same input, same bytes.
std::vector<std::uint8_t> gzip_bytes(std::span<const std::uint8_t> in);

/// FNV-1a 64 of a byte string, and of a universe's routes and owners.
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes);
std::uint64_t universe_hash(const Universe& universe);
std::string hex64(std::uint64_t value);

}  // namespace perfbench
