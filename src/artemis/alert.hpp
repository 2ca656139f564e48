// Hijack alerts: the detection service's output.
#pragma once

#include <string>

#include "artemis/ownership.hpp"
#include "bgp/types.hpp"
#include "feeds/observation.hpp"
#include "netbase/prefix.hpp"
#include "util/time.hpp"

namespace artemis::core {

/// Classification of the violation (the demo paper detects origin-AS
/// violations; the -0/-1 taxonomy follows the authors' later work and is
/// implemented as an extension — see the check list at the top of
/// artemis/detection.hpp).
enum class HijackType : std::uint8_t {
  kExactOrigin,  ///< our exact prefix announced with a wrong origin AS
  kSubPrefix,    ///< a more-specific of our prefix announced by anyone
  kSuperPrefix,  ///< a covering prefix announced with a wrong origin
  kFakeFirstHop, ///< correct origin but an illegitimate adjacent AS (Type-1)
  kRpkiInvalid,  ///< announcement is RPKI-invalid against the loaded ROAs
};

std::string_view to_string(HijackType t);

struct HijackAlert {
  HijackType type = HijackType::kExactOrigin;
  /// The owned prefix that matched.
  net::Prefix owned_prefix;
  /// Whose prefix it is: the owning tenant of the matched entry (the
  /// implicit default tenant for single-operator configs) and its
  /// display name, the alert-routing key of a shared deployment. The name
  /// stays empty for the implicit tenant (TenantInfo::implicit).
  TenantId tenant = kDefaultTenantId;
  std::string tenant_name;
  /// The prefix actually observed (differs for sub/super-prefix hijacks).
  net::Prefix observed_prefix;
  /// The offending origin AS (for kFakeFirstHop: the fake neighbor).
  bgp::Asn offender = bgp::kNoAsn;
  bgp::AsPath observed_path;
  /// Vantage point and feed that produced the first matching observation.
  bgp::Asn vantage = bgp::kNoAsn;
  std::string source;
  /// When the vantage saw the offending route.
  SimTime event_time;
  /// When ARTEMIS raised the alert (= delivery time of the observation).
  SimTime detected_at;

  /// Key identifying "the same hijack" across repeated observations
  /// (display/JSON form; the detection hot path uses key()).
  std::string dedup_key() const;
  /// The allocation-free POD form of dedup_key().
  struct AlertKey key() const;
  std::string to_string() const;
};

/// POD identity of "the same hijack": what dedup_key() encodes, without
/// materializing a string. Hashable, so the detection service can look up
/// an already-seen observation with zero heap allocations. Tenant-scoped:
/// after a reload moves a prefix between tenants, the new owner's first
/// alert is a fresh alert, not a dedup hit on the old owner's record.
struct AlertKey {
  HijackType type = HijackType::kExactOrigin;
  net::Prefix observed_prefix;
  bgp::Asn offender = bgp::kNoAsn;
  TenantId tenant = kDefaultTenantId;

  bool operator==(const AlertKey&) const = default;
};

struct AlertKeyHash {
  std::size_t operator()(const AlertKey& k) const noexcept {
    std::size_t h = std::hash<net::Prefix>{}(k.observed_prefix);
    h ^= static_cast<std::size_t>(k.offender) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    h ^= static_cast<std::size_t>(k.type) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h ^= static_cast<std::size_t>(k.tenant) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
    return h;
  }
};

}  // namespace artemis::core
