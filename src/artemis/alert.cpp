#include "artemis/alert.hpp"

namespace artemis::core {

std::string_view to_string(HijackType t) {
  switch (t) {
    case HijackType::kExactOrigin: return "exact-origin";
    case HijackType::kSubPrefix: return "sub-prefix";
    case HijackType::kSuperPrefix: return "super-prefix";
    case HijackType::kFakeFirstHop: return "fake-first-hop";
    case HijackType::kRpkiInvalid: return "rpki-invalid";
  }
  return "?";
}

std::string HijackAlert::dedup_key() const {
  std::string key(core::to_string(type));
  key += '|';
  key += observed_prefix.to_string();
  key += '|';
  key += std::to_string(offender);
  // Tenant 0 keys stay byte-identical to pre-multi-tenant builds; other
  // tenants scope theirs (same partitioning as AlertKey::tenant).
  if (tenant != kDefaultTenantId) {
    key += "|t";
    key += std::to_string(tenant);
  }
  return key;
}

AlertKey HijackAlert::key() const {
  return AlertKey{type, observed_prefix, offender, tenant};
}

std::string HijackAlert::to_string() const {
  std::string out = "ALERT[";
  out += core::to_string(type);
  out += "] ";
  out += observed_prefix.to_string();
  out += " (owned ";
  out += owned_prefix.to_string();
  out += ") offender AS";
  out += std::to_string(offender);
  out += " path [";
  out += observed_path.to_string();
  out += "] via AS";
  out += std::to_string(vantage);
  out += '/';
  out += source;
  out += " at ";
  out += detected_at.to_string();
  // Only the implicit v1 tenant (id 0, no name) prints nothing extra,
  // keeping single-operator output (and the golden alert fixtures)
  // byte-identical. A named tenant 0 (the first tenant of a v2 config) is
  // labeled like every other tenant.
  if (tenant != kDefaultTenantId || !tenant_name.empty()) {
    out += " tenant=";
    out += tenant_name.empty() ? std::to_string(tenant) : tenant_name;
  }
  return out;
}

}  // namespace artemis::core
