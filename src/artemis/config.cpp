#include "artemis/config.hpp"

#include <stdexcept>

namespace artemis::core {

namespace {

bgp::Asn parse_asn(const json::Value& value, const char* what) {
  const auto asn = value.as_int();
  if (asn <= 0 || asn > 0xFFFFFFFFLL) {
    throw std::invalid_argument(std::string("bad ") + what + " ASN");
  }
  return static_cast<bgp::Asn>(asn);
}

/// One {"prefix","origins","neighbors"} entry — shared by both schemas.
OwnedPrefix parse_owned_entry(const json::Value& entry) {
  OwnedPrefix owned;
  const auto prefix_text = entry.at("prefix").as_string();
  const auto prefix = net::Prefix::parse(prefix_text);
  if (!prefix) throw std::invalid_argument("bad prefix: " + prefix_text);
  owned.prefix = *prefix;
  for (const auto& origin : entry.at("origins").as_array()) {
    owned.legitimate_origins.insert(parse_asn(origin, "origin"));
  }
  if (const auto* neighbors = entry.find("neighbors")) {
    for (const auto& neighbor : neighbors->as_array()) {
      owned.legitimate_neighbors.insert(parse_asn(neighbor, "neighbor"));
    }
  }
  return owned;
}

MitigationPolicy parse_mitigation(const json::Value& mitigation) {
  MitigationPolicy policy;
  policy.deaggregation_floor =
      static_cast<int>(mitigation.get_int("deaggregation_floor", 24));
  if (policy.deaggregation_floor < 1 || policy.deaggregation_floor > 32) {
    throw std::invalid_argument("deaggregation_floor out of range");
  }
  policy.reannounce_exact = mitigation.get_bool("reannounce_exact", true);
  policy.auto_mitigate = mitigation.get_bool("auto_mitigate", true);
  return policy;
}

json::Value mitigation_to_json(const MitigationPolicy& policy) {
  json::Object mitigation;
  mitigation["deaggregation_floor"] =
      json::Value(static_cast<std::int64_t>(policy.deaggregation_floor));
  mitigation["reannounce_exact"] = json::Value(policy.reannounce_exact);
  mitigation["auto_mitigate"] = json::Value(policy.auto_mitigate);
  return json::Value(std::move(mitigation));
}

json::Value owned_entry_to_json(const OwnedPrefix& owned) {
  json::Object entry;
  entry["prefix"] = json::Value(owned.prefix.to_string());
  json::Array origins;
  for (const auto asn : owned.legitimate_origins) {
    origins.emplace_back(static_cast<std::int64_t>(asn));
  }
  entry["origins"] = json::Value(std::move(origins));
  if (!owned.legitimate_neighbors.empty()) {
    json::Array neighbors;
    for (const auto asn : owned.legitimate_neighbors) {
      neighbors.emplace_back(static_cast<std::int64_t>(asn));
    }
    entry["neighbors"] = json::Value(std::move(neighbors));
  }
  return json::Value(std::move(entry));
}

}  // namespace

TenantId Config::add_tenant(std::string name, MitigationPolicy mitigation) {
  if (name.empty()) throw std::invalid_argument("tenant name must not be empty");
  for (const auto& tenant : tenants_) {
    if (tenant.name == name) {
      throw std::invalid_argument("duplicate tenant name: " + name);
    }
  }
  const auto id = static_cast<TenantId>(tenants_.size());
  tenants_.push_back(TenantInfo{id, std::move(name), mitigation});
  return id;
}

TenantId Config::ensure_default_tenant() {
  if (tenants_.empty()) {
    add_tenant(std::string(kDefaultTenantName));
    tenants_.front().implicit = true;
  }
  return kDefaultTenantId;
}

void Config::add_owned(TenantId tenant, OwnedPrefix owned) {
  if (tenant >= tenants_.size()) {
    throw std::invalid_argument("unknown tenant id");
  }
  if (owned.legitimate_origins.empty()) {
    throw std::invalid_argument("owned prefix needs at least one legitimate origin");
  }
  owned.tenant = tenant;
  owned_.push_back(std::move(owned));
}

void Config::add_owned(OwnedPrefix owned) {
  add_owned(ensure_default_tenant(), std::move(owned));
}

MitigationPolicy& Config::mitigation() {
  return tenants_[ensure_default_tenant()].mitigation;
}

const MitigationPolicy& Config::mitigation() const {
  static const MitigationPolicy kDefault{};
  return tenants_.empty() ? kDefault : tenants_.front().mitigation;
}

std::shared_ptr<const OwnershipTable> Config::build_table() const {
  std::vector<TenantInfo> tenants = tenants_;
  if (tenants.empty()) {
    // Even an empty config snapshots with the default tenant, so tenant
    // id 0 always resolves to a policy.
    tenants.push_back(TenantInfo{kDefaultTenantId, std::string(kDefaultTenantName),
                                 MitigationPolicy{}, /*implicit=*/true});
  }
  return std::make_shared<const OwnershipTable>(std::span<const OwnedPrefix>(owned_),
                                                std::move(tenants));
}

Config Config::from_json(const json::Value& doc) {
  Config config;
  const auto* tenants = doc.find("tenants");
  const std::int64_t version = doc.get_int("schema_version", tenants ? 2 : 1);
  if (tenants == nullptr) {
    // v1: single-operator shape, implicit default tenant.
    if (version != 1) {
      throw std::invalid_argument("schema_version " + std::to_string(version) +
                                  " requires a \"tenants\" array");
    }
    if (const auto* mitigation = doc.find("mitigation")) {
      config.mitigation() = parse_mitigation(*mitigation);
    }
    for (const auto& entry : doc.at("prefixes").as_array()) {
      config.add_owned(parse_owned_entry(entry));
    }
    return config;
  }
  if (version != 2) {
    throw std::invalid_argument("\"tenants\" requires schema_version 2");
  }
  for (const auto& tenant_doc : tenants->as_array()) {
    MitigationPolicy policy;
    if (const auto* mitigation = tenant_doc.find("mitigation")) {
      policy = parse_mitigation(*mitigation);
    }
    const TenantId id = config.add_tenant(tenant_doc.at("name").as_string(), policy);
    for (const auto& entry : tenant_doc.at("prefixes").as_array()) {
      config.add_owned(id, parse_owned_entry(entry));
    }
  }
  return config;
}

Config Config::from_json_text(std::string_view text) {
  return from_json(json::parse(text));
}

json::Value Config::to_json() const {
  const bool v1 = tenants_.empty() || (tenants_.size() == 1 && tenants_.front().implicit);
  if (v1) {
    json::Array prefixes;
    for (const auto& owned : owned_) prefixes.push_back(owned_entry_to_json(owned));
    json::Object doc;
    doc["prefixes"] = json::Value(std::move(prefixes));
    doc["mitigation"] = mitigation_to_json(mitigation());
    return json::Value(std::move(doc));
  }
  json::Array tenants;
  for (const auto& tenant : tenants_) {
    json::Object tenant_doc;
    tenant_doc["name"] = json::Value(tenant.name);
    json::Array prefixes;
    for (const auto& owned : owned_) {
      if (owned.tenant == tenant.id) prefixes.push_back(owned_entry_to_json(owned));
    }
    tenant_doc["prefixes"] = json::Value(std::move(prefixes));
    tenant_doc["mitigation"] = mitigation_to_json(tenant.mitigation);
    tenants.emplace_back(std::move(tenant_doc));
  }
  json::Object doc;
  doc["schema_version"] = json::Value(static_cast<std::int64_t>(2));
  doc["tenants"] = json::Value(std::move(tenants));
  return json::Value(std::move(doc));
}

}  // namespace artemis::core
