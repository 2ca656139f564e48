#include "feeds/source_table.hpp"

namespace artemis::feeds {

SourceTable::SourceTable() { intern(""); }

SourceTable& SourceTable::global() {
  // Never destroyed: threads still draining at exit may name sources.
  static SourceTable* const table = new SourceTable();
  return *table;
}

SourceId SourceTable::intern(std::string_view name) {
  const std::scoped_lock lock(mutex_);
  if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
  const auto id = static_cast<SourceId>(names_.size());
  ids_.emplace(names_.emplace_back(name), id);
  return id;
}

std::string_view SourceTable::name(SourceId id) const {
  const std::scoped_lock lock(mutex_);
  return names_[id];
}

std::size_t SourceTable::size() const {
  const std::scoped_lock lock(mutex_);
  return names_.size();
}

}  // namespace artemis::feeds
