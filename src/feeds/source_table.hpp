// SourceTable: process-wide ids for monitor source names.
//
// Every Observation names the feed that produced it ("ris-live",
// "mrt:AS3356", ...). The hot path never needs the text: the hub counts
// per source, the journal encoder assigns per-segment ids, detection
// keeps per-source first-seen times. So an Observation carries a 4-byte
// SourceId, interned once where a feed is set up (or once per inline
// definition when a journal segment is decoded), and the name is looked
// up only where a person reads it: alert lines, per_source_counts(),
// Observation::to_string, journal footers.
//
// The table is append-only and never frees a name, so an id and the
// view name() returns stay valid for the life of the process. One mutex
// guards both calls; every caller is on a cold path (a new alert, a
// segment's first sight of a source, footer sealing), so it is never
// contended per observation.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace artemis::feeds {

/// Dense id of an interned source name. Id 0 is the empty name.
using SourceId = std::uint32_t;
inline constexpr SourceId kNoSource = 0;

class SourceTable {
 public:
  SourceTable();
  SourceTable(const SourceTable&) = delete;
  SourceTable& operator=(const SourceTable&) = delete;

  /// The table every Observation's SourceId refers to.
  static SourceTable& global();

  /// The id of `name`, assigning the next one on first sight. Allocates
  /// on first sight: call it where a feed is set up, not per observation.
  SourceId intern(std::string_view name);

  /// The name of an id this table handed out; the view never dangles.
  /// An id the table never issued is undefined behaviour.
  std::string_view name(SourceId id) const;

  /// Number of ids issued so far (the empty name included).
  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::deque<std::string> names_;  ///< index == id; push_back never moves one
  std::unordered_map<std::string_view, SourceId> ids_;  ///< views into names_
};

/// SourceTable::global().intern(name).
inline SourceId intern_source(std::string_view name) {
  return SourceTable::global().intern(name);
}

/// SourceTable::global().name(id).
inline std::string_view source_name(SourceId id) {
  return SourceTable::global().name(id);
}

}  // namespace artemis::feeds
