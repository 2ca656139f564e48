#include "feeds/observation.hpp"

namespace artemis::feeds {

std::string_view to_string(ObservationType t) {
  switch (t) {
    case ObservationType::kAnnouncement: return "announce";
    case ObservationType::kWithdrawal: return "withdraw";
    case ObservationType::kRouteState: return "state";
  }
  return "?";
}

std::string Observation::to_string() const {
  std::string out(feeds::to_string(type));
  out += ' ';
  out += prefix.to_string();
  out += " via AS";
  out += std::to_string(vantage);
  if (type != ObservationType::kWithdrawal) {
    out += " path [";
    out += attrs.as_path.to_string();
    out += ']';
  }
  out += " src=";
  out += source_name(source);
  out += " lag=";
  out += feed_lag().to_string();
  return out;
}

}  // namespace artemis::feeds
