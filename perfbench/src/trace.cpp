#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::uint32_t Tracer::name(std::string_view text) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == text) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(text);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoSpan) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;  // end of the covered prefix so far
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, s.end_ns);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

namespace {

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Root ancestor of every span (parents precede children).
std::vector<std::uint32_t> roots_of(const std::vector<Span>& spans) {
  std::vector<std::uint32_t> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    root[i] = spans[i].parent == kNoSpan ? static_cast<std::uint32_t>(i)
                                         : root[spans[i].parent];
  }
  return root;
}

}  // namespace

double TraceSummary::share(const std::string& phase, const std::string& layer) const {
  const auto wall = phase_wall_s.find(phase);
  const auto layers = layer_self_s.find(phase);
  if (wall == phase_wall_s.end() || layers == layer_self_s.end() || wall->second <= 0) {
    return 0.0;
  }
  const auto it = layers->second.find(layer);
  return it == layers->second.end() ? 0.0 : it->second / wall->second;
}

double TraceSummary::coverage(const std::string& phase) const {
  const auto wall = phase_wall_s.find(phase);
  const auto layers = layer_self_s.find(phase);
  if (wall == phase_wall_s.end() || layers == layer_self_s.end() || wall->second <= 0) {
    return 0.0;
  }
  double covered = 0.0;
  for (const auto& [layer, seconds] : layers->second) {
    if (layer != "bench") covered += seconds;
  }
  return covered / wall->second;
}

TraceSummary summarize(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  const auto& names = tracer.names();
  const auto self = self_times(spans);
  const auto root = roots_of(spans);
  TraceSummary out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = names[spans[i].name];
    const std::string& phase = names[spans[root[i]].name];
    const double seconds = static_cast<double>(self[i]) / 1e9;
    out.name_self_s[name] += seconds;
    if (root[i] == i) {
      out.phase_wall_s[phase] +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
      out.layer_self_s[phase]["bench"] += seconds;
    } else {
      out.layer_self_s[phase][layer_of(name)] += seconds;
    }
  }
  return out;
}

bool write_spans(const Tracer& tracer, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto& spans = tracer.spans();
  const auto& names = tracer.names();
  const auto root = roots_of(spans);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f, "id\tparent\tbatch\tname\tphase\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%zu\t%lld\t%lld\t%s\t%s\t%lld\t%lld\n", i,
                 s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent),
                 s.batch == kNoSpan ? -1LL : static_cast<long long>(s.batch),
                 names[s.name].c_str(), names[spans[root[i]].name].c_str(),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
