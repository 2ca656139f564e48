#include "feeds/looking_glass.hpp"

namespace artemis::feeds {

LookingGlass::LookingGlass(sim::Network& network, LookingGlassParams params, Rng rng)
    : network_(network), params_(params), rng_(rng) {}

void LookingGlass::query(const net::Prefix& prefix, QueryCallback callback) {
  auto& sim = network_.simulator();
  const SimDuration latency =
      rng_.uniform_duration(params_.min_query_latency, params_.max_query_latency);
  const bgp::Asn lg_asn = params_.asn;
  // Capture what the router knows *now*... no: a real LG runs the command
  // when the request arrives. Sample the router state at delivery time by
  // deferring the read into the scheduled event (the latency models both
  // request and response halves; reading midway is indistinguishable at
  // the fidelity the experiments need).
  sim.after(latency, [this, prefix, lg_asn, callback = std::move(callback)] {
    ++queries_served_;
    std::vector<Observation> results;
    const auto& speaker = network_.speaker(lg_asn);
    const SimTime now = network_.simulator().now();

    const SourceId source = intern_source("lg-as" + std::to_string(lg_asn));
    auto emit = [&](const bgp::Route& route) {
      Observation obs;
      obs.type = ObservationType::kRouteState;
      obs.source = source;
      obs.vantage = lg_asn;
      obs.prefix = route.prefix;
      obs.attrs = route.attrs;
      if (route.learned_from != bgp::kNoAsn) {
        obs.attrs.as_path = route.attrs.as_path.prepended(lg_asn);
      }
      obs.event_time = now;
      obs.delivered_at = now;  // PeriscopeClient re-stamps delivery
      results.push_back(std::move(obs));
    };

    // Longest match for the prefix base address...
    if (const auto route = speaker.forwarding_route(prefix.address())) emit(*route);
    // ...plus any more-specifics the router carries (a hijacker's
    // de-facto sub-prefix announcement shows up here).
    speaker.rib().visit_covered(prefix, [&](const bgp::Route& route) { emit(route); });
    // Deduplicate: the LPM hit may also appear in the covered scan.
    std::vector<Observation> unique;
    for (auto& obs : results) {
      bool seen = false;
      for (const auto& u : unique) {
        if (u.prefix == obs.prefix && u.attrs == obs.attrs) {
          seen = true;
          break;
        }
      }
      if (!seen) unique.push_back(std::move(obs));
    }
    callback(std::move(unique));
  });
}

PeriscopeClient::PeriscopeClient(sim::Network& network,
                                 std::vector<LookingGlassParams> glasses,
                                 PeriscopeParams params, Rng rng)
    : network_(network),
      params_(std::move(params)),
      source_(intern_source(params_.name)),
      rng_(rng) {
  for (const auto& glass_params : glasses) {
    glasses_.push_back(std::make_unique<LookingGlass>(
        network_, glass_params,
        rng_.fork("lg-" + std::to_string(glass_params.asn))));
    // Staggered phases spread API load and — more importantly — make the
    // *earliest* LG answer after an event arrive well before poll_interval
    // on average (the min-of-sources effect, E5).
    poll_phase_.push_back(
        rng_.uniform_duration(SimDuration::zero(), params_.poll_interval));
  }
  for (std::size_t i = 0; i < glasses_.size(); ++i) schedule_poll(i);
}

void PeriscopeClient::monitor_prefix(const net::Prefix& prefix) {
  monitored_.push_back(prefix);
}

void PeriscopeClient::subscribe_batch(ObservationBatchHandler handler) {
  fanout_.add_batch(std::move(handler));
}

bool PeriscopeClient::consume_budget() {
  if (params_.max_queries_per_interval == 0) return true;
  const SimTime now = network_.simulator().now();
  if (now - budget_window_start_ >= params_.poll_interval) {
    budget_window_start_ = now;
    budget_used_ = 0;
  }
  if (budget_used_ >= params_.max_queries_per_interval) {
    ++queries_rate_limited_;
    return false;
  }
  ++budget_used_;
  return true;
}

void PeriscopeClient::schedule_poll(std::size_t glass_index) {
  auto& sim = network_.simulator();
  // Next tick of this LG's polling clock.
  const std::int64_t period = params_.poll_interval.as_micros();
  const std::int64_t phase = poll_phase_[glass_index].as_micros();
  const std::int64_t now_us = sim.now().as_micros();
  std::int64_t next = phase;
  if (now_us >= phase) {
    const std::int64_t k = (now_us - phase) / period + 1;
    next = phase + k * period;
  }
  sim.at(SimTime::at_micros(next), [this, glass_index] {
    poll(glass_index);
    schedule_poll(glass_index);
  });
}

void PeriscopeClient::poll(std::size_t glass_index) {
  for (const auto& prefix : monitored_) {
    if (!consume_budget()) continue;
    ++queries_issued_;
    glasses_[glass_index]->query(prefix, [this](std::vector<Observation> results) {
      // Restamp in place (the answer is owned, not copied) and emit the
      // whole answer as one batch.
      const SimTime now = network_.simulator().now();
      for (auto& obs : results) {
        obs.source = source_;
        obs.delivered_at = now;
      }
      fanout_.emit(results);
    });
  }
}

}  // namespace artemis::feeds
