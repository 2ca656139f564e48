// The discrete-event simulation core.
//
// An event loop over simulated time, run on one thread. Events scheduled for
// the same instant run in scheduling order (a monotonic sequence number
// breaks ties), which keeps runs deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/time.hpp"

namespace artemis::sim {

class Simulator {
 public:
  using EventFn = std::function<void()>;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now, else it runs "now").
  void at(SimTime t, EventFn fn);

  /// Schedules `fn` after `d` of simulated time.
  void after(SimDuration d, EventFn fn) { at(now_ + d, std::move(fn)); }

  /// Runs the next event; returns false if the queue is empty.
  bool step();

  /// Runs every event with time <= `t`, then advances the clock to `t`.
  /// Returns the number of events processed.
  std::size_t run_until(SimTime t);

  /// Runs until the queue drains. Throws std::runtime_error if more than
  /// `max_events` fire (guards against livelock bugs in protocols).
  std::size_t run_all(std::size_t max_events = 50'000'000);

  bool idle() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

  /// Time of the earliest scheduled event; SimTime::never() when idle.
  SimTime next_event_time() const;

  std::uint64_t events_processed() const { return processed_; }

 private:
  struct Scheduled {
    SimTime when;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Scheduled& a, const Scheduled& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  SimTime now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::priority_queue<Scheduled, std::vector<Scheduled>, Later> queue_;
};

}  // namespace artemis::sim
