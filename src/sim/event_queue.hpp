// Minimal discrete-event core for the SSD simulator: a time-ordered
// queue of callbacks with a monotonic clock. Events at equal
// timestamps fire in scheduling order (stable sequence numbers),
// which keeps completion chains deterministic. The driver owns the
// loop: it steps the queue one event at a time and streams arrivals
// in from outside the heap (advance_to).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/util/units.hpp"

namespace xlf::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  Seconds now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  // Timestamp of the earliest pending event (the queue must not be
  // empty).
  Seconds next_time() const;
  // Move the clock forward to `when` (>= now) without running
  // anything: a driver that feeds events from outside the heap (e.g.
  // a stream of arrivals) stamps them this way.
  void advance_to(Seconds when);

  // Schedule `fn` at absolute time `when` (>= now).
  void schedule_at(Seconds when, Callback fn);

  // Drop every pending event without running it — the power-loss
  // path: a killed simulation must not fire callbacks scheduled by
  // the pre-crash timeline. The clock stays where it stopped.
  void clear() { heap_ = {}; }

  // Run the next event; returns false when the queue is empty.
  bool step();
  // Runaway guard: the most events one driver loop may execute.
  static constexpr std::size_t kRunLimit = 100000000;

 private:
  struct Event {
    double when;
    std::uint64_t sequence;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  Seconds now_{0.0};
  std::uint64_t next_sequence_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

}  // namespace xlf::sim
