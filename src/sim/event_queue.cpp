#include "src/sim/event_queue.hpp"

#include "src/util/expect.hpp"

namespace xlf::sim {

void EventQueue::schedule_at(Seconds when, Callback fn) {
  XLF_EXPECT(when >= now_);
  XLF_EXPECT(fn != nullptr);
  heap_.push(Event{when.value(), next_sequence_++, std::move(fn)});
}

void EventQueue::schedule_in(Seconds delay, Callback fn) {
  XLF_EXPECT(delay.value() >= 0.0);
  schedule_at(now_ + delay, std::move(fn));
}

Seconds EventQueue::next_time() const {
  XLF_EXPECT(!heap_.empty());
  return Seconds{heap_.top().when};
}

void EventQueue::advance_to(Seconds when) {
  XLF_EXPECT(when >= now_);
  now_ = when;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // Copy out before pop: the callback may schedule new events.
  Event event = heap_.top();
  heap_.pop();
  now_ = Seconds{event.when};
  event.fn();
  return true;
}

std::size_t EventQueue::run(std::size_t limit) {
  std::size_t executed = 0;
  while (executed < limit && step()) ++executed;
  // Runaway only if events remain after the budget; draining exactly
  // `limit` events is a legitimate completion.
  XLF_ENSURE(heap_.empty() && "event limit hit: runaway simulation");
  return executed;
}

std::size_t EventQueue::run_until(Seconds until) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.top().when <= until.value()) {
    step();
    ++executed;
  }
  if (now_ < until) now_ = until;
  return executed;
}

}  // namespace xlf::sim
