#include "src/sim/event_queue.hpp"

#include "src/util/expect.hpp"

namespace xlf::sim {

void EventQueue::schedule_at(Seconds when, Callback fn) {
  XLF_EXPECT(when >= now_);
  XLF_EXPECT(fn != nullptr);
  heap_.push(Event{when.value(), next_sequence_++, std::move(fn)});
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

}  // namespace xlf::sim
