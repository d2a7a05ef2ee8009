#include <gtest/gtest.h>

#include "src/sim/event_queue.hpp"
#include "src/sim/workload.hpp"

namespace xlf::sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(Seconds::micros(30.0), [&] { order.push_back(3); });
  queue.schedule_at(Seconds::micros(10.0), [&] { order.push_back(1); });
  queue.schedule_at(Seconds::micros(20.0), [&] { order.push_back(2); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_NEAR(queue.now().micros(), 30.0, 1e-9);
}

TEST(EventQueue, EqualTimesKeepSchedulingOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule_at(Seconds::micros(5.0), [&order, i] { order.push_back(i); });
  }
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CollidingTimestampsInterleavedStayDeterministic) {
  // Collisions at several timestamps, scheduled out of order and also
  // from inside callbacks: pops must follow (time, insertion order) —
  // the determinism contract the parallel-equals-serial criterion of
  // the explore engine rests on.
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(Seconds::micros(20.0), [&] { order.push_back(4); });
  queue.schedule_at(Seconds::micros(10.0), [&] {
    order.push_back(1);
    // Scheduled mid-run at an already-populated timestamp: runs after
    // the earlier entries at 20 us.
    queue.schedule_at(Seconds::micros(20.0), [&] { order.push_back(6); });
  });
  queue.schedule_at(Seconds::micros(20.0), [&] { order.push_back(5); });
  queue.schedule_at(Seconds::micros(10.0), [&] { order.push_back(2); });
  queue.schedule_at(Seconds::micros(10.0), [&] { order.push_back(3); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, RunDrainingExactlyLimitEventsIsNotRunaway) {
  EventQueue queue;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    queue.schedule_at(Seconds::micros(static_cast<double>(i)), [&] { ++fired; });
  }
  // The budget equals the queue depth: a legitimate completion, not a
  // runaway simulation.
  EXPECT_EQ(queue.run(5), 5u);
  EXPECT_EQ(fired, 5);
}

TEST(EventQueue, RunFlagsRunawayWhenEventsRemain) {
  EventQueue queue;
  std::function<void()> forever = [&] {
    queue.schedule_in(Seconds::micros(1.0), forever);
  };
  queue.schedule_in(Seconds::micros(1.0), forever);
  EXPECT_THROW(queue.run(100), std::logic_error);
}

TEST(EventQueue, CallbacksMayScheduleMore) {
  EventQueue queue;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 4) queue.schedule_in(Seconds::micros(1.0), chain);
  };
  queue.schedule_in(Seconds::micros(1.0), chain);
  queue.run();
  EXPECT_EQ(fired, 4);
  EXPECT_NEAR(queue.now().micros(), 4.0, 1e-9);
}

TEST(EventQueue, RunUntilLeavesFutureEvents) {
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(Seconds::micros(10.0), [&] { ++fired; });
  queue.schedule_at(Seconds::micros(50.0), [&] { ++fired; });
  queue.run_until(Seconds::micros(20.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_NEAR(queue.now().micros(), 20.0, 1e-9);  // clock advanced
  queue.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue queue;
  queue.schedule_at(Seconds::micros(10.0), [] {});
  queue.run();
  EXPECT_THROW(queue.schedule_at(Seconds::micros(5.0), [] {}),
               std::invalid_argument);
  EXPECT_THROW(queue.schedule_in(Seconds::micros(-1.0), [] {}),
               std::invalid_argument);
}

TEST(EventQueue, NextTimeIsTheEarliestPendingEvent) {
  EventQueue queue;
  EXPECT_THROW(queue.next_time(), std::invalid_argument);
  queue.schedule_at(Seconds::micros(30.0), [] {});
  queue.schedule_at(Seconds::micros(10.0), [] {});
  queue.schedule_at(Seconds::micros(20.0), [] {});
  EXPECT_NEAR(queue.next_time().micros(), 10.0, 1e-9);
  EXPECT_NEAR(queue.now().micros(), 0.0, 1e-9);  // peeking runs nothing
  queue.step();
  EXPECT_NEAR(queue.next_time().micros(), 20.0, 1e-9);
}

TEST(EventQueue, AdvanceToMovesTheClockForwardOnly) {
  EventQueue queue;
  queue.schedule_at(Seconds::micros(50.0), [] {});
  queue.advance_to(Seconds::micros(20.0));
  EXPECT_NEAR(queue.now().micros(), 20.0, 1e-9);
  EXPECT_EQ(queue.pending(), 1u);  // nothing ran
  queue.advance_to(Seconds::micros(20.0));  // standing still is fine
  EXPECT_THROW(queue.advance_to(Seconds::micros(19.0)),
               std::invalid_argument);
  // Events may now only land at or after the advanced clock.
  EXPECT_THROW(queue.schedule_at(Seconds::micros(10.0), [] {}),
               std::invalid_argument);
  queue.run();
  EXPECT_NEAR(queue.now().micros(), 50.0, 1e-9);
}

nand::Geometry geometry() {
  nand::Geometry g;
  g.blocks = 2;
  g.pages_per_block = 4;
  return g;
}

TEST(Workload, SequentialReadCoversPagesInOrder) {
  Rng rng(1);
  const auto requests = SequentialReadWorkload().generate(geometry(), 10, rng);
  ASSERT_EQ(requests.size(), 10u);
  EXPECT_EQ(requests[0].addr, (nand::PageAddress{0, 0}));
  EXPECT_EQ(requests[3].addr, (nand::PageAddress{0, 3}));
  EXPECT_EQ(requests[4].addr, (nand::PageAddress{1, 0}));
  EXPECT_EQ(requests[8].addr, (nand::PageAddress{0, 0}));  // wraps
  for (const auto& r : requests) EXPECT_EQ(r.type, OpType::kRead);
}

TEST(Workload, RandomReadStaysInBounds) {
  Rng rng(2);
  const auto requests = RandomReadWorkload().generate(geometry(), 200, rng);
  for (const auto& r : requests) {
    EXPECT_LT(r.addr.block, 2u);
    EXPECT_LT(r.addr.page, 4u);
  }
}

TEST(Workload, MixedRespectsReadFraction) {
  Rng rng(3);
  const auto requests = MixedWorkload(0.75).generate(geometry(), 4000, rng);
  const auto reads = static_cast<double>(
      std::count_if(requests.begin(), requests.end(),
                    [](const Request& r) { return r.type == OpType::kRead; }));
  EXPECT_NEAR(reads / 4000.0, 0.75, 0.03);
  EXPECT_THROW(MixedWorkload(1.5), std::invalid_argument);
}

TEST(Workload, StreamingPacesRequests) {
  Rng rng(4);
  const MultimediaStreamingWorkload stream(BytesPerSecond::mib(8.0), 4096);
  const auto requests = stream.generate(geometry(), 10, rng);
  // 4096 B at 8 MiB/s: 488.28 us between pages.
  for (const auto& r : requests) {
    EXPECT_NEAR(r.gap.micros(), 4096.0 / (8.0 * 1024 * 1024) * 1e6, 1e-6);
    EXPECT_EQ(r.type, OpType::kRead);
  }
}

TEST(Workload, TraceReplayIsDeterministic) {
  const auto a = record_trace(RandomReadWorkload(), geometry(), 50, 42);
  const auto b = record_trace(RandomReadWorkload(), geometry(), 50, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].addr, b[i].addr);
    EXPECT_EQ(a[i].type, b[i].type);
  }
  const auto c = record_trace(RandomReadWorkload(), geometry(), 50, 43);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].addr == c[i].addr)) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(Workload, NamesAreStable) {
  EXPECT_EQ(SequentialReadWorkload().name(), "sequential-read");
  EXPECT_EQ(MixedWorkload(0.8).name(), "mixed-r80");
  EXPECT_EQ(MultimediaStreamingWorkload(BytesPerSecond::mib(1.0)).name(),
            "multimedia-streaming");
}

}  // namespace
}  // namespace xlf::sim
