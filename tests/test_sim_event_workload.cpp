#include <gtest/gtest.h>

#include <algorithm>

#include "src/sim/event_queue.hpp"
#include "src/sim/host_workload.hpp"

namespace xlf::sim {
namespace {

// Steps the queue until it is empty, as a driver loop does; returns
// the number of events run.
std::size_t drain(EventQueue& queue) {
  std::size_t executed = 0;
  while (queue.step()) ++executed;
  return executed;
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule_at(Seconds::micros(30.0), [&] { order.push_back(3); });
  queue.schedule_at(Seconds::micros(10.0), [&] { order.push_back(1); });
  queue.schedule_at(Seconds::micros(20.0), [&] { order.push_back(2); });
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_NEAR(queue.now().micros(), 30.0, 1e-9);
}

TEST(EventQueue, EqualTimesKeepSchedulingOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule_at(Seconds::micros(5.0), [&order, i] { order.push_back(i); });
  }
  drain(queue);
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
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, StepRunsOneEventAtATime) {
  EventQueue queue;
  int fired = 0;
  for (int i = 0; i < 5; ++i) {
    queue.schedule_at(Seconds::micros(static_cast<double>(i)), [&] { ++fired; });
  }
  EXPECT_TRUE(queue.step());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(drain(queue), 4u);
  EXPECT_EQ(fired, 5);
  // An empty queue reports false and leaves the clock alone.
  EXPECT_FALSE(queue.step());
  EXPECT_NEAR(queue.now().micros(), 4.0, 1e-9);
}

TEST(EventQueue, CallbacksMayScheduleMore) {
  EventQueue queue;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 4) {
      queue.schedule_at(queue.now() + Seconds::micros(1.0), chain);
    }
  };
  queue.schedule_at(Seconds::micros(1.0), chain);
  EXPECT_EQ(drain(queue), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_NEAR(queue.now().micros(), 4.0, 1e-9);
}

TEST(EventQueue, AdvanceBetweenEventsLeavesLaterOnesQueued) {
  // The driver's arrival step: run what is due, move the clock to an
  // arrival that lands before the next event, and keep that event.
  EventQueue queue;
  int fired = 0;
  queue.schedule_at(Seconds::micros(10.0), [&] { ++fired; });
  queue.schedule_at(Seconds::micros(50.0), [&] { ++fired; });
  EXPECT_TRUE(queue.step());
  queue.advance_to(Seconds::micros(20.0));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(queue.empty());
  EXPECT_NEAR(queue.next_time().micros(), 50.0, 1e-9);
  EXPECT_NEAR(queue.now().micros(), 20.0, 1e-9);
  drain(queue);
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue queue;
  queue.schedule_at(Seconds::micros(10.0), [] {});
  drain(queue);
  EXPECT_THROW(queue.schedule_at(Seconds::micros(5.0), [] {}),
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
  EXPECT_FALSE(queue.empty());  // nothing ran
  queue.advance_to(Seconds::micros(20.0));  // standing still is fine
  EXPECT_THROW(queue.advance_to(Seconds::micros(19.0)),
               std::invalid_argument);
  // Events may now only land at or after the advanced clock.
  EXPECT_THROW(queue.schedule_at(Seconds::micros(10.0), [] {}),
               std::invalid_argument);
  drain(queue);
  EXPECT_NEAR(queue.now().micros(), 50.0, 1e-9);
}

std::vector<host::Command> generate(Pattern kind, std::uint32_t pages,
                                    std::size_t count, Rng& rng) {
  AccessPattern pattern;
  pattern.kind = kind;
  return generate_pattern(pattern, pages, count, rng);
}

std::size_t reads_in(const std::vector<host::Command>& commands) {
  return static_cast<std::size_t>(
      std::count_if(commands.begin(), commands.end(), [](const auto& c) {
        return c.type == host::CmdType::kRead;
      }));
}

TEST(AccessPattern, EveryPatternEmitsCountSinglePageCommands) {
  for (Pattern kind : {Pattern::kSequentialRead, Pattern::kRandomRead,
                       Pattern::kWriteBurst, Pattern::kMixed,
                       Pattern::kStreaming}) {
    Rng rng(1);
    const auto commands = generate(kind, 8, 37, rng);
    ASSERT_EQ(commands.size(), 37u);
    for (const host::Command& c : commands) {
      EXPECT_LT(c.lba, 8u);
      EXPECT_EQ(c.length, 1u);
      EXPECT_EQ(c.queue, 0u);
    }
  }
}

TEST(AccessPattern, SequentialReadCoversPagesInOrder) {
  Rng rng(1);
  const auto commands = generate(Pattern::kSequentialRead, 8, 10, rng);
  EXPECT_EQ(commands[0].lba, 0u);
  EXPECT_EQ(commands[7].lba, 7u);
  EXPECT_EQ(commands[8].lba, 0u);  // wraps
  EXPECT_EQ(reads_in(commands), 10u);
  for (const auto& c : commands) EXPECT_EQ(c.gap.value(), 0.0);
}

TEST(AccessPattern, WriteBurstWritesPagesInOrder) {
  Rng rng(1);
  const auto commands = generate(Pattern::kWriteBurst, 8, 10, rng);
  EXPECT_EQ(reads_in(commands), 0u);
  EXPECT_EQ(commands[3].lba, 3u);
  EXPECT_EQ(commands[9].lba, 1u);  // wraps
}

TEST(AccessPattern, RandomReadStaysInBoundsAndFollowsTheSeed) {
  Rng a(42), b(42), c(43);
  const auto first = generate(Pattern::kRandomRead, 19, 200, a);
  EXPECT_EQ(reads_in(first), 200u);
  for (const auto& command : first) EXPECT_LT(command.lba, 19u);
  const auto same = generate(Pattern::kRandomRead, 19, 200, b);
  const auto other = generate(Pattern::kRandomRead, 19, 200, c);
  bool any_different = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].lba, same[i].lba);
    if (first[i].lba != other[i].lba) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(AccessPattern, MixedRespectsReadFractionAndWritesSequentially) {
  AccessPattern mixed;
  mixed.kind = Pattern::kMixed;
  mixed.read_fraction = 0.75;
  Rng rng(3);
  const auto commands = generate_pattern(mixed, 19, 4000, rng);
  EXPECT_NEAR(static_cast<double>(reads_in(commands)) / 4000.0, 0.75, 0.03);
  ftl::Lpa next_write = 0;
  for (const auto& c : commands) {
    if (c.type != host::CmdType::kWrite) continue;
    EXPECT_EQ(c.lba, next_write);
    next_write = (next_write + 1) % 19;
  }
  mixed.read_fraction = 1.5;
  EXPECT_THROW(generate_pattern(mixed, 19, 4, rng), std::invalid_argument);
}

TEST(AccessPattern, DrawsOneChancePerMixedCommandThenOneBelowPerRead) {
  // The Monte-Carlo read/write split rests on this draw order.
  AccessPattern mixed;
  mixed.kind = Pattern::kMixed;
  Rng generated(7), expected(7);
  generate_pattern(mixed, 19, 100, generated);
  for (int i = 0; i < 100; ++i) {
    if (expected.chance(0.7)) expected.below(19);
  }
  EXPECT_EQ(generated.next(), expected.next());

  Rng random_read(8), below_only(8);
  generate(Pattern::kRandomRead, 19, 50, random_read);
  for (int i = 0; i < 50; ++i) below_only.below(19);
  EXPECT_EQ(random_read.next(), below_only.next());
}

TEST(AccessPattern, StreamingPacesReads) {
  AccessPattern stream;
  stream.kind = Pattern::kStreaming;
  stream.bitrate = BytesPerSecond::mib(8.0);
  Rng rng(4);
  const auto commands = generate_pattern(stream, 8, 10, rng);
  // 4096 B at 8 MiB/s: 488.28 us between pages.
  for (const auto& c : commands) {
    EXPECT_NEAR(c.gap.micros(), 4096.0 / (8.0 * 1024 * 1024) * 1e6, 1e-6);
    EXPECT_EQ(c.type, host::CmdType::kRead);
  }
}

TEST(AccessPattern, LabelsAreStable) {
  AccessPattern pattern;
  EXPECT_EQ(pattern.label(), "sequential-read");
  pattern.kind = Pattern::kRandomRead;
  EXPECT_EQ(pattern.label(), "random-read");
  pattern.kind = Pattern::kWriteBurst;
  EXPECT_EQ(pattern.label(), "write-burst");
  pattern.kind = Pattern::kMixed;
  EXPECT_EQ(pattern.label(), "mixed-r70");
  pattern.read_fraction = 0.8;
  EXPECT_EQ(pattern.label(), "mixed-r80");
  pattern.kind = Pattern::kStreaming;
  EXPECT_EQ(pattern.label(), "multimedia-streaming");
}

}  // namespace
}  // namespace xlf::sim
