// The multi-queue host interface: submission/completion bookkeeping,
// flush barriers, and the built-in arbitration policies' pick order
// (round-robin rotation, weighted deficit sharing, deterministic
// tie-breaks).
#include "src/host/queues.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "src/policy/policy.hpp"

namespace xlf::host {
namespace {

Command make(CmdType type, std::uint16_t queue, ftl::Lpa lba = 0) {
  Command command;
  command.type = type;
  command.queue = queue;
  command.lba = lba;
  return command;
}

TEST(HostInterface, SubmitPopRoundTripKeepsFifoOrderPerQueue) {
  HostConfig config;
  config.queues = 2;
  HostInterface host(config);
  EXPECT_FALSE(host.pending());
  host.submit(make(CmdType::kWrite, 0, 10), Seconds{1.0});
  host.submit(make(CmdType::kRead, 1, 12), Seconds{3.0});
  EXPECT_TRUE(host.pending());
  EXPECT_TRUE(host.holds(0));
  EXPECT_TRUE(host.holds(1));

  const auto [first, arrival] = host.pop(0);
  EXPECT_EQ(first.lba, 10u);
  EXPECT_DOUBLE_EQ(arrival.value(), 1.0);
  EXPECT_FALSE(host.holds(0));
  host.submit(make(CmdType::kWrite, 0, 11), Seconds{2.0});
  const auto [second, arrival2] = host.pop(0);
  EXPECT_EQ(second.lba, 11u);
  EXPECT_DOUBLE_EQ(arrival2.value(), 2.0);
  EXPECT_FALSE(host.holds(0));
  EXPECT_TRUE(host.pending());  // queue 1 still holds its head
}

// A queue holds its head alone: a second submission before the pop is
// a caller error that leaves the head in place.
TEST(HostInterface, EachQueueHoldsOneHead) {
  HostConfig config;
  config.queues = 2;
  HostInterface host(config);
  host.submit(make(CmdType::kWrite, 1, 20), Seconds{1.0});
  EXPECT_THROW(host.submit(make(CmdType::kWrite, 1, 21), Seconds{2.0}),
               std::invalid_argument);
  EXPECT_FALSE(host.holds(0));
  EXPECT_NO_THROW(host.submit(make(CmdType::kRead, 0, 22), Seconds{2.0}));
  const auto [head, arrival] = host.pop(1);
  EXPECT_EQ(head.lba, 20u);
  EXPECT_DOUBLE_EQ(arrival.value(), 1.0);
  EXPECT_NO_THROW(host.submit(make(CmdType::kWrite, 1, 21), Seconds{2.0}));
}

TEST(HostInterface, RejectsBadShapes) {
  const auto build = [](std::size_t queues, std::vector<double> weights) {
    HostConfig config;
    config.queues = queues;
    config.queue_weights = std::move(weights);
    HostInterface host(config);
  };
  EXPECT_THROW(build(0, {}), std::logic_error);
  // More weights than queues.
  EXPECT_THROW(build(1, {1.0, 2.0}), std::logic_error);
  // Non-positive weight.
  EXPECT_THROW(build(1, {0.0}), std::logic_error);
}

// Command::queue is 16-bit: 65,536 queues address every id, one more
// would wrap onto queue 0.
TEST(HostInterface, QueueCountIsBoundedBySixteenBitIds) {
  HostConfig config;
  config.queues = kMaxQueues;
  EXPECT_EQ(HostInterface(config).queues(), 65536u);
  config.queues = kMaxQueues + 1;
  try {
    HostInterface host(config);
    FAIL() << "65,537 queues must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "queues=65537 exceeds the limit of 65536 (queue ids are "
                 "16-bit)");
  }
}

TEST(HostInterface, ShortWeightListPadsWithOnes) {
  HostConfig config;
  config.queues = 3;
  config.queue_weights = {4.0};
  HostInterface host(config);
  EXPECT_DOUBLE_EQ(host.weight(0), 4.0);
  EXPECT_DOUBLE_EQ(host.weight(1), 1.0);
  EXPECT_DOUBLE_EQ(host.weight(2), 1.0);
}

TEST(HostInterface, RoundRobinRotatesAcrossEligibleQueues) {
  HostConfig config;
  config.queues = 3;
  HostInterface host(config);
  // Two commands per queue: the second is submitted once the first
  // has been popped.
  std::vector<int> left(3, 1);
  for (std::uint16_t q = 0; q < 3; ++q) {
    host.submit(make(CmdType::kWrite, q), Seconds{0.0});
  }
  std::vector<std::uint32_t> order;
  for (int i = 0; i < 6; ++i) {
    const auto pick = host.arbitrate();
    ASSERT_TRUE(pick.has_value());
    order.push_back(*pick);
    host.pop(*pick);
    if (left[*pick]-- > 0) {
      host.submit(make(CmdType::kWrite, static_cast<std::uint16_t>(*pick)),
                  Seconds{0.0});
    }
  }
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2}));
  EXPECT_FALSE(host.arbitrate().has_value());
}

TEST(HostInterface, RoundRobinSkipsEmptyAndBlockedQueues) {
  HostConfig config;
  config.queues = 3;
  HostInterface host(config);
  host.submit(make(CmdType::kWrite, 1), Seconds{0.0});
  host.submit(make(CmdType::kWrite, 2), Seconds{0.0});
  host.block(1);
  const auto pick = host.arbitrate();
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 2u);  // 0 empty, 1 behind a flush barrier
  host.pop(*pick);
  EXPECT_FALSE(host.arbitrate().has_value());
  host.unblock(1);
  ASSERT_TRUE(host.arbitrate().has_value());
  EXPECT_EQ(*host.arbitrate(), 1u);
}

TEST(HostInterface, WeightedArbitrationIssuesInWeightProportion) {
  HostConfig config;
  config.queues = 2;
  config.arbitration = policy::Arbitration::kWeighted;
  config.queue_weights = {3.0, 1.0};
  HostInterface host(config);
  host.submit(make(CmdType::kWrite, 0), Seconds{0.0});
  host.submit(make(CmdType::kWrite, 1), Seconds{0.0});
  std::size_t issued_heavy = 0;
  // 8 issues with both queues kept backlogged (each pop is followed
  // by the queue's next submission): deficit sharing gives the
  // weight-3 queue 3 of every 4 slots (6 of 8).
  for (int i = 0; i < 8; ++i) {
    const auto pick = host.arbitrate();
    ASSERT_TRUE(pick.has_value());
    if (*pick == 0) ++issued_heavy;
    host.pop(*pick);
    host.submit(make(CmdType::kWrite, static_cast<std::uint16_t>(*pick)),
                Seconds{0.0});
  }
  EXPECT_EQ(issued_heavy, 6u);
}

TEST(HostInterface, WeightedTieBreaksTowardLowestId) {
  HostConfig config;
  config.queues = 3;
  config.arbitration = policy::Arbitration::kWeighted;
  HostInterface host(config);
  for (std::uint16_t q = 0; q < 3; ++q) {
    host.submit(make(CmdType::kWrite, q), Seconds{0.0});
  }
  // Equal weights, equal (zero) issue counts: lowest id goes first.
  const auto pick = host.arbitrate();
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, 0u);
}

TEST(HostInterface, CompletionsFeedPerQueueStats) {
  HostConfig config;
  config.queues = 2;
  HostInterface host(config);

  Completion write;
  write.type = CmdType::kWrite;
  write.queue = 1;
  write.submitted = Seconds{1.0};
  write.completed = Seconds{3.0};
  host.complete(write);

  Completion trim;
  trim.type = CmdType::kTrim;
  trim.queue = 1;
  host.complete(trim);

  EXPECT_EQ(host.stats(1).writes, 1u);
  EXPECT_EQ(host.stats(1).trims, 1u);
  EXPECT_EQ(host.stats(1).commands(), 2u);
  EXPECT_DOUBLE_EQ(host.stats(1).write_latency.mean(), 2.0);
  EXPECT_EQ(host.stats(0).commands(), 0u);
}

TEST(HostInterface, FlushHorizonTracksLatestScheduledCompletion) {
  HostConfig config;
  HostInterface host(config);
  EXPECT_DOUBLE_EQ(host.last_scheduled_completion(0).value(), 0.0);
  host.note_scheduled_completion(0, Seconds{5.0});
  host.note_scheduled_completion(0, Seconds{2.0});  // older: no regress
  EXPECT_DOUBLE_EQ(host.last_scheduled_completion(0).value(), 5.0);
}

TEST(ArbitrationNames, ListsBuiltins) {
  const auto& names = policy::Names<policy::Arbitration>::table;
  EXPECT_NE(std::find(names.begin(), names.end(), "round-robin"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "weighted"), names.end());
}

}  // namespace
}  // namespace xlf::host
