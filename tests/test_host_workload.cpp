// Host workload generator: fixed-seed determinism (byte-identical
// command streams), empirical hot/cold skew, the single-tenant stream
// pin, trim emission, and an all-hot LPA space.
#include "src/sim/host_workload.hpp"

#include <gtest/gtest.h>

#include <set>

#include "tests/digest.hpp"

namespace xlf::sim {
namespace {

bool same_command(const host::Command& a, const host::Command& b) {
  return a.type == b.type && a.lba == b.lba && a.length == b.length &&
         a.queue == b.queue && a.tenant == b.tenant &&
         a.gap.value() == b.gap.value();
}

TEST(HostWorkload, MultiTenantFixedSeedIsByteIdentical) {
  const MultiTenantWorkload workload(
      std::vector<TenantSpec>(3, TenantSpec{0.25, 0.85, 0.3, 0.1,
                                            Seconds{1e-4}}));
  Rng a(777), b(777);
  const auto first = workload.generate(64, 300, a);
  const auto second = workload.generate(64, 300, b);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(same_command(first[i], second[i]))
        << "stream diverges at command " << i;
  }
}

TEST(HostWorkload, HotColdSkewMatchesConfiguredFractions) {
  // 20% of the LPA space is hot and takes 80% of writes; with 10k
  // requests the empirical shares sit within a few percent.
  const double hot_fraction = 0.2;
  const double hot_write_fraction = 0.8;
  const double read_fraction = 0.3;
  const MultiTenantWorkload workload({TenantSpec{
      hot_fraction, hot_write_fraction, read_fraction}});
  const std::uint32_t logical_pages = 1000;
  Rng rng(42);
  const auto commands = workload.generate(logical_pages, 10000, rng);

  const std::uint32_t hot_pages =
      static_cast<std::uint32_t>(logical_pages * hot_fraction);
  std::size_t writes = 0, hot_writes = 0, reads = 0;
  for (const host::Command& command : commands) {
    if (command.type == host::CmdType::kRead) {
      ++reads;
      continue;
    }
    ++writes;
    if (command.lba < hot_pages) ++hot_writes;
  }
  const double observed_hot =
      static_cast<double>(hot_writes) / static_cast<double>(writes);
  EXPECT_NEAR(observed_hot, hot_write_fraction, 0.03);
  const double observed_reads =
      static_cast<double>(reads) / static_cast<double>(commands.size());
  EXPECT_NEAR(observed_reads, read_fraction, 0.03);
  // Hot writes actually stay inside the hot slice's address range.
  for (const host::Command& command : commands) {
    EXPECT_LT(command.lba, logical_pages);
  }
}

// The stream the single-queue sweep rows rest on: one tenant consumes
// the caller's Rng directly and emits its commands on queue 0. The
// digest covers every command field plus the Rng's next draw, so a
// changed draw count shows up too. Captured from a reference build.
TEST(HostWorkload, SingleTenantStreamIsPinned) {
  const MultiTenantWorkload workload(
      {TenantSpec{0.25, 0.85, 0.3, 0.0, Seconds{2e-4}}});
  Rng rng(0xFEED);
  const auto commands = workload.generate(64, 400, rng);
  ASSERT_EQ(commands.size(), 400u);
  test::Fnv1a digest;
  for (const host::Command& command : commands) {
    digest.u64(static_cast<std::uint64_t>(command.type));
    digest.u64(command.lba);
    digest.u64(command.length);
    digest.u64(command.queue);
    digest.u64(command.tenant);
    digest.f64(command.gap.value());
  }
  digest.u64(rng.next());
  EXPECT_EQ(digest.value(), 0xD6F0F145ECB3B5A1ull);
}

// The multi-tenant merge, pinned the same way: five tenants at three
// paces, two of them back-to-back (their commands all tie at t = 0),
// and a count that does not split evenly. Captured from the build that
// sorted every tenant's commands by (arrival, tenant, sequence).
TEST(HostWorkload, MultiTenantMergeIsPinned) {
  const MultiTenantWorkload workload({
      TenantSpec{0.25, 0.85, 0.3, 0.1, Seconds{1e-4}},
      TenantSpec{0.5, 0.7, 0.5, 0.0, Seconds{3e-5}},
      TenantSpec{0.1, 0.9, 0.2, 0.2, Seconds{0.0}},
      TenantSpec{1.0, 0.85, 0.6, 0.05, Seconds{2e-4}},
      TenantSpec{0.25, 0.85, 0.3, 0.0, Seconds{0.0}},
  });
  Rng rng(0xC0FFEE);
  const auto commands = workload.generate(96, 1003, rng);
  ASSERT_EQ(commands.size(), 1003u);
  test::Fnv1a digest;
  for (const host::Command& command : commands) {
    digest.u64(static_cast<std::uint64_t>(command.type));
    digest.u64(command.lba);
    digest.u64(command.length);
    digest.u64(command.queue);
    digest.u64(command.tenant);
    digest.f64(command.gap.value());
  }
  digest.u64(rng.next());
  EXPECT_EQ(digest.value(), 0x53BF83A3267F2267ull);
}

// hot_fraction 1.0 leaves no cold range: a write that draws "cold"
// must land in the (whole-space) hot slice instead of asking the Rng
// for a draw below 0.
TEST(HostWorkload, AllHotLpaSpaceGenerates) {
  const MultiTenantWorkload workload({TenantSpec{1.0, 0.85, 0.3}});
  const std::uint32_t logical_pages = 64;
  Rng rng(5);
  const auto commands = workload.generate(logical_pages, 2000, rng);
  ASSERT_EQ(commands.size(), 2000u);
  for (const host::Command& command : commands) {
    EXPECT_LT(command.lba, logical_pages);
  }
}

TEST(HostWorkload, MultiTenantSplitsRequestsAcrossQueues) {
  const MultiTenantWorkload workload(
      std::vector<TenantSpec>(4, TenantSpec{}));
  Rng rng(9);
  const auto commands = workload.generate(64, 203, rng);
  ASSERT_EQ(commands.size(), 203u);
  std::vector<std::size_t> per_queue(4, 0);
  double previous = 0.0;
  double arrival = 0.0;
  for (const host::Command& command : commands) {
    ASSERT_LT(command.queue, 4u);
    EXPECT_EQ(command.tenant, command.queue);
    ++per_queue[command.queue];
    // Merged stream is time-ordered: gaps never negative.
    EXPECT_GE(command.gap.value(), 0.0);
    arrival += command.gap.value();
    EXPECT_GE(arrival, previous);
    previous = arrival;
  }
  // 203 = 4*50 + 3: earlier tenants absorb the remainder.
  EXPECT_EQ(per_queue, (std::vector<std::size_t>{51, 51, 51, 50}));
}

// Tenant ids are 16-bit: 65,536 tenants stamp every id once (the
// last on queue 65,535); one more would wrap onto queue 0.
TEST(HostWorkload, TenantCountIsBoundedBySixteenBitIds) {
  const MultiTenantWorkload widest(
      std::vector<TenantSpec>(host::kMaxQueues, TenantSpec{}));
  Rng rng(11);
  const auto commands = widest.generate(64, host::kMaxQueues, rng);
  std::set<std::uint16_t> queues;
  for (const host::Command& command : commands) queues.insert(command.queue);
  EXPECT_EQ(queues.size(), 65536u);
  try {
    const MultiTenantWorkload wrapped(
        std::vector<TenantSpec>(host::kMaxQueues + 1, TenantSpec{}));
    FAIL() << "65,537 tenants must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "tenants=65537 exceeds the limit of 65536 (tenant ids are "
                 "16-bit)");
  }
}

TEST(HostWorkload, TrimFractionEmitsTrimsOfWrittenLpasOnly) {
  const TenantSpec tenant{0.25, 0.85, 0.2, 0.3, Seconds{0.0}};
  const MultiTenantWorkload workload(std::vector<TenantSpec>{tenant});
  Rng rng(31);
  const auto commands = workload.generate(64, 4000, rng);
  std::set<ftl::Lpa> ever_written;
  std::size_t trims = 0, non_reads = 0;
  for (const host::Command& command : commands) {
    switch (command.type) {
      case host::CmdType::kWrite:
        ever_written.insert(command.lba);
        ++non_reads;
        break;
      case host::CmdType::kTrim:
        // Trims only target LPAs the stream wrote earlier. (The
        // written list carries overwrite duplicates — deliberately,
        // to keep the trim-free stream's read-target skew — so
        // an LPA can occasionally be trimmed twice without a rewrite
        // in between; the FTL services that as a no-op.)
        EXPECT_EQ(ever_written.count(command.lba), 1u)
            << "trim of a never-written LPA";
        ++trims;
        ++non_reads;
        break;
      case host::CmdType::kRead:
        break;
      case host::CmdType::kFlush:
        FAIL() << "generator never emits flushes";
    }
  }
  // ~30% of non-read requests trim (the configured conditional).
  const double observed =
      static_cast<double>(trims) / static_cast<double>(non_reads);
  EXPECT_NEAR(observed, tenant.trim_fraction, 0.03);
}

}  // namespace
}  // namespace xlf::sim
