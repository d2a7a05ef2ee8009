// FTL sweep determinism: the (topology x queue depth x GC policy)
// grid produces byte-identical CSV/JSON whatever the thread count —
// the same contract the configuration-space sweep ships under.
#include "src/explore/ftl_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/explore/report.hpp"
#include "tests/digest.hpp"

namespace xlf::explore {
namespace {

FtlSweepSpec small_spec() {
  FtlSweepSpec spec;
  spec.base.die.device.array.geometry.blocks = 8;
  spec.base.die.device.array.geometry.pages_per_block = 4;
  spec.base.initial_pe_cycles = 1e4;
  spec.base.ftl.pe_cycles_per_erase = 3e4;
  spec.topologies = {{1, 1}, {2, 1}};
  spec.queue_depths = {2};
  spec.gc_policies = {"greedy", "cost-benefit"};
  spec.requests = 40;
  spec.seed = 31337;
  return spec;
}

TEST(FtlSweep, ParallelIsByteIdenticalToSerial) {
  const FtlSweepSpec spec = small_spec();
  ThreadPool serial(1), parallel(4);
  const FtlSweepResult a = ftl_sweep(spec, serial);
  const FtlSweepResult b = ftl_sweep(spec, parallel);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  EXPECT_EQ(ftl_csv(a), ftl_csv(b));
  EXPECT_EQ(ftl_json(a), ftl_json(b));
}

TEST(FtlSweep, CoversTheFullGridInOrder) {
  const FtlSweepSpec spec = small_spec();
  ThreadPool pool(2);
  const FtlSweepResult result = ftl_sweep(spec, pool);
  ASSERT_EQ(result.rows.size(), 4u);
  // Topology-major, then queue depth, then policy.
  EXPECT_EQ(result.rows[0].channels, 1u);
  EXPECT_EQ(result.rows[0].gc_policy, "greedy");
  EXPECT_EQ(result.rows[1].channels, 1u);
  EXPECT_EQ(result.rows[1].gc_policy, "cost-benefit");
  EXPECT_EQ(result.rows[2].channels, 2u);
  EXPECT_EQ(result.rows[3].channels, 2u);
  for (const FtlSweepRow& row : result.rows) {
    EXPECT_EQ(row.queue_depth, 2u);
    EXPECT_GT(row.stats.writes, 0u);
    EXPECT_EQ(row.stats.data_mismatches, 0u);
    // Every combo saw GC (prepopulation + overwrites on small dies).
    EXPECT_GT(row.stats.write_amplification, 0.0);
  }
  // The report carries one line per combo plus the header.
  const std::string csv = ftl_csv(result);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 5);
}


// Bit-true stats pin: one 2x1-die, 16-block combo at three seeds, every
// SsdSimStats field hashed. No report column carries corrected_bits,
// so the CSV/JSON byte checks cannot see the cell noise drift; this
// digest can. Captured from the build whose erase sampled every cell
// eagerly.
FtlSweepRow bittrue_row(std::uint64_t seed) {
  FtlSweepSpec spec;
  spec.base.die.device.array.geometry.blocks = 16;
  spec.base.die.device.array.geometry.pages_per_block = 4;
  spec.base.initial_pe_cycles = 1e4;
  spec.base.ftl.pe_cycles_per_erase = 3e4;
  spec.topologies = {{2, 1}};
  spec.queue_depths = {4};
  spec.gc_policies = {"greedy"};
  spec.requests = 160;
  spec.seed = seed;
  ThreadPool pool(1);
  const FtlSweepResult result = ftl_sweep(spec, pool);
  EXPECT_EQ(result.rows.size(), 1u);
  return result.rows.front();
}

TEST(FtlSweep, BitTrueStatsArePinned) {
  const std::uint64_t expected[] = {
      0x8EF3531676B59A45ull, 0x7D8A1B7C5BD46691ull, 0x02853755B0BF0BC2ull};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const FtlSweepRow row = bittrue_row(seed);
    EXPECT_GT(row.stats.erases, 0u);
    EXPECT_GT(row.stats.corrected_bits, 0u);
    EXPECT_EQ(row.stats.data_mismatches, 0u);
    test::Fnv1a digest;
    digest.add(row.stats);
    EXPECT_EQ(digest.value(), expected[seed - 1]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace xlf::explore
