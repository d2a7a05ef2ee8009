// The explore layer's load-bearing promise: a parallel run is
// bit-identical to the serial run — same cells, same Pareto flags,
// same merged Monte-Carlo statistics — for any thread count.
#include "src/explore/monte_carlo.hpp"
#include "src/explore/report.hpp"
#include "src/explore/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/util/stats.hpp"

namespace xlf::explore {
namespace {

// The smallest die a replica's FTL accepts at its default logical
// fraction: 8 blocks x 4 pages, the FTL sweep's default die.
core::SubsystemConfig small_subsystem() {
  core::SubsystemConfig config = core::SubsystemConfig::defaults();
  config.device.array.geometry.blocks = 8;
  config.device.array.geometry.pages_per_block = 4;
  return config;
}

sim::AccessPattern pattern(sim::Pattern kind, double read_fraction = 0.7) {
  sim::AccessPattern p;
  p.kind = kind;
  p.read_fraction = read_fraction;
  return p;
}

sim::AccessPattern stream_at(double mib_per_second) {
  sim::AccessPattern p = pattern(sim::Pattern::kStreaming);
  p.bitrate = BytesPerSecond::mib(mib_per_second);
  return p;
}

SweepSpec small_sweep() {
  SweepSpec spec;
  spec.framework = FrameworkSpec::from(core::SubsystemConfig::defaults());
  spec.ages = {1.0, 1e3, 1e5, 1e6};
  return spec;
}

void expect_identical(const core::Metrics& a, const core::Metrics& b) {
  EXPECT_EQ(a.pe_cycles, b.pe_cycles);
  EXPECT_EQ(a.algo, b.algo);
  EXPECT_EQ(a.t, b.t);
  EXPECT_EQ(a.rber, b.rber);
  EXPECT_EQ(a.uber, b.uber);
  EXPECT_EQ(a.log10_uber, b.log10_uber);
  EXPECT_EQ(a.read_latency, b.read_latency);
  EXPECT_EQ(a.write_latency, b.write_latency);
  EXPECT_EQ(a.read_throughput, b.read_throughput);
  EXPECT_EQ(a.write_throughput, b.write_throughput);
  EXPECT_EQ(a.nand_program_power, b.nand_program_power);
  EXPECT_EQ(a.ecc_decode_power, b.ecc_decode_power);
}

TEST(Sweep, ParallelIsBitIdenticalToSerial) {
  const SweepSpec spec = small_sweep();
  ThreadPool serial(1), parallel(4);
  const SweepResult a = sweep_space(spec, serial);
  const SweepResult b = sweep_space(spec, parallel);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  EXPECT_EQ(a.cells_per_age, b.cells_per_age);
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    expect_identical(a.cells[i].metrics, b.cells[i].metrics);
    EXPECT_EQ(a.cells[i].pareto, b.cells[i].pareto);
  }
  // Byte-identical reports follow from bit-identical cells.
  EXPECT_EQ(sweep_csv(a), sweep_csv(b));
  EXPECT_EQ(sweep_json(a), sweep_json(b));
}

TEST(Sweep, KeyFirstOrderIsAPermutationLedByEachKeyOnce) {
  const std::vector<double> ages = log_space(1.0, 1e6, 241);
  const std::vector<std::size_t> order = key_first_order(ages);
  ASSERT_EQ(order.size(), ages.size());
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);

  // 241 ages over six decades fall on 73 keys (12 per decade, both
  // ends included): the first 73 entries hit each key once.
  std::set<long> all_keys;
  for (double age : ages) all_keys.insert(nand::NandTiming::age_key(age));
  ASSERT_EQ(all_keys.size(), 73u);
  std::set<long> leading;
  for (std::size_t i = 0; i < all_keys.size(); ++i) {
    EXPECT_TRUE(leading.insert(nand::NandTiming::age_key(ages[order[i]])).second)
        << "entry " << i;
  }
  EXPECT_EQ(leading, all_keys);
  // Each part keeps ascending index order.
  EXPECT_TRUE(std::is_sorted(order.begin(), order.begin() + 73));
  EXPECT_TRUE(std::is_sorted(order.begin() + 73, order.end()));
}

TEST(Sweep, FullAgeGridIsByteIdenticalAcrossThreadCounts) {
  // The paper grid's 241 ages put several ages on every cache key, the
  // case the key-first task order exists for. A smaller cell sample
  // keeps the characterisations cheap; the order is what is tested.
  SweepSpec spec;
  spec.framework = FrameworkSpec::from(core::SubsystemConfig::defaults());
  spec.framework.timing.sample_cells = 512;
  spec.ages = log_space(1.0, 1e6, 241);
  ThreadPool one(1), two(2), four(4);
  const SweepResult reference = sweep_space(spec, one);
  const std::string csv = sweep_csv(reference);
  const std::string json = sweep_json(reference);
  for (ThreadPool* pool : {&two, &four}) {
    const SweepResult result = sweep_space(spec, *pool);
    EXPECT_EQ(sweep_csv(result), csv) << pool->thread_count() << " threads";
    EXPECT_EQ(sweep_json(result), json) << pool->thread_count() << " threads";
  }
}

TEST(Sweep, MatchesDirectFrameworkEnumeration) {
  const SweepSpec spec = small_sweep();
  ThreadPool pool(2);
  const SweepResult result = sweep_space(spec, pool);

  nand::NandTiming timing = spec.framework.make_timing();
  const core::CrossLayerFramework framework(
      spec.framework.controller, spec.framework.aging, timing,
      spec.framework.hv);
  for (std::size_t a = 0; a < spec.ages.size(); ++a) {
    const auto space = framework.enumerate(spec.ages[a]);
    ASSERT_EQ(space.size(), result.cells_per_age);
    for (std::size_t i = 0; i < space.size(); ++i) {
      expect_identical(result.cells[a * result.cells_per_age + i].metrics,
                       space[i]);
    }
  }
}

TEST(Sweep, ParetoFlagsMatchCoreFront) {
  const SweepSpec spec = small_sweep();
  ThreadPool pool(2);
  const SweepResult result = sweep_space(spec, pool);

  nand::NandTiming timing = spec.framework.make_timing();
  const core::CrossLayerFramework framework(
      spec.framework.controller, spec.framework.aging, timing,
      spec.framework.hv);
  for (std::size_t a = 0; a < spec.ages.size(); ++a) {
    const auto front =
        core::CrossLayerFramework::pareto_front(framework.enumerate(spec.ages[a]));
    std::size_t flagged = 0;
    for (std::size_t i = 0; i < result.cells_per_age; ++i) {
      if (result.cells[a * result.cells_per_age + i].pareto) ++flagged;
    }
    EXPECT_EQ(flagged, front.size());
  }
  // front() collects exactly the flagged cells.
  std::size_t total_flagged = 0;
  for (const SweepCell& cell : result.cells) total_flagged += cell.pareto;
  EXPECT_EQ(result.front().size(), total_flagged);
  EXPECT_GT(total_flagged, 0u);
}

// EXPECT_EQ with NaN==NaN allowed: empty latency sides report NaN
// extrema, and "both unobserved" is identical for determinism checks.
void expect_same_double(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return;
  EXPECT_EQ(a, b);
}

void expect_identical(const ValidationStats& a, const ValidationStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.uncorrectable, b.uncorrectable);
  EXPECT_EQ(a.data_mismatches, b.data_mismatches);
  EXPECT_EQ(a.qos_misses, b.qos_misses);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.read_latency.count(), b.read_latency.count());
  EXPECT_EQ(a.read_latency.mean(), b.read_latency.mean());
  EXPECT_EQ(a.read_latency.variance(), b.read_latency.variance());
  expect_same_double(a.read_latency.min(), b.read_latency.min());
  expect_same_double(a.read_latency.max(), b.read_latency.max());
  EXPECT_EQ(a.write_latency.count(), b.write_latency.count());
  EXPECT_EQ(a.write_latency.mean(), b.write_latency.mean());
  expect_same_double(a.write_latency.max(), b.write_latency.max());
}

MonteCarloSpec eol_spec(const core::OperatingPoint& point,
                        const sim::AccessPattern& workload,
                        std::size_t requests) {
  MonteCarloSpec spec;
  spec.subsystem = small_subsystem();
  spec.point = point;
  spec.pe_cycles = 1e6;
  spec.workload = workload;
  spec.requests_per_replica = requests;
  spec.replicas = 1;
  return spec;
}

TEST(MonteCarlo, ParallelIsBitIdenticalToSerial) {
  MonteCarloSpec spec;
  spec.subsystem = small_subsystem();
  spec.pe_cycles = 1e5;
  spec.workload = pattern(sim::Pattern::kMixed, 0.7);
  spec.requests_per_replica = 10;
  spec.replicas = 5;
  spec.seed = 99;

  ThreadPool serial(1), parallel(3);
  const MonteCarloResult a = run_monte_carlo(spec, serial);
  const MonteCarloResult b = run_monte_carlo(spec, parallel);
  EXPECT_EQ(a.replicas, b.replicas);
  expect_identical(a.merged, b.merged);
}

TEST(MonteCarlo, AccountsEveryRequestOfEveryReplica) {
  MonteCarloSpec spec;
  spec.subsystem = small_subsystem();
  spec.pe_cycles = 1.0;  // beginning of life
  spec.workload = pattern(sim::Pattern::kSequentialRead);
  spec.requests_per_replica = 8;
  spec.replicas = 3;

  ThreadPool pool(2);
  const MonteCarloResult result = run_monte_carlo(spec, pool);
  EXPECT_EQ(result.merged.reads + result.merged.writes,
            spec.replicas * spec.requests_per_replica);
  // A healthy young device under the baseline schedule: nothing
  // uncorrectable, nothing silently corrupted.
  EXPECT_EQ(result.merged.uncorrectable, 0u);
  EXPECT_EQ(result.merged.data_mismatches, 0u);
  EXPECT_EQ(result.uncorrectable_page_rate(), 0.0);
}

TEST(MonteCarlo, DifferentSeedsGiveDifferentRuns) {
  MonteCarloSpec spec;
  spec.subsystem = small_subsystem();
  spec.pe_cycles = 1e4;
  spec.workload = pattern(sim::Pattern::kMixed, 0.5);
  spec.requests_per_replica = 20;
  spec.replicas = 2;

  ThreadPool pool(2);
  spec.seed = 1;
  const MonteCarloResult a = run_monte_carlo(spec, pool);
  spec.seed = 2;
  const MonteCarloResult b = run_monte_carlo(spec, pool);
  // Mixed request streams derive from the seed, so the read/write
  // split (or at least the latency accumulation) must differ.
  EXPECT_TRUE(a.merged.reads != b.merged.reads ||
              a.merged.write_latency.mean() != b.merged.write_latency.mean() ||
              a.merged.read_latency.mean() != b.merged.read_latency.mean());
}

// The replica decodes at the t its point resolved, not at the t the
// active algorithm's RBER would suggest: at 1e6 P/E, MinUber (ISPP-DV
// on the SV schedule) holds t = 65 and MaxRead t = 16. The read
// service time shows it: the t = 65 decode takes about 50 us longer.
TEST(MonteCarlo, ReplicaHoldsTheOperatingPointsT) {
  ThreadPool pool(2);
  const sim::AccessPattern reads = pattern(sim::Pattern::kSequentialRead);
  const MonteCarloResult min_uber = run_monte_carlo(
      eol_spec(core::OperatingPoint::min_uber(), reads, 16), pool);
  const MonteCarloResult max_read = run_monte_carlo(
      eol_spec(core::OperatingPoint::max_read(), reads, 16), pool);
  EXPECT_EQ(min_uber.merged.uncorrectable, 0u);
  EXPECT_EQ(max_read.merged.uncorrectable, 0u);
  EXPECT_NEAR(min_uber.merged.read_latency.mean() * 1e6, 237.0, 5.0);
  EXPECT_NEAR(max_read.merged.read_latency.mean() * 1e6, 186.0, 5.0);
}

// A stream paced well below the device's service rate never stalls,
// and its simulated time is the stream's own clock.
TEST(MonteCarlo, PacedStreamTracksItsSchedule) {
  ThreadPool pool(1);
  const std::size_t count = 10;
  const MonteCarloResult result = run_monte_carlo(
      eol_spec(core::OperatingPoint::baseline(), stream_at(2.0), count),
      pool);
  EXPECT_EQ(result.merged.reads, count);
  EXPECT_EQ(result.merged.qos_misses, 0u);
  const double period = 4096.0 / BytesPerSecond::mib(2.0).value();
  EXPECT_GE(result.merged.elapsed.value(), count * period);
}

// Just above what the aged baseline serves (t = 65 decode), the
// stream misses deadlines; the MaxRead point's relaxed decoder keeps
// up with it.
TEST(MonteCarlo, OverloadedStreamMissesQosOnlyOnTheBaseline) {
  ThreadPool pool(1);
  const MonteCarloResult baseline = run_monte_carlo(
      eol_spec(core::OperatingPoint::baseline(), stream_at(18.0), 30), pool);
  const MonteCarloResult max_read = run_monte_carlo(
      eol_spec(core::OperatingPoint::max_read(), stream_at(18.0), 30), pool);
  EXPECT_GT(baseline.merged.qos_misses, 0u);
  EXPECT_EQ(max_read.merged.qos_misses, 0u);
}

TEST(Report, QosTablesCoverAllValidations) {
  MonteCarloSpec spec;
  spec.subsystem = small_subsystem();
  spec.pe_cycles = 1.0;
  spec.workload = pattern(sim::Pattern::kSequentialRead);
  spec.requests_per_replica = 4;
  spec.replicas = 2;
  ThreadPool pool(1);
  const MonteCarloResult mc = run_monte_carlo(spec, pool);

  const std::vector<WorkloadValidation> rows{
      {"sequential-read", 1.0, mc}, {"sequential-read-bis", 1.0, mc}};
  const std::string csv = qos_csv(rows);
  // Header plus one line per validation.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("sequential-read-bis,"), std::string::npos);
  const std::string json = qos_json(rows);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"workload\":\"sequential-read\""), std::string::npos);
}

}  // namespace
}  // namespace xlf::explore
