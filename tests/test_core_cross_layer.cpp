#include "src/core/cross_layer.hpp"

#include <gtest/gtest.h>

#include "src/core/paper.hpp"
#include "src/core/subsystem.hpp"

namespace xlf::core {
namespace {

struct Fixture {
  SubsystemConfig config = SubsystemConfig::defaults();
  nand::NandTiming timing{config.device.timing, config.device.array.ispp,
                          config.device.array.plan,
                          config.device.array.variability,
                          config.device.array.aging};
  CrossLayerFramework framework{config.controller, config.device.array.aging,
                                timing, config.hv};
};

TEST(OperatingPoint, NamedPointsMatchPaperDefinitions) {
  const OperatingPoint baseline = OperatingPoint::baseline();
  EXPECT_EQ(baseline.algorithm, nand::ProgramAlgorithm::kIsppSv);
  EXPECT_EQ(baseline.schedule, EccSchedule::kTrackSv);

  const OperatingPoint min_uber = OperatingPoint::min_uber();
  EXPECT_EQ(min_uber.algorithm, nand::ProgramAlgorithm::kIsppDv);
  EXPECT_EQ(min_uber.schedule, EccSchedule::kTrackSv);  // keeps SV sizing

  const OperatingPoint max_read = OperatingPoint::max_read();
  EXPECT_EQ(max_read.algorithm, nand::ProgramAlgorithm::kIsppDv);
  EXPECT_EQ(max_read.schedule, EccSchedule::kTrackDv);  // relaxes ECC

  EXPECT_NE(baseline.describe().find("ISPP-SV"), std::string::npos);
  EXPECT_NE(max_read.describe().find("DV schedule"), std::string::npos);
}

TEST(CrossLayer, ScheduledTMatchesPaperCorners) {
  Fixture fx;
  EXPECT_LE(fx.framework.scheduled_t(nand::ProgramAlgorithm::kIsppSv, 1.0), 4u);
  EXPECT_EQ(fx.framework.scheduled_t(nand::ProgramAlgorithm::kIsppSv, 1e6),
            paper::kTMaxSv);
  EXPECT_EQ(fx.framework.scheduled_t(nand::ProgramAlgorithm::kIsppDv, 1.0),
            paper::kTMin);
  EXPECT_NEAR(fx.framework.scheduled_t(nand::ProgramAlgorithm::kIsppDv, 1e6),
              paper::kTMaxDv, 2.0);
}

TEST(CrossLayer, MinUberKeepsSvScheduleAndReadLatency) {
  Fixture fx;
  for (double cycles : {1e2, 1e5, 1e6}) {
    const Metrics base =
        fx.framework.evaluate(OperatingPoint::baseline(), cycles);
    const Metrics min_uber =
        fx.framework.evaluate(OperatingPoint::min_uber(), cycles);
    EXPECT_EQ(base.t, min_uber.t);  // same ECC sizing
    // Identical decode path => identical read latency (Section 6.3.1:
    // "the UBER boost does not come at the cost of read throughput").
    EXPECT_NEAR(base.read_latency.value(), min_uber.read_latency.value(),
                1e-12);
    // But far better UBER.
    EXPECT_LT(min_uber.log10_uber, base.log10_uber - 2.0);
  }
}

TEST(CrossLayer, MaxReadGainMatchesFig11Shape) {
  Fixture fx;
  const Metrics base_bol =
      fx.framework.evaluate(OperatingPoint::baseline(), 1.0);
  const Metrics cross_bol =
      fx.framework.evaluate(OperatingPoint::max_read(), 1.0);
  EXPECT_NEAR(compare(cross_bol, base_bol).read_throughput_gain_pct, 0.0, 2.0);

  const Metrics base_eol =
      fx.framework.evaluate(OperatingPoint::baseline(), 1e6);
  const Metrics cross_eol =
      fx.framework.evaluate(OperatingPoint::max_read(), 1e6);
  const double gain = compare(cross_eol, base_eol).read_throughput_gain_pct;
  EXPECT_GT(gain, 24.0);  // paper: up to ~30%
  EXPECT_LT(gain, 34.0);
  // At unchanged UBER target.
  EXPECT_LE(cross_eol.uber,
            fx.config.controller.reliability.uber_target * 1.0001);
}

TEST(CrossLayer, WriteLossMatchesFig9Window) {
  Fixture fx;
  for (double cycles : {1e2, 1e6}) {
    const Metrics base =
        fx.framework.evaluate(OperatingPoint::baseline(), cycles);
    const Metrics cross =
        fx.framework.evaluate(OperatingPoint::max_read(), cycles);
    const double loss = compare(cross, base).write_throughput_loss_pct;
    EXPECT_GT(loss, 33.0) << cycles;
    EXPECT_LT(loss, 55.0) << cycles;
  }
}

TEST(CrossLayer, EccPowerRelaxationAtEol) {
  // Section 6.3.2: ~7 mW -> ~1 mW.
  Fixture fx;
  const Metrics base = fx.framework.evaluate(OperatingPoint::baseline(), 1e6);
  const Metrics cross = fx.framework.evaluate(OperatingPoint::max_read(), 1e6);
  EXPECT_NEAR(base.ecc_decode_power.milliwatts(), 7.0, 1.5);
  EXPECT_LT(cross.ecc_decode_power.milliwatts(), 2.0);
}

TEST(CrossLayer, PowerBudgetRoughlyConstantAtEol) {
  // The NAND DV penalty is offset by the ECC relaxation.
  Fixture fx;
  const Metrics base = fx.framework.evaluate(OperatingPoint::baseline(), 1e6);
  const Metrics cross = fx.framework.evaluate(OperatingPoint::max_read(), 1e6);
  const double delta_mw =
      (cross.total_power() - base.total_power()).milliwatts();
  EXPECT_LT(std::abs(delta_mw), 8.0);
}

TEST(CrossLayer, FixedPointEvaluation) {
  Fixture fx;
  const OperatingPoint custom =
      OperatingPoint::custom(nand::ProgramAlgorithm::kIsppDv, 20);
  const Metrics m = fx.framework.evaluate(custom, 1e4);
  EXPECT_EQ(m.t, 20u);
  EXPECT_THROW(fx.framework.evaluate(
                   OperatingPoint::custom(nand::ProgramAlgorithm::kIsppSv, 2),
                   1e4),
               std::invalid_argument);
}

TEST(CrossLayer, EnumerationCoversSpace) {
  Fixture fx;
  const auto space = fx.framework.enumerate(1e5);
  EXPECT_EQ(space.size(), 2u * (65u - 3u + 1u));
}

TEST(CrossLayer, ParetoFrontIsNonDominated) {
  Fixture fx;
  const auto space = fx.framework.enumerate(1e6);
  const auto front = CrossLayerFramework::pareto_front(space);
  EXPECT_GT(front.size(), 0u);
  EXPECT_LT(front.size(), space.size());
  // No member may dominate another member.
  for (const Metrics& a : front) {
    for (const Metrics& b : front) {
      const bool dominates =
          a.read_throughput.value() >= b.read_throughput.value() &&
          a.write_throughput.value() >= b.write_throughput.value() &&
          a.log10_uber <= b.log10_uber &&
          a.total_power().value() <= b.total_power().value() &&
          (a.read_throughput.value() > b.read_throughput.value() ||
           a.write_throughput.value() > b.write_throughput.value() ||
           a.log10_uber < b.log10_uber ||
           a.total_power().value() < b.total_power().value());
      EXPECT_FALSE(dominates);
    }
  }
}

TEST(Metrics, CompareComputesDeltas) {
  Metrics a, b;
  a.read_throughput = BytesPerSecond::mib(20.0);
  b.read_throughput = BytesPerSecond::mib(25.0);
  a.write_throughput = BytesPerSecond::mib(10.0);
  b.write_throughput = BytesPerSecond::mib(6.0);
  a.log10_uber = -11.0;
  b.log10_uber = -15.0;
  const MetricsDelta delta = compare(b, a);
  EXPECT_NEAR(delta.read_throughput_gain_pct, 25.0, 1e-9);
  EXPECT_NEAR(delta.write_throughput_loss_pct, 40.0, 1e-9);
  EXPECT_NEAR(delta.uber_improvement_orders, 4.0, 1e-9);
}

}  // namespace
}  // namespace xlf::core
