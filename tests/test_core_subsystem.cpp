#include "src/core/subsystem.hpp"

#include <gtest/gtest.h>

#include "src/util/rng.hpp"
#include "src/util/stats.hpp"

namespace xlf::core {
namespace {

SubsystemConfig small_config() {
  SubsystemConfig config = SubsystemConfig::defaults();
  config.device.array.geometry.blocks = 4;
  config.device.array.geometry.pages_per_block = 2;
  return config;
}

BitVec random_page(const SubsystemConfig& config, std::uint64_t seed) {
  Rng rng(seed);
  BitVec data(config.device.array.geometry.data_bits_per_page());
  for (std::size_t i = 0; i < data.size(); ++i) data.set(i, rng.chance(0.5));
  return data;
}

TEST(Subsystem, ConstructsOnBaseline) {
  MemorySubsystem subsystem(small_config());
  EXPECT_EQ(subsystem.active_point().name, "baseline");
  EXPECT_EQ(subsystem.controller().program_algorithm(),
            nand::ProgramAlgorithm::kIsppSv);
}

// The ECC envelope is stated once per die — the code family in
// controller.ecc_hw.code, the UBER target in controller.reliability —
// and every consumer reads it: the framework's t schedule (apply,
// block metrics) is the reliability manager's (every FTL program),
// the framework spans the family's t range, and the codec rejects t
// past t_max. Checked on the default envelope and on a moved one.
TEST(Subsystem, OneEccEnvelopeReachesEveryConsumer) {
  SubsystemConfig moved = small_config();
  moved.controller.ecc_hw.code.t_max = 40;
  moved.controller.reliability.uber_target = 1e-13;
  const struct {
    SubsystemConfig config;
    std::size_t space_size;  // {SV, DV} x [t_min, t_max]
  } cases[] = {{small_config(), 2 * (65 - 3 + 1)},
               {moved, 2 * (40 - 3 + 1)}};
  for (const auto& c : cases) {
    const unsigned t_max = c.config.controller.ecc_hw.code.t_max;
    SCOPED_TRACE(t_max);
    MemorySubsystem subsystem(c.config);
    controller::ReliabilityManager& manager =
        subsystem.controller().reliability();
    for (const auto algo :
         {nand::ProgramAlgorithm::kIsppSv, nand::ProgramAlgorithm::kIsppDv}) {
      for (const double age : log_space(1.0, 1e6, 13)) {
        EXPECT_EQ(subsystem.framework().scheduled_t(algo, age),
                  manager.select_t(algo, age))
            << to_string(algo) << " at " << age;
      }
    }
    // End-of-life ISPP-SV needs the whole family.
    EXPECT_EQ(manager.select_t(nand::ProgramAlgorithm::kIsppSv, 1e6), t_max);
    EXPECT_EQ(subsystem.framework().enumerate(1e3).size(), c.space_size);
    EXPECT_THROW(subsystem.controller().set_correction_capability(t_max + 1),
                 std::invalid_argument);
  }
}

TEST(Subsystem, ApplyConfiguresBothLayersAtomically) {
  MemorySubsystem subsystem(small_config());
  subsystem.device().set_uniform_wear(1e6);
  subsystem.apply(OperatingPoint::max_read());
  EXPECT_EQ(subsystem.controller().program_algorithm(),
            nand::ProgramAlgorithm::kIsppDv);
  // ECC relaxed to the DV schedule at EOL wear.
  EXPECT_LT(subsystem.controller().correction_capability(), 20u);

  subsystem.apply(OperatingPoint::min_uber());
  EXPECT_EQ(subsystem.controller().program_algorithm(),
            nand::ProgramAlgorithm::kIsppDv);
  // ECC keeps the SV sizing.
  EXPECT_EQ(subsystem.controller().correction_capability(), 65u);
}

TEST(Subsystem, RefreshReResolvesAfterAging) {
  MemorySubsystem subsystem(small_config());
  const unsigned t_bol = subsystem.controller().correction_capability();
  subsystem.device().set_uniform_wear(1e6);
  subsystem.refresh();
  EXPECT_GT(subsystem.controller().correction_capability(), t_bol);
}

TEST(Subsystem, CurrentMetricsReflectActivePoint) {
  MemorySubsystem subsystem(small_config());
  subsystem.device().set_uniform_wear(1e6);
  subsystem.apply(OperatingPoint::baseline());
  const Metrics base = subsystem.current_metrics();
  subsystem.apply(OperatingPoint::max_read());
  const Metrics cross = subsystem.current_metrics();
  EXPECT_GT(cross.read_throughput.value(), base.read_throughput.value());
}

TEST(Subsystem, EndToEndRoundTrip) {
  const SubsystemConfig config = small_config();
  MemorySubsystem subsystem(config);
  const BitVec data = random_page(config, 1);
  const auto write = subsystem.write_page({0, 0}, data);
  EXPECT_TRUE(write.ok);
  const auto read = subsystem.read_page({0, 0});
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.data, data);
}

TEST(Subsystem, SegmentsRouteOperatingPoints) {
  const SubsystemConfig config = small_config();
  MemorySubsystem subsystem(config);
  subsystem.define_segment({"otp", 0, 0, OperatingPoint::min_uber()});
  subsystem.define_segment({"bulk", 1, 3, OperatingPoint::baseline()});

  const BitVec data = random_page(config, 2);
  subsystem.write_page({0, 0}, data);
  EXPECT_EQ(subsystem.controller().program_algorithm(),
            nand::ProgramAlgorithm::kIsppDv);

  subsystem.write_page({2, 0}, data);
  EXPECT_EQ(subsystem.controller().program_algorithm(),
            nand::ProgramAlgorithm::kIsppSv);

  // Both read back fine regardless of current configuration.
  EXPECT_EQ(subsystem.read_page({0, 0}).data, data);
  EXPECT_EQ(subsystem.read_page({2, 0}).data, data);
}

TEST(Subsystem, OverlappingSegmentsRejected) {
  MemorySubsystem subsystem(small_config());
  subsystem.define_segment({"a", 0, 1, OperatingPoint::baseline()});
  EXPECT_THROW(
      subsystem.define_segment({"b", 1, 2, OperatingPoint::min_uber()}),
      std::invalid_argument);
}

TEST(Subsystem, SegmentBoundsValidated) {
  MemorySubsystem subsystem(small_config());
  EXPECT_THROW(
      subsystem.define_segment({"bad", 2, 1, OperatingPoint::baseline()}),
      std::invalid_argument);
  EXPECT_THROW(
      subsystem.define_segment({"oob", 0, 99, OperatingPoint::baseline()}),
      std::invalid_argument);
}

}  // namespace
}  // namespace xlf::core
