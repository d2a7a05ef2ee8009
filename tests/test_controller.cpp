#include "src/controller/controller.hpp"

#include <gtest/gtest.h>

#include "src/util/rng.hpp"

namespace xlf::controller {
namespace {

struct Fixture {
  nand::NandDevice device;
  MemoryController controller;

  explicit Fixture(ControllerConfig config = {},
                   nand::DeviceConfig device_config = small_device())
      : device(device_config), controller(config, device, hv::HvConfig{}) {}

  static nand::DeviceConfig small_device() {
    nand::DeviceConfig config;
    config.array.geometry.blocks = 2;
    config.array.geometry.pages_per_block = 4;
    return config;
  }

  BitVec random_data(std::uint64_t seed) {
    Rng rng(seed);
    BitVec data(device.geometry().data_bits_per_page());
    for (std::size_t i = 0; i < data.size(); ++i) {
      data.set(i, rng.chance(0.5));
    }
    return data;
  }
};

TEST(Controller, WriteReadRoundTrip) {
  Fixture fx;
  const BitVec data = fx.random_data(1);
  const WriteResult write = fx.controller.write_page({0, 0}, data);
  EXPECT_TRUE(write.ok);
  EXPECT_EQ(write.t_used, 3u);  // baseline BOL capability
  EXPECT_GT(write.latency.millis(), 1.0);  // program dominates

  const ReadResult read = fx.controller.read_page({0, 0});
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.data, data);
  EXPECT_GT(read.latency.micros(), 75.0);
}

TEST(Controller, ReadingUnwrittenPageRejected) {
  // Unwritten, erased and out-of-range pages, on both data planes.
  for (const bool data_plane : {true, false}) {
    nand::DeviceConfig device_config = Fixture::small_device();
    device_config.data_plane = data_plane;
    Fixture fx(ControllerConfig{}, device_config);
    const BitVec data = data_plane ? fx.random_data(7) : BitVec(0);
    fx.controller.write_page({0, 0}, data);
    EXPECT_NO_THROW(fx.controller.read_page({0, 0}));
    // Unwritten neighbour.
    EXPECT_THROW(fx.controller.read_page({0, 1}), std::invalid_argument);
    // Past the last block, past the last page of a block.
    EXPECT_THROW(fx.controller.read_page({2, 0}), std::invalid_argument);
    EXPECT_THROW(fx.controller.read_page({0, 4}), std::invalid_argument);
    EXPECT_THROW(fx.controller.erase_block(2), std::invalid_argument);
    // Erased.
    fx.controller.erase_block(0);
    EXPECT_THROW(fx.controller.read_page({0, 0}), std::invalid_argument);
  }
}

// t lives in the ECC unit alone: the setter moves it, and a t outside
// the code family [3, 65] is rejected and changes nothing.
TEST(Controller, CorrectionCapabilityStaysInsideTheCodeFamily) {
  Fixture fx;
  for (const unsigned t : {5u, 65u, 3u, 14u}) {
    fx.controller.set_correction_capability(t);
    EXPECT_EQ(fx.controller.correction_capability(), t);
  }
  for (const unsigned t : {2u, 66u, 200u}) {
    EXPECT_THROW(fx.controller.set_correction_capability(t),
                 std::invalid_argument);
    EXPECT_EQ(fx.controller.correction_capability(), 14u);
  }
  // The reliability manager configures through the same setter.
  const unsigned adapted = fx.controller.adapt_ecc(1e6);
  EXPECT_NE(adapted, 14u);
  EXPECT_EQ(fx.controller.correction_capability(), adapted);
}

TEST(Controller, CrossLayerKnobsReachBothLayers) {
  Fixture fx;
  fx.controller.set_program_algorithm(nand::ProgramAlgorithm::kIsppDv);
  EXPECT_EQ(fx.device.program_algorithm(), nand::ProgramAlgorithm::kIsppDv);
  EXPECT_EQ(fx.controller.program_algorithm(),
            nand::ProgramAlgorithm::kIsppDv);
  fx.controller.set_correction_capability(20);
  EXPECT_EQ(fx.controller.ecc().correction_capability(), 20u);
}

TEST(Controller, PagesDecodeWithTheirWriteTimeCapability) {
  Fixture fx;
  const BitVec data_a = fx.random_data(2);
  fx.controller.set_correction_capability(5);
  fx.controller.write_page({0, 0}, data_a);

  // Reconfigure before reading back: the stored page still uses t=5.
  fx.controller.set_correction_capability(30);
  const ReadResult read = fx.controller.read_page({0, 0});
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.data, data_a);
  // Current configuration is untouched by the read.
  EXPECT_EQ(fx.controller.correction_capability(), 30u);
}

TEST(Controller, AdaptEccFollowsWear) {
  Fixture fx;
  fx.device.set_uniform_wear(1e6);
  const unsigned t = fx.controller.adapt_ecc(1e6);
  EXPECT_EQ(t, 65u);
  EXPECT_EQ(fx.controller.correction_capability(), 65u);
  fx.device.set_uniform_wear(1.0);
  EXPECT_LE(fx.controller.adapt_ecc(1.0), 4u);
}

TEST(Controller, AgedPagesAreCorrectedTransparently) {
  Fixture fx;
  fx.device.set_uniform_wear(1e6);
  fx.controller.adapt_ecc(1e6);  // t = 65
  const BitVec data = fx.random_data(3);
  fx.controller.write_page({0, 0}, data);
  const ReadResult read = fx.controller.read_page({0, 0});
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.data, data);
  // EOL SV RBER 1e-3 x 33808 bits: expect tens of corrected bits.
  EXPECT_GT(read.corrected_bits, 5u);
  EXPECT_LT(read.corrected_bits, 80u);
}

TEST(Controller, DecodeFeedbackReachesTheReliabilityManager) {
  Fixture fx;
  fx.device.set_uniform_wear(1e6);
  fx.controller.adapt_ecc(1e6);
  const BitVec data = fx.random_data(4);
  fx.controller.write_page({0, 0}, data);
  const ReadResult read = fx.controller.read_page({0, 0});
  EXPECT_GT(read.corrected_bits, 0u);
  EXPECT_GT(fx.controller.reliability().estimated_rber(), 0.0);
}

TEST(Controller, EraseInvalidatesMetadata) {
  Fixture fx;
  const BitVec data = fx.random_data(5);
  fx.controller.write_page({0, 0}, data);
  const Seconds erase_time = fx.controller.erase_block(0);
  EXPECT_NEAR(erase_time.millis(), 2.5, 1e-9);
  EXPECT_THROW(fx.controller.read_page({0, 0}), std::invalid_argument);
}

// Each page keeps its own write-time t (and decode reference) across
// retunes and across erases of other blocks: a page written at t = 65
// on a worn device reads back clean after the controller dropped to
// t = 3 — far more raw errors than t = 3 could correct.
TEST(Controller, PageKeepsItsTAcrossRetunesAndOtherErases) {
  Fixture fx;
  fx.device.set_uniform_wear(1e6);
  fx.controller.set_correction_capability(65);
  const BitVec old_page = fx.random_data(8);
  fx.controller.write_page({0, 3}, old_page);
  const BitVec doomed = fx.random_data(9);
  fx.controller.write_page({1, 0}, doomed);

  fx.controller.set_correction_capability(3);
  fx.controller.erase_block(1);
  const BitVec young_page = fx.random_data(10);
  fx.controller.write_page({1, 3}, young_page);

  const ReadResult read = fx.controller.read_page({0, 3});
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.data, old_page);
  EXPECT_GT(read.corrected_bits, 3u);
  EXPECT_EQ(fx.controller.correction_capability(), 3u);
  EXPECT_THROW(fx.controller.read_page({1, 0}), std::invalid_argument);
  // The page written at t = 3 keeps t = 3: worn cells overwhelm it.
  EXPECT_TRUE(fx.controller.read_page({1, 3}).uncorrectable);
}

// A metadata-only read moves no payload, yet charges exactly the
// pipeline a payload read would: sensing, the worst-case decode at the
// page's t and a k-bit OCP burst (values pinned from the build that
// still materialised an all-zero payload).
TEST(Controller, MetaReadCarriesNoPayloadAndKeepsItsCost) {
  nand::DeviceConfig device_config = Fixture::small_device();
  device_config.data_plane = false;
  Fixture fx(ControllerConfig{}, device_config);
  fx.device.set_uniform_wear(1e5);
  fx.controller.set_correction_capability(20);
  const WriteResult write = fx.controller.write_page({1, 2}, BitVec(0));
  EXPECT_EQ(write.t_used, 20u);
  fx.controller.set_correction_capability(40);

  const ReadResult read = fx.controller.read_page({1, 2});
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.data.size(), 0u);
  EXPECT_EQ(read.corrected_bits, 0u);
  EXPECT_EQ(read.latency.value(), 0.00018941999999999996);
  EXPECT_EQ(read.io_latency.value(), 5.6200000000000004e-06);
  EXPECT_EQ(read.ecc_energy.value(), 1.23711296e-07);
  EXPECT_EQ(read.nand_energy.value(), 1.3606049999999998e-05);
}

// A page's stage costs, written at t = 20 on a die at 1e5 cycles and
// read back after the controller moved to t = 40. The values were
// captured from the build that modelled the socket and the buffer as
// objects: the write's io share is the OCP burst (0.5 us network +
// 1,024 beats at 200 MHz = 5.12 us) plus the 4 KiB buffer stream at
// 800 MiB/s (4.8828125 us), the read's the outbound burst alone.
struct StageCosts {
  WriteResult write;
  ReadResult read;
};

StageCosts write_then_read(bool data_plane) {
  nand::DeviceConfig device_config = Fixture::small_device();
  device_config.data_plane = data_plane;
  Fixture fx(ControllerConfig{}, device_config);
  fx.device.set_uniform_wear(1e5);
  fx.controller.set_correction_capability(20);
  const BitVec data = data_plane ? fx.random_data(4) : BitVec(0);
  StageCosts costs;
  costs.write = fx.controller.write_page({1, 2}, data);
  fx.controller.set_correction_capability(40);
  costs.read = fx.controller.read_page({1, 2});
  if (data_plane) {
    EXPECT_EQ(costs.read.data, data);
  }
  return costs;
}

TEST(Controller, WriteStageCostsAreTheSameOnBothPlanes) {
  for (const bool data_plane : {true, false}) {
    const WriteResult write = write_then_read(data_plane).write;
    EXPECT_TRUE(write.ok);
    EXPECT_EQ(write.t_used, 20u);
    EXPECT_EQ(write.latency.value(), 0.0016507496386718749);
    EXPECT_EQ(write.io_latency.value(), 1.0502812500000001e-05);
    EXPECT_EQ(write.ecc_energy.value(), 6.0351999999999997e-08);
    EXPECT_EQ(write.nand_energy.value(), 0.00024630492400000003);
  }
}

TEST(Controller, BitTrueReadStageCostsArePinned) {
  const ReadResult read = write_then_read(true).read;
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.corrected_bits, 1u);
  EXPECT_EQ(read.latency.value(), 0.00018941999999999996);
  EXPECT_EQ(read.io_latency.value(), 5.6200000000000004e-06);
  EXPECT_EQ(read.ecc_energy.value(), 1.4319351039999998e-07);
  EXPECT_EQ(read.nand_energy.value(), 1.3606049999999998e-05);
}

// read_page decodes against the bits the array was programmed with;
// the full decode of the device's raw read at the page's t agrees.
TEST(Controller, HonestAndFastDecodeAgree) {
  Fixture fx;
  fx.device.set_uniform_wear(1e6);
  const unsigned t = fx.controller.adapt_ecc(1e6);
  const BitVec data = fx.random_data(6);
  fx.controller.write_page({0, 0}, data);
  fx.controller.set_correction_capability(3);
  const ReadResult fast = fx.controller.read_page({0, 0});
  ASSERT_EQ(fx.device.ecc_t({0, 0}), t);

  const ControllerConfig config;
  EccUnit honest(config.ecc_hw);
  honest.set_correction_capability(t);
  BitVec codeword =
      fx.device.read_page({0, 0}).data.slice(0, honest.current_params().n());
  const DecodeOutcome decoded = honest.decode(codeword);
  // The page carries errors, so both decoders had something to find.
  EXPECT_GE(decoded.result.corrected, 1u);
  EXPECT_EQ(fast.corrected_bits, decoded.result.corrected);
  EXPECT_EQ(fast.data, honest.extract_message(codeword));
  EXPECT_TRUE(fast.ok);
  EXPECT_EQ(fast.data, data);
}

TEST(Controller, WorstCaseLatenciesMatchModels) {
  Fixture fx;
  fx.controller.set_correction_capability(65);
  EXPECT_NEAR(fx.controller.worst_case_read_latency().micros(), 75.0 + 159.4,
              1.5);
  const Seconds write = fx.controller.write_latency(100.0);
  EXPECT_GT(write.millis(), 1.0);
}

TEST(Controller, CodewordMustFitDevicePage) {
  // A device with a tiny spare area cannot host the t = 65 codeword.
  nand::DeviceConfig device_config = Fixture::small_device();
  device_config.array.geometry.spare_bytes_per_page = 64;  // 512 bits < 1040
  EXPECT_THROW(Fixture(ControllerConfig{}, device_config),
               std::invalid_argument);
}

}  // namespace
}  // namespace xlf::controller
