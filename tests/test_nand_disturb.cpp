#include "src/nand/disturb.hpp"

#include <gtest/gtest.h>

#include "src/nand/array.hpp"
#include "src/util/rng.hpp"

namespace xlf::nand {
namespace {

TEST(DisturbModel, RetentionGrowsWithTimeAndWear) {
  const DisturbModel model{DisturbConfig{}};
  EXPECT_LT(model.retention_mean(10.0, 1e3).value(),
            model.retention_mean(1000.0, 1e3).value());
  EXPECT_LT(model.retention_mean(1000.0, 1e2).value(),
            model.retention_mean(1000.0, 1e5).value());
  EXPECT_NEAR(model.retention_mean(0.0, 1e3).value(), 0.0, 1e-12);
}

TEST(DisturbModel, RetentionAnchor) {
  // 1000 h at 1000 cycles is the configuration anchor.
  const DisturbConfig config;
  const DisturbModel model(config);
  EXPECT_NEAR(model.retention_mean(1000.0, 1000.0).value(),
              config.retention_loss_1khr.value(), 1e-12);
  EXPECT_NEAR(model.retention_sigma(1000.0, 1000.0).value(),
              config.retention_loss_1khr.value() * config.retention_rel_sigma,
              1e-12);
}

TEST(DisturbModel, RetentionSubLinearInTime) {
  // Detrapping slows down: doubling the bake must less-than-double
  // the loss.
  const DisturbModel model{DisturbConfig{}};
  const double once = model.retention_mean(500.0, 1e3).value();
  const double twice = model.retention_mean(1000.0, 1e3).value();
  EXPECT_GT(twice, once);
  EXPECT_LT(twice, 2.0 * once);
}

TEST(DisturbModel, ReadDisturbLinearInReads) {
  const DisturbModel model{DisturbConfig{}};
  EXPECT_NEAR(model.read_disturb_shift(2000).value(),
              2.0 * model.read_disturb_shift(1000).value(), 1e-12);
  EXPECT_NEAR(model.read_disturb_shift(0).value(), 0.0, 1e-12);
}

TEST(DisturbModel, InvalidConfigsRejected) {
  DisturbConfig bad;
  bad.retention_rel_sigma = -0.1;
  EXPECT_THROW(DisturbModel{bad}, std::invalid_argument);
  bad = DisturbConfig{};
  bad.time_exponent = 0.0;
  EXPECT_THROW(DisturbModel{bad}, std::invalid_argument);
}

// --- array-level stress injection -------------------------------------

ArrayConfig tiny_config() {
  ArrayConfig config;
  config.geometry.blocks = 1;
  config.geometry.pages_per_block = 2;
  return config;
}

BitVec random_page_bits(const Geometry& geometry, Rng& rng) {
  BitVec bits(geometry.bits_per_page());
  for (std::size_t i = 0; i < bits.size(); ++i) bits.set(i, rng.chance(0.5));
  return bits;
}

TEST(ArrayDisturb, RetentionBakeCreatesDownwardErrors) {
  NandArray array(tiny_config());
  Rng rng(1);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 1e4);
  const auto before = array.read_page({0, 0}).hamming_distance(data);

  array.apply_retention({0, 0}, /*hours=*/20000.0, 1e4);
  const auto after = array.read_page({0, 0}).hamming_distance(data);
  EXPECT_GT(after, before + 5);

  // Retention moves cells down: misread levels must sit at or below
  // the programmed ones.
  const auto levels = array.read_levels({0, 0});
  const auto targets = NandArray::bits_to_levels(data);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_LE(static_cast<int>(levels[i]), static_cast<int>(targets[i]));
  }
}

TEST(ArrayDisturb, LongerBakeHurtsMore) {
  const auto errors_after = [&](double hours) {
    NandArray array(tiny_config());
    Rng rng(2);
    const BitVec data = random_page_bits(array.config().geometry, rng);
    array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 1e4);
    array.apply_retention({0, 0}, hours, 1e4);
    return array.read_page({0, 0}).hamming_distance(data);
  };
  EXPECT_LT(errors_after(1000.0), errors_after(50000.0));
}

TEST(ArrayDisturb, RetentionOnErasedPageRejected) {
  NandArray array(tiny_config());
  EXPECT_THROW(array.apply_retention({0, 0}, 100.0, 0.0),
               std::invalid_argument);
}

TEST(ArrayDisturb, ReadDisturbLiftsErasedCells) {
  NandArray array(tiny_config());
  Rng rng(3);
  // All-ones payload = all cells erased (L0).
  BitVec data(array.config().geometry.bits_per_page());
  for (std::size_t i = 0; i < data.size(); ++i) data.set(i, true);
  array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 0.0);
  EXPECT_EQ(array.read_page({0, 0}).hamming_distance(data), 0u);

  // Hammer the block: erased cells creep over R1 eventually.
  array.apply_read_disturb({0, 0}, 200000);
  EXPECT_GT(array.read_page({0, 0}).hamming_distance(data), 0u);
}

TEST(ArrayDisturb, ModerateStressStaysWithinEccReach) {
  // A realistic bake at mid-life must stay within what the SV-EOL
  // correction capability handles — the margin story of the paper.
  NandArray array(tiny_config());
  Rng rng(4);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 1e4);
  array.apply_retention({0, 0}, 3000.0, 1e4);
  const auto errors = array.read_page({0, 0}).hamming_distance(data);
  EXPECT_LT(errors, 65u);  // t = 65 covers it
}

}  // namespace
}  // namespace xlf::nand
