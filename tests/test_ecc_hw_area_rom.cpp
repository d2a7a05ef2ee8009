#include <gtest/gtest.h>

#include <stdexcept>

#include "src/ecc_hw/area.hpp"
#include "src/ecc_hw/rom.hpp"

namespace xlf::ecc_hw {
namespace {

TEST(Area, BreakdownSumsToTotal) {
  const AreaModel area{EccHwConfig{}};
  const AreaBreakdown b = area.breakdown();
  EXPECT_DOUBLE_EQ(b.total_ge(), b.encoder_ge + b.syndrome_ge +
                                     b.berlekamp_massey_ge + b.chien_ge +
                                     b.control_ge);
  EXPECT_GT(b.total_ge(), 0.0);
}

TEST(Area, ChienBankDominatesAtFullCapability) {
  // t_max x h constant multipliers dwarf the other stages in the
  // paper's configuration — the cost of fast search the paper notes.
  const AreaModel area{EccHwConfig{}};
  const AreaBreakdown b = area.breakdown();
  EXPECT_GT(b.chien_ge, b.syndrome_ge);
  EXPECT_GT(b.chien_ge, b.encoder_ge);
  EXPECT_GT(b.chien_ge, b.berlekamp_massey_ge);
}

TEST(Area, SiliconIsFixedByTmaxNotRuntimeT) {
  // Two configs differing only in t_min occupy identical silicon.
  EccHwConfig a;
  EccHwConfig b;
  b.code.t_min = 10;
  EXPECT_DOUBLE_EQ(AreaModel{a}.total_ge(), AreaModel{b}.total_ge());
}

TEST(Area, GrowsWithTmaxAndParallelism) {
  EccHwConfig small;
  small.code.t_max = 14;
  EccHwConfig big;
  big.code.t_max = 65;
  EXPECT_GT(AreaModel{big}.total_ge(), AreaModel{small}.total_ge());

  EccHwConfig narrow;
  narrow.chien_parallelism = 2;
  EccHwConfig wide;
  wide.chien_parallelism = 16;
  EXPECT_GT(AreaModel{wide}.total_ge(), AreaModel{narrow}.total_ge());
}

TEST(Area, PlausibleSilicon45nm) {
  // The adaptive codec should land in the hundreds-of-kGE / ~0.1 mm^2
  // class — sanity bounds, not a published number.
  const AreaModel area{EccHwConfig{}};
  EXPECT_GT(area.total_ge(), 5e4);
  EXPECT_LT(area.total_ge(), 5e6);
  EXPECT_GT(area.area_mm2(), 0.01);
  EXPECT_LT(area.area_mm2(), 5.0);
}

TEST(Area, ConstantMultiplierQuadraticInFieldDegree) {
  EccHwConfig m13;
  m13.code = bch::CodeFamily{13, 4096, 3, 12};
  const AreaModel small(m13);
  const AreaModel big{EccHwConfig{}};
  EXPECT_GT(big.ge_per_constant_multiplier(),
            small.ge_per_constant_multiplier());
}

TEST(ConfigRom, OneEntryPerCapability) {
  const ConfigRom rom{EccHwConfig{}};
  EXPECT_EQ(rom.entries().size(), 65u - 3u + 1u);
  EXPECT_EQ(rom.entry(3).t, 3u);
  EXPECT_EQ(rom.entry(65).t, 65u);
  EXPECT_THROW(rom.entry(2), std::invalid_argument);
  EXPECT_THROW(rom.entry(66), std::invalid_argument);
}

TEST(ConfigRom, EntrySizesMatchArchitecture) {
  const ConfigRom rom{EccHwConfig{}};
  const RomEntry& entry = rom.entry(10);
  EXPECT_EQ(entry.generator_config_bits, 160u);  // r = 16 * 10
  EXPECT_EQ(entry.syndrome_enable_bits, 130u);   // 2 * t_max
  EXPECT_EQ(entry.chien_start_bits, 16u);        // one field element
}

TEST(ConfigRom, TotalIsSmall) {
  // Section 4 calls it "a small ROM": a few KiB.
  const ConfigRom rom{EccHwConfig{}};
  EXPECT_GT(rom.total_kib(), 1.0);
  EXPECT_LT(rom.total_kib(), 16.0);
}

TEST(ConfigRom, ChienStartSkipsShortenedPositions) {
  const ConfigRom rom{EccHwConfig{}};
  // n(t=65) = 33808, natural 65535: skip = 31727.
  EXPECT_EQ(rom.chien_start_index(65), 65535u - 33808u);
  // Larger t -> longer codeword -> fewer skipped positions.
  EXPECT_GT(rom.chien_start_index(3), rom.chien_start_index(65));
}

}  // namespace
}  // namespace xlf::ecc_hw
