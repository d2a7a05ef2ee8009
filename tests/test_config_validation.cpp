// Constructor validation must teach the fix: geometry/configuration
// errors out of Ftl and DieAllocator name the offending field and its
// value, not a bare invariant condition.
#include <gtest/gtest.h>

#include "src/ftl/ssd.hpp"

namespace xlf::ftl {
namespace {

std::string construction_error(const SsdConfig& config) {
  try {
    Ssd ssd(config);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

SsdConfig small_config() {
  SsdConfig config;
  config.topology = {1, 1};
  config.die.device.array.geometry.blocks = 8;
  config.die.device.array.geometry.pages_per_block = 4;
  return config;
}

TEST(FtlValidation, LogicalFractionErrorNamesFieldValueAndRemedy) {
  SsdConfig config = small_config();
  config.ftl.logical_fraction = 0.95;
  const std::string what = construction_error(config);
  EXPECT_NE(what.find("logical_fraction=0.95"), std::string::npos) << what;
  EXPECT_NE(what.find("gc_free_blocks+2=3"), std::string::npos) << what;
  EXPECT_NE(what.find("pages_per_block=4"), std::string::npos) << what;
}

TEST(FtlValidation, OutOfRangeLogicalFractionNamesBound) {
  SsdConfig config = small_config();
  config.ftl.logical_fraction = 1.5;
  const std::string what = construction_error(config);
  EXPECT_NE(what.find("logical_fraction=1.5"), std::string::npos) << what;
  EXPECT_NE(what.find("(0, 1)"), std::string::npos) << what;
}

TEST(FtlValidation, GcFreeBlocksErrorNamesFieldAndValue) {
  SsdConfig config = small_config();
  config.ftl.gc_free_blocks = 0;
  const std::string what = construction_error(config);
  EXPECT_NE(what.find("gc_free_blocks=0"), std::string::npos) << what;
}

TEST(FtlValidation, PeCyclesPerEraseErrorNamesFieldAndValue) {
  SsdConfig config = small_config();
  config.ftl.pe_cycles_per_erase = 0.5;
  const std::string what = construction_error(config);
  EXPECT_NE(what.find("pe_cycles_per_erase=0.5"), std::string::npos) << what;
}

TEST(FtlValidation, SlackErrorNamesGeometry) {
  SsdConfig config = small_config();
  config.ftl.gc_free_blocks = 6;  // slack = 8 blocks; die has only 8
  const std::string what = construction_error(config);
  EXPECT_NE(what.find("blocks=8"), std::string::npos) << what;
  EXPECT_NE(what.find("gc_free_blocks=6"), std::string::npos) << what;
}

TEST(AllocatorValidation, ErrorsNameFieldAndValue) {
  const policy::Wear wear = policy::Wear::kNone;
  try {
    DieAllocator alloc(AllocatorConfig{2, 4, wear});
    FAIL() << "2 blocks must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("blocks=2"), std::string::npos)
        << e.what();
  }
  try {
    DieAllocator alloc(AllocatorConfig{4, 0, wear});
    FAIL() << "0 pages per block must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("pages_per_block=0"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace xlf::ftl
