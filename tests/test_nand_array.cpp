#include "src/nand/array.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/nand/device.hpp"
#include "src/util/stats.hpp"
#include "tests/digest.hpp"

namespace xlf::nand {
namespace {

ArrayConfig tiny_config() {
  ArrayConfig config;
  config.geometry.blocks = 2;
  config.geometry.pages_per_block = 4;
  return config;
}

BitVec random_page_bits(const Geometry& geometry, Rng& rng) {
  BitVec bits(geometry.bits_per_page());
  for (std::size_t i = 0; i < bits.size(); ++i) bits.set(i, rng.chance(0.5));
  return bits;
}

TEST(Array, StartsEresedEverywhere) {
  const NandArray array(tiny_config());
  for (std::uint32_t b = 0; b < 2; ++b) {
    for (std::uint32_t p = 0; p < 4; ++p) {
      EXPECT_TRUE(array.is_erased({b, p}));
    }
  }
}

TEST(Array, LevelBitConversionRoundTrip) {
  Rng rng(1);
  BitVec bits(64);
  for (std::size_t i = 0; i < bits.size(); ++i) bits.set(i, rng.chance(0.5));
  const auto levels = NandArray::bits_to_levels(bits);
  EXPECT_EQ(levels.size(), 32u);
  EXPECT_EQ(NandArray::levels_to_bits(levels), bits);
}

TEST(Array, ProgramReadRoundTripAtBol) {
  // At beginning of life the RBER is ~2.5e-6: a single page (34.5k
  // bits) reads back error-free with overwhelming probability.
  NandArray array(tiny_config());
  Rng rng(2);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  const ProgramResult result =
      array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 0.0,
                         ProgramMode::kStatistical);
  EXPECT_TRUE(result.ok);
  EXPECT_FALSE(array.is_erased({0, 0}));
  const BitVec read = array.read_page({0, 0});
  EXPECT_LE(read.hamming_distance(data), 2u);
}

TEST(Array, IsppModeRoundTripAtBol) {
  NandArray array(tiny_config());
  Rng rng(3);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  const ProgramResult result =
      array.program_page({0, 1}, data, ProgramAlgorithm::kIsppDv, 0.0,
                         ProgramMode::kIsppSimulation);
  EXPECT_TRUE(result.ok);
  ASSERT_TRUE(result.trace.has_value());
  EXPECT_TRUE(result.trace->converged);
  EXPECT_GT(result.trace->pulses, 10u);
  const BitVec read = array.read_page({0, 1});
  EXPECT_LE(read.hamming_distance(data), 2u);
}

TEST(Array, ProgramWithoutEraseRejected) {
  NandArray array(tiny_config());
  Rng rng(4);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 0.0);
  EXPECT_THROW(
      array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 0.0),
      std::invalid_argument);
}

TEST(Array, EraseRestoresProgrammability) {
  NandArray array(tiny_config());
  Rng rng(5);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 0.0);
  array.erase_block(0, 1.0);
  EXPECT_TRUE(array.is_erased({0, 0}));
  EXPECT_NO_THROW(
      array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 1.0));
}

TEST(Array, EraseIsPerBlock) {
  NandArray array(tiny_config());
  Rng rng(6);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 0.0);
  array.program_page({1, 0}, data, ProgramAlgorithm::kIsppSv, 0.0);
  array.erase_block(0, 1.0);
  EXPECT_TRUE(array.is_erased({0, 0}));
  EXPECT_FALSE(array.is_erased({1, 0}));
}

TEST(Array, WearControls) {
  const NandArray array(tiny_config());
  EXPECT_NO_THROW(array.check_wear(1, 5e5));
  EXPECT_THROW(array.check_wear(9, 1.0), std::invalid_argument);
  EXPECT_THROW(array.check_wear(0, -1.0), std::invalid_argument);
}

TEST(Array, WearStopsAtTheModelDomain) {
  // An erase or wear at or past RberModel::max_cycles() fails with a
  // named error, and the erase changes nothing; one short of it still
  // erases.
  NandArray array(tiny_config());
  const double limit = array.rber_model().max_cycles();
  array.erase_block(0, limit - 0.5);
  Rng rng(6);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  array.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, limit - 0.5);
  try {
    array.erase_block(0, limit + 0.5);
    FAIL() << "an erase reaching the limit must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bit-true block 0"), std::string::npos) << what;
    EXPECT_NE(what.find("at or past the array's limit of 3.21208e+07"),
              std::string::npos)
        << what;
  }
  EXPECT_FALSE(array.is_erased({0, 0}));
  EXPECT_THROW(array.check_wear(1, limit), std::invalid_argument);
}

TEST(Array, DeviceWearStopsAtTheArrayLimitAndChangesNothing) {
  DeviceConfig config;
  config.array.geometry.blocks = 2;
  config.array.geometry.pages_per_block = 2;
  NandDevice device(config);
  const double limit = device.array().rber_model().max_cycles();
  device.set_wear(0, limit - 1.5);
  device.erase_block(0);
  EXPECT_THROW(device.erase_block(0), std::invalid_argument);
  EXPECT_THROW(device.set_wear(1, limit + 1.0), std::invalid_argument);
  EXPECT_EQ(device.wear(0), limit - 0.5);
  EXPECT_EQ(device.erase_count(0), 1u);
  EXPECT_EQ(device.wear(1), 0.0);
  // A metadata-only device has no cell array and so no such limit (its
  // own, the aging law's, lies further out; see test_nand_timing_device).
  config.data_plane = false;
  NandDevice meta(config);
  meta.set_wear(0, 2.0 * limit);
  meta.erase_block(0);
  EXPECT_EQ(meta.wear(0), 2.0 * limit + 1.0);
}

TEST(Array, ErasedThresholdsAreNegative) {
  NandArray array(tiny_config());
  const auto thresholds = array.thresholds({0, 0});
  RunningStats stats;
  for (Volts v : thresholds) stats.add(v.value());
  EXPECT_NEAR(stats.mean(), -3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 0.4, 0.05);
}

TEST(Array, ReadLevelsMatchProgrammedTargets) {
  NandArray array(tiny_config());
  Rng rng(7);
  const BitVec data = random_page_bits(array.config().geometry, rng);
  array.program_page({1, 2}, data, ProgramAlgorithm::kIsppSv, 0.0);
  const auto levels = array.read_levels({1, 2});
  const auto targets = NandArray::bits_to_levels(data);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (levels[i] != targets[i]) ++mismatches;
  }
  EXPECT_LE(mismatches, 2u);
}

TEST(Array, AgedPagesShowMoreErrors) {
  ArrayConfig config = tiny_config();
  NandArray fresh(config);
  NandArray aged(config);
  Rng rng(8);
  const BitVec data = random_page_bits(config.geometry, rng);
  fresh.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 0.0);
  aged.program_page({0, 0}, data, ProgramAlgorithm::kIsppSv, 1e6);
  const auto fresh_errors = fresh.read_page({0, 0}).hamming_distance(data);
  const auto aged_errors = aged.read_page({0, 0}).hamming_distance(data);
  // EOL SV RBER 1e-3 over 34.5k bits: ~35 expected errors.
  EXPECT_LT(fresh_errors, 5u);
  EXPECT_GT(aged_errors, 10u);
}

TEST(Array, OutOfRangeAddressesRejected) {
  NandArray array(tiny_config());
  EXPECT_THROW(array.read_page({2, 0}), std::invalid_argument);
  EXPECT_THROW(array.read_page({0, 4}), std::invalid_argument);
  EXPECT_THROW(array.erase_block(5, 1.0), std::invalid_argument);
}

TEST(Array, WrongPageSizeRejected) {
  NandArray array(tiny_config());
  EXPECT_THROW(
      array.program_page({0, 0}, BitVec(100), ProgramAlgorithm::kIsppSv, 0.0),
      std::invalid_argument);
}

// --- byte-identity pins ---------------------------------------------
// The digests below were captured from a build whose erase sampled
// every cell eagerly. An erase that records each page's place in the
// noise stream and replays it on first use must reproduce them: any
// drift in the stream, the replay or the wear the replay samples at
// shows up here.

void hash_page(test::Fnv1a& digest, const NandArray& array,
               PageAddress addr) {
  for (Volts v : array.thresholds(addr)) digest.f64(v.value());
  const BitVec read = array.read_page(addr);
  for (std::uint64_t w : read.words()) digest.u64(w);
}

void hash_program(test::Fnv1a& digest, const ProgramResult& result) {
  digest.u64(result.ok);
  digest.u64(result.over_programmed_cells);
  if (result.trace) {
    digest.u64(result.trace->pulses);
    digest.u64(result.trace->verify_ops);
    digest.u64(result.trace->failed_cells);
  }
}

// Both program modes and algorithms, reads and thresholds of erased
// pages, read disturb on an erased and on a programmed page,
// retention, a wear jump before and after an erase, and re-erase.
std::uint64_t array_script_digest() {
  ArrayConfig config;
  config.geometry.blocks = 3;
  config.geometry.pages_per_block = 4;
  config.seed = 0x5EED5;
  NandArray array(config);
  Rng data_rng(0xDA7A);
  test::Fnv1a digest;
  // Each block's wear, as a device counts it: fresh blocks at 0.
  double wear[3] = {0.0, 0.0, 0.0};
  const auto program = [&](PageAddress addr, ProgramAlgorithm algo,
                           ProgramMode mode) {
    const BitVec data = random_page_bits(config.geometry, data_rng);
    hash_program(digest, array.program_page(addr, data, algo,
                                            wear[addr.block], mode));
  };

  hash_page(digest, array, {0, 0});  // erased page, before programming
  for (Level level : array.read_levels({2, 3})) {
    digest.u64(static_cast<std::uint64_t>(level));
  }
  program({0, 0}, ProgramAlgorithm::kIsppSv, ProgramMode::kStatistical);
  program({0, 1}, ProgramAlgorithm::kIsppDv, ProgramMode::kIsppSimulation);
  program({0, 2}, ProgramAlgorithm::kIsppDv, ProgramMode::kStatistical);
  array.apply_read_disturb({0, 3}, 200000);  // erased page
  program({0, 3}, ProgramAlgorithm::kIsppSv, ProgramMode::kIsppSimulation);
  wear[1] = 3e4;
  program({1, 0}, ProgramAlgorithm::kIsppSv, ProgramMode::kIsppSimulation);
  program({1, 1}, ProgramAlgorithm::kIsppSv, ProgramMode::kStatistical);
  array.apply_retention({0, 0}, 1000.0, wear[0]);
  array.apply_read_disturb({0, 1}, 100000);  // programmed page
  array.apply_read_disturb({1, 2}, 300000);  // erased, left unprogrammed
  hash_page(digest, array, {1, 2});
  array.erase_block(0, ++wear[0]);
  program({0, 0}, ProgramAlgorithm::kIsppSv, ProgramMode::kStatistical);
  wear[2] = 1e5;
  array.erase_block(2, ++wear[2]);
  wear[2] = 5e5;  // after the erase: the cells keep 1e5 + 1
  program({2, 1}, ProgramAlgorithm::kIsppDv, ProgramMode::kIsppSimulation);
  program({2, 2}, ProgramAlgorithm::kIsppSv, ProgramMode::kStatistical);
  for (std::uint32_t b = 0; b < config.geometry.blocks; ++b) {
    for (std::uint32_t p = 0; p < config.geometry.pages_per_block; ++p) {
      hash_page(digest, array, {b, p});
    }
  }
  return digest.value();
}

// --- sensed programs -------------------------------------------------
// A statistical program decides most cells' read levels from the
// radius of their draw and computes exact thresholds only near a read
// reference. The steps below drive every branch of that walk, and the
// digest of their thresholds and reads was captured from a build that
// sampled every threshold.

// Plans that force the walk's rare branches; each stays consistent().
std::vector<std::pair<std::string, ArrayConfig>> sensing_configs() {
  ArrayConfig base;
  base.geometry.blocks = 10;
  base.geometry.pages_per_block = 4;
  base.seed = 0x5E45ED;
  std::vector<std::pair<std::string, ArrayConfig>> configs;
  configs.emplace_back("default", base);
  // R1 2 sigma above the erased mean: erase exceptions, L0 misreads.
  configs.emplace_back("r1_near", base);
  configs.back().second.plan.read[0] = Volts{-2.2};
  // OP below L3's ISPP-SV mean: L3 admits nothing there, and cells are
  // over-programmed.
  configs.emplace_back("op_low", base);
  configs.back().second.plan.over_program = Volts{3.85};
  // An erased sigma wider than the erased mean's distance to R1.
  configs.emplace_back("wide_erased", base);
  configs.back().second.plan.erased_sigma = Volts{2.5};
  // A page whose last word holds 8 cells, not 32.
  configs.emplace_back("tail_word", base);
  configs.back().second.geometry.spare_bytes_per_page = 226;
  return configs;
}

BitVec uniform_page(const Geometry& geometry, Level level) {
  const Bits2 b = level_to_bits(level);
  BitVec bits(geometry.bits_per_page());
  for (std::size_t i = 0; i < geometry.cells_per_page(); ++i) {
    bits.set(2 * i, b.msb);
    bits.set(2 * i + 1, b.lsb);
  }
  return bits;
}

// Random data with an odd (or even) number of cells written to L1..L3,
// i.e. of draws a statistical program takes.
BitVec random_page_with_draws(const Geometry& geometry, Rng& rng, bool odd) {
  BitVec bits = random_page_bits(geometry, rng);
  std::size_t draws = 0;
  for (Level level : NandArray::bits_to_levels(bits)) {
    draws += level != Level::kL0;
  }
  if ((draws % 2 == 1) != odd) {
    // Cell 0 from L0 (11) to L3 (10), or from L1..L3 to L0.
    const bool erased = bits.get(0) && bits.get(1);
    bits.set(0, true);
    bits.set(1, !erased);
  }
  return bits;
}

constexpr double kSensingWear[] = {1.0, 1e3, 1e4, 1e5, 1e6};
constexpr ProgramAlgorithm kSensingAlgos[] = {ProgramAlgorithm::kIsppSv,
                                              ProgramAlgorithm::kIsppDv};
// Grid pages (see sensing_steps) written all L0 and all L3.
constexpr std::uint32_t kErasedPage = 1;
constexpr std::uint32_t kL3Page = 2;

// Every (algorithm, wear) pair gets a block: a random page, an all-L0
// page, an all-L3 page and an all-L1 page. visit(addr, result) follows
// each program; then visit(addr, nullptr) covers every page.
template <typename Visit>
void sensing_steps(NandArray& array, Rng& data_rng, Visit&& visit) {
  const Geometry& geometry = array.config().geometry;
  std::uint32_t block = 0;
  for (ProgramAlgorithm algo : kSensingAlgos) {
    for (double pe : kSensingWear) {
      const BitVec pages[] = {random_page_bits(geometry, data_rng),
                              uniform_page(geometry, Level::kL0),
                              uniform_page(geometry, Level::kL3),
                              uniform_page(geometry, Level::kL1)};
      for (std::uint32_t p = 0; p < 4; ++p) {
        const ProgramResult result =
            array.program_page({block, p}, pages[p], algo, pe);
        visit(PageAddress{block, p}, &result);
      }
      ++block;
    }
  }
  for (std::uint32_t b = 0; b < geometry.blocks; ++b) {
    for (std::uint32_t p = 0; p < geometry.pages_per_block; ++p) {
      visit(PageAddress{b, p}, nullptr);
    }
  }
}

// Programs and erases that start while the array's stream holds a
// value or half a pair, retention and read disturb of sensed pages,
// and a statistical program of a page read-disturbed while erased.
// The draw counts are steered by the data: a statistical program takes
// one draw per cell written to L1..L3, an erase an even number, and
// retention one per cell at or above R1.
template <typename Visit>
void stream_state_steps(NandArray& array, Rng& data_rng, Visit&& visit) {
  const Geometry& geometry = array.config().geometry;
  double wear[3] = {0.0, 0.0, 0.0};  // as a device counts it
  const auto program = [&](PageAddress addr, const BitVec& bits,
                           ProgramAlgorithm algo) {
    const ProgramResult result =
        array.program_page(addr, bits, algo, wear[addr.block]);
    visit(addr, &result);
  };
  BitVec one_cell = uniform_page(geometry, Level::kL0);
  one_cell.set(10, true);  // cell 5 to L3 (10)
  one_cell.set(11, false);
  const auto at_or_above_r1 = [&](PageAddress addr) {
    std::size_t cells = 0;
    for (Volts v : array.thresholds(addr)) {
      cells += v >= array.config().plan.read[0];
    }
    return cells;
  };
  // Fresh stream, one draw: half a pair held.
  program({0, 0}, one_cell, ProgramAlgorithm::kIsppSv);
  // Every page's erase starts with half a pair.
  array.erase_block(1, ++wear[1]);
  program({1, 0}, random_page_with_draws(geometry, data_rng, false),
          ProgramAlgorithm::kIsppDv);  // starts with half a pair
  // 1 + even draws leave half a pair held; one more draw clears it.
  program({0, 1}, one_cell, ProgramAlgorithm::kIsppSv);
  // Retention of the one-cell page draws once: a value held.
  EXPECT_EQ(at_or_above_r1({0, 0}), 1u);
  array.apply_retention({0, 0}, 500.0, wear[0]);
  program({1, 1}, random_page_with_draws(geometry, data_rng, true),
          ProgramAlgorithm::kIsppSv);  // starts with a held value
  // 1 + odd draws clear the stream; retention holds a value again,
  // which is all a one-cell program draws.
  EXPECT_EQ(at_or_above_r1({0, 1}), 1u);
  array.apply_retention({0, 1}, 800.0, wear[0]);
  program({0, 2}, one_cell, ProgramAlgorithm::kIsppDv);
  EXPECT_EQ(at_or_above_r1({0, 2}), 1u);
  array.apply_retention({0, 2}, 300.0, wear[0]);
  wear[2] = 2e5;
  // The first erase starts with a held value.
  array.erase_block(2, ++wear[2]);
  program({2, 0}, random_page_with_draws(geometry, data_rng, true),
          ProgramAlgorithm::kIsppDv);
  // Materialise sensed pages by retention and by read disturb.
  array.apply_retention({1, 0}, 2000.0, wear[1]);
  array.apply_read_disturb({1, 1}, 100000);
  // Read disturb of an erased page, then a statistical program of it.
  array.apply_read_disturb({2, 1}, 400000);
  program({2, 1}, random_page_bits(geometry, data_rng),
          ProgramAlgorithm::kIsppSv);
  array.apply_retention({2, 1}, 100.0, wear[2]);
  for (std::uint32_t b = 0; b < 3; ++b) {
    for (std::uint32_t p = 0; p < geometry.pages_per_block; ++p) {
      visit(PageAddress{b, p}, nullptr);
    }
  }
}

std::uint64_t sensing_script_digest() {
  test::Fnv1a digest;
  const auto hash = [&](NandArray& array) {
    return [&digest, &array](PageAddress addr, const ProgramResult* result) {
      if (result != nullptr) {
        hash_program(digest, *result);
      } else {
        hash_page(digest, array, addr);
      }
    };
  };
  for (const auto& [name, config] : sensing_configs()) {
    NandArray array(config);
    Rng data_rng(0xDA7A5);
    sensing_steps(array, data_rng, hash(array));
    if (name == "default") {
      NandArray fresh(config);
      stream_state_steps(fresh, data_rng, hash(fresh));
    }
  }
  return digest.value();
}

TEST(Array, ScriptThresholdsAndReadsArePinned) {
  EXPECT_EQ(array_script_digest(), 0x29F17C0AFFC56328ull);
  EXPECT_EQ(sensing_script_digest(), 0x012AEAC574427ABEull);
}

// read_page senses what the replayed thresholds read, and a program
// counted exactly the over-programmed thresholds.
void expect_sensed_exactly(const NandArray& array, PageAddress addr,
                           const ProgramResult* result) {
  const VoltagePlan& plan = array.config().plan;
  const std::vector<Volts> vth = array.thresholds(addr);
  std::vector<Level> levels(vth.size());
  unsigned over = 0;
  for (std::size_t i = 0; i < vth.size(); ++i) {
    levels[i] = plan.read_level(vth[i]);
    over += plan.is_over_programmed(vth[i]);
  }
  EXPECT_EQ(array.read_page(addr), NandArray::levels_to_bits(levels))
      << "page " << addr.block << "/" << addr.page;
  if (result != nullptr) {
    EXPECT_EQ(result->over_programmed_cells, over)
        << "page " << addr.block << "/" << addr.page;
  }
}

// Runs `steps` on `array` with the exactness check, and returns the
// cells each program evaluated exactly, by page.
template <typename Steps>
std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t>
run_checked(NandArray& array, Steps&& steps) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> exact;
  std::uint64_t before = array.sense_counts().exact_cells;
  Rng data_rng(0xDA7A5);
  steps(array, data_rng, [&](PageAddress addr, const ProgramResult* result) {
    if (result != nullptr) {
      exact[{addr.block, addr.page}] =
          array.sense_counts().exact_cells - before;
      before = array.sense_counts().exact_cells;
    }
    expect_sensed_exactly(array, addr, result);
  });
  return exact;
}

TEST(Array, SensedProgramsReadExactlyTheReplayedThresholds) {
  for (const auto& [name, config] : sensing_configs()) {
    SCOPED_TRACE(name);
    NandArray array(config);
    const auto exact = run_checked(array, [](auto&&... args) {
      sensing_steps(std::forward<decltype(args)>(args)...);
    });
    const Geometry& geometry = config.geometry;
    const NandArray::SenseCounts& counts = array.sense_counts();
    EXPECT_GT(counts.exact_cells, 0u);
    if (name == "r1_near" || name == "wide_erased") {
      EXPECT_GT(counts.erase_exceptions, 0u);
      // All-L0 pages have cells whose erased threshold reads L1.
      for (std::uint32_t b = 0; b < 10; ++b) {
        EXPECT_LT(array.read_page({b, kErasedPage}).popcount(),
                  geometry.bits_per_page());
      }
    }
    if (name == "wide_erased") {
      // Most erased draws could cross R1.
      EXPECT_GT(counts.erase_exceptions,
                std::uint64_t{geometry.cells_per_page()} * geometry.pages() /
                    2);
    }
    if (name == "op_low") {
      // Under ISPP-SV, L3's mean lies above OP: L3 admits nothing, and
      // every cell of an all-L3 page is evaluated.
      for (std::uint32_t b = 0; b < 5; ++b) {
        EXPECT_EQ(exact.at({b, kL3Page}), geometry.cells_per_page());
      }
    }
  }
}

TEST(Array, SensingIsExactFromEveryStreamState) {
  NandArray array(sensing_configs().front().second);
  const auto exact = run_checked(array, [](auto&&... args) {
    stream_state_steps(std::forward<decltype(args)>(args)...);
  });
  // A held value has no radius to bound: the one-cell program that
  // drew only a held value evaluated it.
  EXPECT_EQ(exact.at({0, 2}), 1u);
}

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

TEST(Array, MonteCarloRberIsPinned) {
  const ArrayConfig config;
  const double sv = monte_carlo_rber(config, ProgramAlgorithm::kIsppSv, 3e4,
                                     40, ProgramMode::kStatistical, 11);
  const double dv = monte_carlo_rber(config, ProgramAlgorithm::kIsppDv, 1e6,
                                     6, ProgramMode::kIsppSimulation, 12);
  EXPECT_GT(sv, 0.0);
  EXPECT_GT(dv, 0.0);
  EXPECT_EQ(bits_of(sv), 0x3ED53D0F8CB48704ull) << sv;
  EXPECT_EQ(bits_of(dv), 0x3F261F9ADD3C0CA4ull) << dv;
}

// Looking at an erased page before programming it draws nothing from
// the array's noise stream: the page programs to the same thresholds,
// and the next page's draws are the same, as when nobody looked.
TEST(Array, ReadingAnErasedPageLeavesTheStreamAlone) {
  for (ProgramMode mode :
       {ProgramMode::kStatistical, ProgramMode::kIsppSimulation}) {
    NandArray looked(tiny_config());
    NandArray untouched(tiny_config());
    Rng data_rng(9);
    const BitVec first = random_page_bits(looked.config().geometry, data_rng);
    const BitVec second = random_page_bits(looked.config().geometry, data_rng);

    const auto erased = looked.thresholds({0, 0});
    (void)looked.read_page({0, 0});
    (void)looked.read_levels({0, 1});
    (void)looked.thresholds({0, 1});
    for (NandArray* array : {&looked, &untouched}) {
      array->program_page({0, 0}, first, ProgramAlgorithm::kIsppSv, 0.0, mode);
      array->program_page({0, 1}, second, ProgramAlgorithm::kIsppDv, 0.0,
                          mode);
    }
    EXPECT_EQ(looked.thresholds({0, 0}), untouched.thresholds({0, 0}));
    EXPECT_EQ(looked.thresholds({0, 1}), untouched.thresholds({0, 1}));
    EXPECT_EQ(looked.read_page({0, 1}), untouched.read_page({0, 1}));
    // The cells the program left at L0 kept their erased thresholds.
    const auto programmed = looked.thresholds({0, 0});
    const auto targets = NandArray::bits_to_levels(first);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (targets[i] == Level::kL0 && mode == ProgramMode::kStatistical) {
        EXPECT_EQ(programmed[i], erased[i]) << "cell " << i;
      }
    }
  }
}

// --- word-level page I/O ----------------------------------------------
// Every level at every cell index mod 32 (one 64-bit word holds 32
// cells): cell i of 128 holds level (i / 32 + i % 32) % 4.
Level level_at(std::size_t i) {
  return static_cast<Level>((i / 32 + i % 32) % 4);
}

TEST(Array, BitsToLevelsPlacesEveryLevelAtEveryWordOffset) {
  BitVec bits(2 * 128 + 2 * 7);  // a partial tail word too
  for (std::size_t i = 0; i < bits.size() / 2; ++i) {
    const Bits2 b = level_to_bits(level_at(i));
    bits.set(2 * i, b.msb);
    bits.set(2 * i + 1, b.lsb);
  }
  const auto levels = NandArray::bits_to_levels(bits);
  ASSERT_EQ(levels.size(), bits.size() / 2);
  for (std::size_t i = 0; i < levels.size(); ++i) {
    EXPECT_EQ(levels[i], level_at(i)) << "cell " << i;
    EXPECT_EQ(levels[i],
              bits_to_level(Bits2{bits.get(2 * i), bits.get(2 * i + 1)}));
  }
}

TEST(Array, ReadPagePlacesEveryLevelAtEveryWordOffset) {
  NandArray array(tiny_config());
  const Geometry& geometry = array.config().geometry;
  BitVec data(geometry.bits_per_page());
  for (std::size_t i = 0; i < geometry.cells_per_page(); ++i) {
    const Bits2 b = level_to_bits(level_at(i % 128));
    data.set(2 * i, b.msb);
    data.set(2 * i + 1, b.lsb);
  }
  array.program_page({0, 0}, data, ProgramAlgorithm::kIsppDv, 0.0);
  const BitVec read = array.read_page({0, 0});
  // Per-bit oracle over the sensed levels.
  EXPECT_EQ(read, NandArray::levels_to_bits(array.read_levels({0, 0})));
  EXPECT_LE(read.hamming_distance(data), 2u);
  // An erased page reads all ones (L0 = 11) up to the erase tail.
  const BitVec erased = array.read_page({0, 1});
  EXPECT_EQ(erased, NandArray::levels_to_bits(array.read_levels({0, 1})));
  EXPECT_GE(erased.popcount(), erased.size() - 2);
}

}  // namespace
}  // namespace xlf::nand
