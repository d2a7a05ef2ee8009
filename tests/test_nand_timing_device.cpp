#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/nand/device.hpp"
#include "src/nand/timing.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"

namespace xlf::nand {
namespace {

NandTiming make_timing() {
  const ArrayConfig array;
  return NandTiming(TimingConfig{}, array.ispp, array.plan, array.variability,
                    array.aging);
}

TEST(Timing, DatasheetConstants) {
  const NandTiming timing = make_timing();
  EXPECT_NEAR(timing.read_time().micros(), 75.0, 1e-9);   // [27]
  EXPECT_NEAR(timing.erase_time().millis(), 2.5, 1e-9);
}

TEST(Timing, SvProgramNearPaperQuote) {
  // Section 6.3.3 quotes ~1.5 ms for the ISPP-SV page program.
  const NandTiming timing = make_timing();
  const double ms =
      timing.program_time(ProgramAlgorithm::kIsppSv, 100.0).millis();
  EXPECT_GT(ms, 1.1);
  EXPECT_LT(ms, 1.9);
}

TEST(Timing, DvSlowerByPaperWindow) {
  // Fig. 9 window: the DV/SV ratio implies a 35-55% write loss.
  const NandTiming timing = make_timing();
  for (double c : {1.0, 1e4, 1e6}) {
    const double ratio = timing.program_time(ProgramAlgorithm::kIsppDv, c) /
                         timing.program_time(ProgramAlgorithm::kIsppSv, c);
    EXPECT_GT(ratio, 1.45) << c;
    EXPECT_LT(ratio, 2.3) << c;
  }
}

TEST(Timing, DvPenaltyGrowsOverLife) {
  const NandTiming timing = make_timing();
  const double bol = timing.program_time(ProgramAlgorithm::kIsppDv, 1e2) /
                     timing.program_time(ProgramAlgorithm::kIsppSv, 1e2);
  const double eol = timing.program_time(ProgramAlgorithm::kIsppDv, 1e6) /
                     timing.program_time(ProgramAlgorithm::kIsppSv, 1e6);
  EXPECT_GT(eol, bol);
}

TEST(Timing, TracesAreCachedPerAgeCell) {
  const NandTiming timing = make_timing();
  const IsppTrace& a = timing.sample_trace(ProgramAlgorithm::kIsppSv, 1e4);
  const IsppTrace& b = timing.sample_trace(ProgramAlgorithm::kIsppSv, 1e4);
  EXPECT_EQ(&a, &b);
  // 1.05e4 quantises onto 1e4's key; a fresh key characterises anew.
  ASSERT_EQ(NandTiming::age_key(1.05e4), NandTiming::age_key(1e4));
  EXPECT_EQ(&timing.sample_trace(ProgramAlgorithm::kIsppSv, 1.05e4), &a);
  EXPECT_EQ(timing.characterisations(), 1u);
  timing.sample_trace(ProgramAlgorithm::kIsppDv, 1e4);
  EXPECT_EQ(timing.characterisations(), 2u);
}

TEST(Timing, AgeKeyIsTwelvePerDecade) {
  EXPECT_EQ(NandTiming::age_key(0.0), 0);  // clamped to 1 P/E
  EXPECT_EQ(NandTiming::age_key(1.0), 0);
  EXPECT_EQ(NandTiming::age_key(10.0), 12);
  EXPECT_EQ(NandTiming::age_key(1e6), 72);
}

TEST(Device, SharedTimingIsUsedNotCopied) {
  DeviceConfig config;
  config.array.geometry.blocks = 1;
  config.array.geometry.pages_per_block = 2;
  config.data_plane = false;
  const auto timing = std::make_shared<const NandTiming>(
      config.timing, config.array.ispp, config.array.plan,
      config.array.variability, config.array.aging);
  NandDevice a(config, timing), b(config, timing);
  EXPECT_EQ(&a.timing(), timing.get());
  EXPECT_EQ(&b.timing(), timing.get());
  a.program_page({0, 0}, BitVec{});
  b.program_page({0, 1}, BitVec{});
  EXPECT_EQ(timing->characterisations(), 1u);
  // The single-argument constructor keeps a private timing.
  const NandDevice own(config);
  EXPECT_NE(&own.timing(), timing.get());
}

TEST(Timing, PatternTracesOrdered) {
  const NandTiming timing = make_timing();
  const Seconds l1 =
      timing.sample_trace(ProgramAlgorithm::kIsppSv, 10.0, Level::kL1)
          .duration();
  const Seconds l3 =
      timing.sample_trace(ProgramAlgorithm::kIsppSv, 10.0, Level::kL3)
          .duration();
  EXPECT_LT(l1, l3);
}

TEST(Timing, IoTransferAndLoadStrategies) {
  const NandTiming timing = make_timing();
  const Seconds load = timing.io_transfer_time(4096);
  EXPECT_GT(load.micros(), 10.0);
  const Seconds full = timing.page_write_time(
      ProgramAlgorithm::kIsppSv, 100.0, 4096, LoadStrategy::kFullSequence);
  const Seconds two_round = timing.page_write_time(
      ProgramAlgorithm::kIsppSv, 100.0, 4096, LoadStrategy::kTwoRound);
  // Two-round overlaps half the load (Section 6.3.3 mitigation).
  EXPECT_NEAR((full - two_round).value(), (load / 2.0).value(), 1e-12);
}

TEST(Device, AlgorithmSelectionIsTheRuntimeKnob) {
  DeviceConfig config;
  config.array.geometry.blocks = 1;
  config.array.geometry.pages_per_block = 2;
  NandDevice device(config);
  EXPECT_EQ(device.program_algorithm(), ProgramAlgorithm::kIsppSv);
  device.select_program_algorithm(ProgramAlgorithm::kIsppDv);
  EXPECT_EQ(device.program_algorithm(), ProgramAlgorithm::kIsppDv);
}

TEST(Device, SingleAlgorithmRomRejectsOthers) {
  DeviceConfig config;
  config.array.geometry.blocks = 1;
  config.array.geometry.pages_per_block = 2;
  config.available_algorithms = {ProgramAlgorithm::kIsppSv};
  NandDevice device(config);
  EXPECT_THROW(device.select_program_algorithm(ProgramAlgorithm::kIsppDv),
               std::invalid_argument);
  // Code-ROM devices cannot take uploads (Section 6.4).
  EXPECT_THROW(device.upload_algorithm(ProgramAlgorithm::kIsppDv),
               std::invalid_argument);
}

TEST(Device, SramStoreAcceptsUploads) {
  DeviceConfig config;
  config.array.geometry.blocks = 1;
  config.array.geometry.pages_per_block = 2;
  config.store = AlgorithmStore::kSram;
  config.available_algorithms = {ProgramAlgorithm::kIsppSv};
  NandDevice device(config);
  const std::size_t before = device.code_store_bytes();
  device.upload_algorithm(ProgramAlgorithm::kIsppDv);
  EXPECT_EQ(device.algorithms_resident(), 2u);
  EXPECT_GT(device.code_store_bytes(), before);
  EXPECT_NO_THROW(device.select_program_algorithm(ProgramAlgorithm::kIsppDv));
}

TEST(Device, CodeRomGrowthIsSmall) {
  // Section 6.4: selectability costs only "a small increase of the
  // code-ROM capacity".
  DeviceConfig single;
  single.array.geometry.blocks = 1;
  single.array.geometry.pages_per_block = 2;
  single.available_algorithms = {ProgramAlgorithm::kIsppSv};
  DeviceConfig dual = single;
  dual.available_algorithms = {ProgramAlgorithm::kIsppSv,
                               ProgramAlgorithm::kIsppDv};
  const NandDevice a(single), b(dual);
  const double growth = static_cast<double>(b.code_store_bytes()) /
                            a.code_store_bytes() -
                        1.0;
  EXPECT_GT(growth, 0.0);
  EXPECT_LT(growth, 0.15);
}

TEST(Device, CommandSetRoundTrip) {
  DeviceConfig config;
  config.array.geometry.blocks = 1;
  config.array.geometry.pages_per_block = 2;
  NandDevice device(config);
  Rng rng(1);
  BitVec data(device.geometry().bits_per_page());
  for (std::size_t i = 0; i < data.size(); ++i) data.set(i, rng.chance(0.5));

  const ProgramOutcome write = device.program_page({0, 0}, data);
  EXPECT_TRUE(write.ok);
  EXPECT_GT(write.busy_time.millis(), 1.0);

  const ReadOutcome read = device.read_page({0, 0});
  EXPECT_NEAR(read.busy_time.micros(), 75.0, 1e-9);
  EXPECT_LE(read.data.hamming_distance(data), 2u);

  const EraseOutcome erase = device.erase_block(0);
  EXPECT_NEAR(erase.busy_time.millis(), 2.5, 1e-9);
}

TEST(Device, UniformWearApplies) {
  DeviceConfig config;
  config.array.geometry.blocks = 3;
  config.array.geometry.pages_per_block = 2;
  NandDevice device(config);
  device.set_uniform_wear(1234.0);
  for (std::uint32_t b = 0; b < 3; ++b) {
    EXPECT_DOUBLE_EQ(device.wear(b), 1234.0);
  }
}

// Without a cell array, a device's wear limit is the aging law's
// domain (RBER 1): an erase or a set_wear that would reach it fails with
// a named error and changes nothing; one short of it still erases.
TEST(Device, MetadataOnlyWearStopsAtTheAgingLawAndChangesNothing) {
  DeviceConfig config;
  config.data_plane = false;
  config.array.geometry.blocks = 2;
  config.array.geometry.pages_per_block = 2;
  NandDevice device(config);
  const double limit = config.array.aging.max_cycles();
  device.set_wear(0, limit - 1.5);
  device.erase_block(0);
  try {
    device.erase_block(0);
    FAIL() << "an erase reaching the limit must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("metadata-only block 0 would reach"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("at or past the aging law's limit of 9.17289e+07"),
              std::string::npos)
        << what;
  }
  EXPECT_THROW(device.set_wear(1, limit), std::invalid_argument);
  EXPECT_THROW(device.set_wear(1, -1.0), std::invalid_argument);
  EXPECT_EQ(device.wear(0), limit - 0.5);
  EXPECT_EQ(device.erase_count(0), 1u);
  EXPECT_EQ(device.wear(1), 0.0);
}

TEST(Timing, SharedCacheIsThreadSafeAndValueStable) {
  // The ISPP characterisation cache is the one mutable piece of
  // NandTiming; concurrent first-touch from many workers must neither
  // race nor change any value versus a serial reference instance.
  const NandTiming shared = make_timing();
  const NandTiming reference = make_timing();
  const std::vector<double> ages{1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6};

  ThreadPool pool(8);
  std::vector<double> sv(ages.size()), dv(ages.size());
  pool.parallel_for(ages.size(), [&](std::size_t i) {
    // Both algorithms from every worker: maximum cache contention.
    sv[i] = shared.program_time(ProgramAlgorithm::kIsppSv, ages[i]).value();
    dv[i] = shared.program_time(ProgramAlgorithm::kIsppDv, ages[i]).value();
  });
  for (std::size_t i = 0; i < ages.size(); ++i) {
    EXPECT_EQ(sv[i],
              reference.program_time(ProgramAlgorithm::kIsppSv, ages[i]).value())
        << ages[i];
    EXPECT_EQ(dv[i],
              reference.program_time(ProgramAlgorithm::kIsppDv, ages[i]).value())
        << ages[i];
  }
  EXPECT_EQ(shared.characterisations(), 2 * ages.size());
}

TEST(Timing, ConcurrentFirstTouchesOfOneKeyCharacteriseOnce) {
  // Sixteen distinct ages on one key, requested by four workers at
  // once: the later callers wait for the first fill, none repeats it.
  const NandTiming timing = make_timing();
  ThreadPool pool(4);
  std::vector<const IsppTrace*> seen(16);
  pool.parallel_for(seen.size(), [&](std::size_t i) {
    const double age = 1e3 * (1.0 + 0.001 * static_cast<double>(i));
    ASSERT_EQ(NandTiming::age_key(age), NandTiming::age_key(1e3));
    seen[i] = &timing.sample_trace(ProgramAlgorithm::kIsppDv, age);
  });
  for (const IsppTrace* trace : seen) EXPECT_EQ(trace, seen.front());
  EXPECT_EQ(timing.characterisations(), 1u);
}

}  // namespace
}  // namespace xlf::nand
