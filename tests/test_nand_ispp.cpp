#include "src/nand/ispp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>

#include "src/nand/aging.hpp"
#include "src/nand/variability.hpp"
#include "src/util/stats.hpp"

namespace xlf::nand {
namespace {

struct Population {
  std::vector<FloatingGateCell> cells;
  std::vector<Level> targets;
};

Population make_population(std::size_t count, double pe_cycles,
                           std::uint64_t seed,
                           std::optional<Level> pattern = std::nullopt) {
  const VariabilityConfig vcfg;
  const AgingLaw aging;
  const VariabilitySampler sampler(vcfg, aging);
  const VoltagePlan plan;
  Rng rng(seed);
  Population pop;
  for (std::size_t i = 0; i < count; ++i) {
    pop.cells.emplace_back(
        sampler.sample_erased(rng, plan.erased_mean, plan.erased_sigma),
        sampler.sample(rng, pe_cycles));
    pop.targets.push_back(pattern.value_or(static_cast<Level>(rng.below(4))));
  }
  return pop;
}

double level_sigma(const Population& pop, Level level) {
  RunningStats stats;
  for (std::size_t i = 0; i < pop.cells.size(); ++i) {
    if (pop.targets[i] == level) stats.add(pop.cells[i].vth().value());
  }
  return stats.stddev();
}

TEST(Ispp, AllCellsConvergeAtBeginningOfLife) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  for (auto algo : {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    Population pop = make_population(2048, 0.0, 11);
    Rng rng(1);
    const IsppTrace trace =
        engine.program(pop.cells, pop.targets, algo, rng);
    EXPECT_TRUE(trace.converged) << to_string(algo);
    EXPECT_EQ(trace.failed_cells, 0u);
  }
}

TEST(Ispp, ProgrammedCellsLandAboveTheirVerifyLevel) {
  const VoltagePlan plan;
  const IsppEngine engine(IsppConfig{}, plan);
  Population pop = make_population(2048, 0.0, 12);
  Rng rng(2);
  engine.program(pop.cells, pop.targets, ProgramAlgorithm::kIsppSv, rng);
  for (std::size_t i = 0; i < pop.cells.size(); ++i) {
    if (pop.targets[i] == Level::kL0) {
      EXPECT_LT(pop.cells[i].vth(), plan.read[0]);
    } else {
      EXPECT_GE(pop.cells[i].vth() + Volts{1e-9},
                plan.verify_for(pop.targets[i]));
    }
  }
}

TEST(Ispp, DvCompactsDistributions) {
  // The double-verify slow zone must tighten the programmed spread —
  // the physical mechanism behind the Fig. 5 RBER gap.
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  Population sv_pop = make_population(6144, 0.0, 13);
  Population dv_pop = make_population(6144, 0.0, 13);  // same seeds
  Rng rng_sv(3), rng_dv(3);
  engine.program(sv_pop.cells, sv_pop.targets, ProgramAlgorithm::kIsppSv,
                 rng_sv);
  engine.program(dv_pop.cells, dv_pop.targets, ProgramAlgorithm::kIsppDv,
                 rng_dv);
  for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
    EXPECT_LT(level_sigma(dv_pop, level), level_sigma(sv_pop, level))
        << "level " << static_cast<int>(level);
  }
}

TEST(Ispp, DvTakesLongerAndSensesMore) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  Population sv_pop = make_population(2048, 0.0, 14);
  Population dv_pop = make_population(2048, 0.0, 14);
  Rng rng_sv(4), rng_dv(4);
  const IsppTrace sv =
      engine.program(sv_pop.cells, sv_pop.targets, ProgramAlgorithm::kIsppSv, rng_sv);
  const IsppTrace dv =
      engine.program(dv_pop.cells, dv_pop.targets, ProgramAlgorithm::kIsppDv, rng_dv);
  EXPECT_GT(dv.duration(), sv.duration());
  EXPECT_GT(dv.verify_ops, sv.verify_ops * 3 / 2);  // ~2x senses
  EXPECT_GE(dv.pulses, sv.pulses);                  // slow-zone crawl
  // The paper's write-loss window: DV costs ~1.4-2.1x SV.
  const double ratio = dv.duration() / sv.duration();
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 2.2);
}

TEST(Ispp, L0OnlyPageNeedsNoPulses) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  Population pop = make_population(256, 0.0, 15, Level::kL0);
  Rng rng(5);
  const IsppTrace trace =
      engine.program(pop.cells, pop.targets, ProgramAlgorithm::kIsppSv, rng);
  EXPECT_EQ(trace.pulses, 0u);
  EXPECT_EQ(trace.verify_ops, 0u);
  EXPECT_TRUE(trace.converged);
}

TEST(Ispp, PatternDurationOrderingL1L2L3) {
  // Higher targets keep the staircase running longer (Fig. 6's
  // pattern dependence).
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  std::map<int, double> durations;
  for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
    Population pop = make_population(2048, 0.0, 16, level);
    Rng rng(6);
    durations[static_cast<int>(level)] =
        engine.program(pop.cells, pop.targets, ProgramAlgorithm::kIsppSv, rng)
            .duration()
            .value();
  }
  EXPECT_LT(durations[1], durations[2]);
  EXPECT_LT(durations[2], durations[3]);
}

TEST(Ispp, HigherPatternRaisesAverageVcg) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  Population l1 = make_population(1024, 0.0, 17, Level::kL1);
  Population l3 = make_population(1024, 0.0, 17, Level::kL3);
  Rng rng1(7), rng3(7);
  const IsppTrace t1 =
      engine.program(l1.cells, l1.targets, ProgramAlgorithm::kIsppSv, rng1);
  const IsppTrace t3 =
      engine.program(l3.cells, l3.targets, ProgramAlgorithm::kIsppSv, rng3);
  EXPECT_GT(t3.average_vcg(), t1.average_vcg());
}

TEST(Ispp, WiderDvZoneSlowsDvFurther) {
  // The aging-driven zone widening is the Fig. 9 growth mechanism.
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  Population a = make_population(2048, 0.0, 18);
  Population b = make_population(2048, 0.0, 18);
  Rng rng_a(8), rng_b(8);
  const IsppTrace narrow =
      engine.program(a.cells, a.targets, ProgramAlgorithm::kIsppDv, rng_a, 1.0);
  const IsppTrace wide =
      engine.program(b.cells, b.targets, ProgramAlgorithm::kIsppDv, rng_b, 3.0);
  EXPECT_GT(wide.duration(), narrow.duration());
}

TEST(Ispp, TraceAccountingIsConsistent) {
  const IsppConfig config;
  const IsppEngine engine(config, VoltagePlan{});
  Population pop = make_population(1024, 0.0, 19);
  Rng rng(9);
  const IsppTrace trace =
      engine.program(pop.cells, pop.targets, ProgramAlgorithm::kIsppSv, rng);
  EXPECT_NEAR(trace.program_pump_time.value(),
              trace.pulses * config.pulse_time.value(), 1e-12);
  EXPECT_NEAR(trace.verify_pump_time.value(),
              trace.verify_ops * config.verify_time.value(), 1e-12);
  EXPECT_NEAR(trace.duration().value(),
              (trace.setup_time + trace.program_pump_time +
               trace.verify_pump_time)
                  .value(),
              1e-12);
  // Average VCG falls inside the staircase range.
  EXPECT_GE(trace.average_vcg(), config.v_start);
  EXPECT_LE(trace.average_vcg(), config.v_end);
}

TEST(Ispp, StaircaseResponseMatchesPulseCount) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  FloatingGateCell cell(Volts{-5.0}, CellParams{Volts{17.0}, Volts{0.4},
                                                Volts{0.0}});
  Rng rng(10);
  const auto response = engine.staircase_response(cell, Volts{6.0},
                                                  Volts{24.0}, Volts{1.0}, rng);
  EXPECT_EQ(response.size(), 19u);  // 6..24 inclusive, 1 V steps
  // Monotone non-decreasing threshold.
  for (std::size_t i = 1; i < response.size(); ++i) {
    EXPECT_GE(response[i] + Volts{1e-9}, response[i - 1]);
  }
}

// --- kernel pin ----------------------------------------------------------
//
// Every IsppTrace field and a hash of every final V_TH, pinned exactly
// for SV and DV at three ages and three data patterns. Any change to
// the kernel's arithmetic or to the order of its injection-noise draws
// moves at least the hash.

struct PinCase {
  ProgramAlgorithm algo;
  double pe_cycles;
  std::optional<Level> pattern;
};

struct PinValues {
  unsigned pulses;
  unsigned verify_ops;
  bool converged;
  unsigned failed_cells;
  double program_pump_s;
  double vcg_time_integral;
  double verify_pump_s;
  double inhibit_pump_s;
  std::uint64_t vth_hash;
};

std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  for (auto algo : {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    for (double pe : {1.0, 1e4, 1e6}) {
      for (std::optional<Level> pattern :
           {std::optional<Level>{}, std::optional<Level>{Level::kL1},
            std::optional<Level>{Level::kL3}}) {
        cases.push_back(PinCase{algo, pe, pattern});
      }
    }
  }
  return cases;
}

// FNV-1a over the bit patterns of every cell's final V_TH.
std::uint64_t vth_hash(const std::vector<FloatingGateCell>& cells) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const FloatingGateCell& cell : cells) {
    const auto bits = std::bit_cast<std::uint64_t>(cell.vth().value());
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

// Expected values, one row per pin_cases() entry, in that order.
const PinValues kPinned[] = {
    // SV, 1 P/E, random data
    {19, 31, true, 0, 0x1.8e757928e0c9dp-11, 0x1.94af4f0d844cfp-7,
     0x1.248d7e02645e5p-11, 0x1.8e757928e0c9dp-11, 0xbabc2d011986adb5ull},
    // SV, 1 P/E, all L1
    {9, 9, true, 0, 0x1.797cc39ffd60ep-12, 0x1.61e4f765fd8aep-8,
     0x1.53bd1676640a7p-13, 0x1.797cc39ffd60ep-12, 0xa0d70c765532b5a2ull},
    // SV, 1 P/E, all L3
    {19, 11, true, 0, 0x1.8e757928e0c9dp-11, 0x1.94af4f0d844cfp-7,
     0x1.9f3c70c996b77p-13, 0x1.8e757928e0c9dp-11, 0xb1ca8ebd4570b411ull},
    // SV, 1e4 P/E, random data
    {19, 31, true, 0, 0x1.8e757928e0c9dp-11, 0x1.94af4f0d844cfp-7,
     0x1.248d7e02645e5p-11, 0x1.8e757928e0c9dp-11, 0x8ff58554751e77f8ull},
    // SV, 1e4 P/E, all L1
    {9, 9, true, 0, 0x1.797cc39ffd60ep-12, 0x1.61e4f765fd8aep-8,
     0x1.53bd1676640a7p-13, 0x1.797cc39ffd60ep-12, 0xc20db0bc462f72ecull},
    // SV, 1e4 P/E, all L3
    {19, 11, true, 0, 0x1.8e757928e0c9dp-11, 0x1.94af4f0d844cfp-7,
     0x1.9f3c70c996b77p-13, 0x1.8e757928e0c9dp-11, 0xb446a2466a570ec5ull},
    // SV, 1e6 P/E, random data
    {20, 39, true, 0, 0x1.a36e2eb1c432cp-11, 0x1.ad42c3c9eecbfp-7,
     0x1.700cd855970b5p-11, 0x1.a36e2eb1c432cp-11, 0x0fba6393dddad2edull},
    // SV, 1e6 P/E, all L1
    {10, 10, true, 0, 0x1.a36e2eb1c432cp-12, 0x1.8c7e28240b78p-8,
     0x1.797cc39ffd60fp-13, 0x1.a36e2eb1c432cp-12, 0x34800b0babbff95aull},
    // SV, 1e6 P/E, all L3
    {20, 15, true, 0, 0x1.a36e2eb1c432cp-11, 0x1.ad42c3c9eecbfp-7,
     0x1.1b1d92b7fe08bp-12, 0x1.a36e2eb1c432cp-11, 0x6b8703a5c94e4ad3ull},
    // DV, 1 P/E, random data
    {21, 78, true, 0, 0x1.b866e43aa79bbp-11, 0x1.c62a1b5c7cd89p-7,
     0x1.700cd855970b5p-10, 0x1.b866e43aa79bbp-11, 0x6e2ea961ae0091c0ull},
    // DV, 1 P/E, all L1
    {11, 22, true, 0, 0x1.cd5f99c38b04ap-12, 0x1.b7bf1e8e60807p-8,
     0x1.9f3c70c996b77p-12, 0x1.cd5f99c38b04ap-12, 0x23a68019283caef7ull},
    // DV, 1 P/E, all L3
    {21, 28, true, 0, 0x1.b866e43aa79bbp-11, 0x1.c62a1b5c7cd89p-7,
     0x1.083dbc23315d7p-11, 0x1.b866e43aa79bbp-11, 0x5f70c365acf94f3cull},
    // DV, 1e4 P/E, random data
    {21, 78, true, 0, 0x1.b866e43aa79bbp-11, 0x1.c62a1b5c7cd89p-7,
     0x1.700cd855970b5p-10, 0x1.b866e43aa79bbp-11, 0x8ca7ef56a7ef10dfull},
    // DV, 1e4 P/E, all L1
    {11, 22, true, 0, 0x1.cd5f99c38b04ap-12, 0x1.b7bf1e8e60807p-8,
     0x1.9f3c70c996b77p-12, 0x1.cd5f99c38b04ap-12, 0x9f11bf4a2f6f1c4dull},
    // DV, 1e4 P/E, all L3
    {21, 30, true, 0, 0x1.b866e43aa79bbp-11, 0x1.c62a1b5c7cd89p-7,
     0x1.1b1d92b7fe08bp-11, 0x1.b866e43aa79bbp-11, 0x594291239027a8e6ull},
    // DV, 1e6 P/E, random data
    {25, 108, true, 0, 0x1.0624dd2f1a9fcp-10, 0x1.14e3bcd35a858p-6,
     0x1.fd9ba1b1960fbp-10, 0x1.0624dd2f1a9fcp-10, 0x783ba88b6c037feeull},
    // DV, 1e6 P/E, all L1
    {13, 26, true, 0, 0x1.10a137f38c543p-11, 0x1.081c2e33eff19p-7,
     0x1.eabbcb1cc9647p-12, 0x1.10a137f38c543p-11, 0xe3ef35f81621107cull},
    // DV, 1e6 P/E, all L3
    {26, 50, true, 0, 0x1.10a137f38c544p-10, 0x1.2157689ca18bdp-6,
     0x1.d7dbf487fcb93p-11, 0x1.10a137f38c544p-10, 0x4b3d7f92e9743693ull},
};

TEST(Ispp, KernelPinnedAcrossAlgorithmsAgesAndPatterns) {
  const IsppConfig config;
  const IsppEngine engine(config, VoltagePlan{});
  const AgingLaw aging;
  const std::vector<PinCase> cases = pin_cases();
  ASSERT_EQ(std::size(kPinned), cases.size());
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const PinCase& pin = cases[c];
    Population pop = make_population(2048, pin.pe_cycles, 21, pin.pattern);
    Rng rng(31);
    const IsppTrace trace =
        engine.program(pop.cells, pop.targets, pin.algo, rng,
                       aging.dv_zone_multiplier(pin.pe_cycles));
    const PinValues& want = kPinned[c];
    SCOPED_TRACE(testing::Message()
                 << to_string(pin.algo) << " at " << pin.pe_cycles << " P/E, "
                 << (pin.pattern ? static_cast<int>(*pin.pattern) : -1));
    EXPECT_EQ(trace.algorithm, pin.algo);
    EXPECT_EQ(trace.setup_time.value(), config.setup_time.value());
    EXPECT_EQ(trace.pulses, want.pulses);
    EXPECT_EQ(trace.verify_ops, want.verify_ops);
    EXPECT_EQ(trace.converged, want.converged);
    EXPECT_EQ(trace.failed_cells, want.failed_cells);
    EXPECT_EQ(trace.program_pump_time.value(), want.program_pump_s);
    EXPECT_EQ(trace.vcg_time_integral, want.vcg_time_integral);
    EXPECT_EQ(trace.verify_pump_time.value(), want.verify_pump_s);
    EXPECT_EQ(trace.inhibit_pump_time.value(), want.inhibit_pump_s);
    EXPECT_EQ(vth_hash(pop.cells), want.vth_hash);
  }
}

TEST(Ispp, MismatchedSpansRejected) {
  const IsppEngine engine(IsppConfig{}, VoltagePlan{});
  std::vector<FloatingGateCell> cells(4);
  std::vector<Level> targets(5, Level::kL1);
  Rng rng(11);
  EXPECT_THROW(
      engine.program(cells, targets, ProgramAlgorithm::kIsppSv, rng),
      std::invalid_argument);
}

}  // namespace
}  // namespace xlf::nand
