// End-to-end assertions of the paper's headline claims, exercised
// through the full stack (device + controller + framework), not the
// individual models. This is the reproduction contract: if any of
// these breaks, a figure stopped matching the paper's shape.
#include <gtest/gtest.h>

#include "src/core/cross_layer.hpp"
#include "src/core/paper.hpp"
#include "src/core/subsystem.hpp"
#include "src/ftl/ssd.hpp"
#include "src/sim/host_workload.hpp"
#include "src/sim/ssd_sim.hpp"

namespace xlf::core {
namespace {

struct Fixture {
  SubsystemConfig config;
  std::unique_ptr<MemorySubsystem> subsystem;

  Fixture() {
    config = SubsystemConfig::defaults();
    config.device.array.geometry.blocks = 2;
    config.device.array.geometry.pages_per_block = 4;
    subsystem = std::make_unique<MemorySubsystem>(config);
  }
};

TEST(PaperClaims, Fig5RberGapIsOneOrderOfMagnitude) {
  const nand::AgingLaw law;
  for (double c : {1e2, 1e4, 1e6}) {
    const double ratio = law.rber(nand::ProgramAlgorithm::kIsppSv, c) /
                         law.rber(nand::ProgramAlgorithm::kIsppDv, c);
    EXPECT_NEAR(ratio, paper::kRberImprovementFactor, 0.1);
  }
}

TEST(PaperClaims, Fig7CapabilityChain) {
  // The annotated (RBER, t) pairs of Fig. 7.
  const auto t_for = [](double rber) {
    return bch::min_t_for_uber(rber, paper::kUberTarget, paper::kPageBits,
                               paper::kFieldDegree, 1, 100)
        .value_or(0);
  };
  EXPECT_EQ(t_for(1e-6), 3u);
  EXPECT_EQ(t_for(2.5e-6), 4u);
  EXPECT_NEAR(t_for(2.75e-4), 27.0, 1.0);
  EXPECT_NEAR(t_for(3.35e-4), 30.0, 1.0);
  EXPECT_NEAR(t_for(1e-3), 65.0, 1.0);
}

TEST(PaperClaims, Fig8LatencyEnvelope) {
  const ecc_hw::LatencyModel latency{ecc_hw::EccHwConfig{}};
  // Encode flat at ~51 us, t-independent by construction.
  EXPECT_NEAR(latency.encode_latency().micros(), 51.25, 0.1);
  // Decode between ~103 us and ~159 us — inside the 40..160 us plot.
  EXPECT_GT(latency.decode_latency(3).micros(), 40.0);
  EXPECT_LT(latency.decode_latency(65).micros(), 165.0);
  // The Section 6.3.2 ratio: decode dominates the 75 us page read.
  EXPECT_GT(latency.decode_latency(65), paper::kPageReadTime);
}

TEST(PaperClaims, Fig9WriteLossWindowEndToEnd) {
  Fixture fx;
  const nand::NandTiming& timing = fx.subsystem->device().timing();
  for (double c : {1e2, 1e6}) {
    const double sv =
        timing.program_time(nand::ProgramAlgorithm::kIsppSv, c).value();
    const double dv =
        timing.program_time(nand::ProgramAlgorithm::kIsppDv, c).value();
    const double loss = 100.0 * (1.0 - sv / dv);
    EXPECT_GT(loss, 33.0) << c;
    EXPECT_LT(loss, 55.0) << c;
  }
  // Section 6.3.3: the SV program time anchors near 1.5 ms.
  EXPECT_NEAR(
      timing.program_time(nand::ProgramAlgorithm::kIsppSv, 1e2).millis(),
      paper::kProgramTimeQuote.millis(), 0.4);
}

TEST(PaperClaims, Fig10MinUberBoostsWithoutReadPenalty) {
  Fixture fx;
  const CrossLayerFramework& fw = fx.subsystem->framework();
  for (double c : {1e2, 1e6}) {
    const Metrics base = fw.evaluate(OperatingPoint::baseline(), c);
    const Metrics boost = fw.evaluate(OperatingPoint::min_uber(), c);
    EXPECT_NEAR(boost.read_latency.value(), base.read_latency.value(), 1e-12);
    EXPECT_LT(boost.log10_uber, base.log10_uber - 3.0);
  }
  // The margin grows with age (Fig. 10's widening gap).
  const double gap_bol =
      fw.evaluate(OperatingPoint::baseline(), 1e2).log10_uber -
      fw.evaluate(OperatingPoint::min_uber(), 1e2).log10_uber;
  const double gap_eol =
      fw.evaluate(OperatingPoint::baseline(), 1e6).log10_uber -
      fw.evaluate(OperatingPoint::min_uber(), 1e6).log10_uber;
  EXPECT_GT(gap_eol, gap_bol);
}

TEST(PaperClaims, Fig11ReadGainReaches30PctAtEol) {
  Fixture fx;
  const CrossLayerFramework& fw = fx.subsystem->framework();
  const Metrics base = fw.evaluate(OperatingPoint::baseline(), 1e6);
  const Metrics cross = fw.evaluate(OperatingPoint::max_read(), 1e6);
  const double gain = compare(cross, base).read_throughput_gain_pct;
  EXPECT_NEAR(gain, paper::kReadGainEolPct, 5.0);
  EXPECT_LE(cross.uber, paper::kUberTarget * 1.0001);
}

TEST(PaperClaims, PowerStoryHoldsTogether) {
  Fixture fx;
  const CrossLayerFramework& fw = fx.subsystem->framework();
  const Metrics base = fw.evaluate(OperatingPoint::baseline(), 1e6);
  const Metrics cross = fw.evaluate(OperatingPoint::max_read(), 1e6);
  // NAND pays ~4-13 mW for DV...
  const double nand_penalty_mw =
      (cross.nand_program_power - base.nand_program_power).milliwatts();
  EXPECT_GT(nand_penalty_mw, 2.0);
  EXPECT_LT(nand_penalty_mw, 14.0);
  // ...the ECC returns ~5-7 mW...
  const double ecc_saving_mw =
      (base.ecc_decode_power - cross.ecc_decode_power).milliwatts();
  EXPECT_GT(ecc_saving_mw, 4.0);
  // ...so the budget moves by less than the NAND penalty alone.
  EXPECT_LT(std::abs((cross.total_power() - base.total_power()).milliwatts()),
            nand_penalty_mw);
}

TEST(PaperClaims, BitTrueLifetimeRunsStayCorrectable) {
  // Drive real traffic through the full stack at three ages under the
  // MaxRead point: every page must decode, every payload must match.
  // One 1x1 SSD per age, its die holding the point's t (static
  // tuning) on the smallest geometry the FTL accepts.
  sim::AccessPattern workload;
  workload.kind = sim::Pattern::kMixed;
  workload.read_fraction = 0.75;
  for (double cycles : {1e2, 1e5, 1e6}) {
    ftl::SsdConfig config;
    config.topology = {1, 1};
    config.die.device.array.geometry.blocks = 8;
    config.die.device.array.geometry.pages_per_block = 4;
    config.die.controller.tuning_policy = policy::Tuning::kStatic;
    config.initial_pe_cycles = cycles;
    config.point = OperatingPoint::max_read();
    ftl::Ssd ssd(config);
    sim::SsdSimConfig sim_config;
    sim_config.queue_depth = 1;
    sim::SsdSimulator simulator(ssd, sim_config);
    simulator.prepopulate();
    Rng rng(17);
    const sim::SsdSimStats stats = simulator.run(
        sim::generate_pattern(workload, ssd.logical_pages(), 24, rng));
    EXPECT_EQ(stats.uncorrectable, 0u) << cycles;
    EXPECT_EQ(stats.data_mismatches, 0u) << cycles;
    const Metrics predicted = ssd.die(0).framework().evaluate(
        OperatingPoint::max_read(), cycles);
    EXPECT_LE(predicted.uber, paper::kUberTarget * 1.0001) << cycles;
  }
}

TEST(PaperClaims, AblationOnlyCrossLayerWins) {
  // The paper's core argument as a single assertion: the ECC knob
  // alone violates the UBER target at EOL; the device knob alone buys
  // no read throughput; only the combination gives both.
  Fixture fx;
  const CrossLayerFramework& fw = fx.subsystem->framework();
  const double c = 1e6;
  const Metrics base = fw.evaluate(OperatingPoint::baseline(), c);

  const OperatingPoint ecc_only{"ecc-only", nand::ProgramAlgorithm::kIsppSv,
                                EccSchedule::kTrackDv, 3};
  const Metrics ecc_only_m = fw.evaluate(ecc_only, c);
  EXPECT_GT(ecc_only_m.uber, paper::kUberTarget * 100.0);  // broken

  const Metrics phys_only = fw.evaluate(OperatingPoint::min_uber(), c);
  EXPECT_NEAR(compare(phys_only, base).read_throughput_gain_pct, 0.0, 0.5);

  const Metrics cross = fw.evaluate(OperatingPoint::max_read(), c);
  EXPECT_GT(compare(cross, base).read_throughput_gain_pct, 24.0);
  EXPECT_LE(cross.uber, paper::kUberTarget * 1.0001);
}

}  // namespace
}  // namespace xlf::core
