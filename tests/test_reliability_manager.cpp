#include "src/controller/reliability_manager.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/bch/code_params.hpp"

namespace xlf::controller {
namespace {

using policy::Tuning;

ReliabilityManager make_manager(Tuning tuning) {
  return ReliabilityManager(ReliabilityConfig{}, bch::CodeFamily{}, tuning,
                            nand::AgingLaw{});
}

// The paper's family with t capped at 10: too weak for EOL ISPP-SV,
// plenty at BOL.
bch::CodeFamily tight_family() {
  bch::CodeFamily tight;
  tight.t_max = 10;
  return tight;
}

TEST(ReliabilityManager, ModelBasedSchedulesMatchPaper) {
  // Section 6.2: SV needs tMIN ~3-4 at BOL and tMAX = 65 at EOL; the
  // DV schedule stays far lower.
  const ReliabilityManager manager =
      make_manager(Tuning::kModelBased);
  EXPECT_LE(manager.select_t(nand::ProgramAlgorithm::kIsppSv, 1.0), 4u);
  EXPECT_EQ(manager.select_t(nand::ProgramAlgorithm::kIsppSv, 1e6), 65u);
  EXPECT_FALSE(manager.saturated());
  EXPECT_EQ(manager.select_t(nand::ProgramAlgorithm::kIsppDv, 1.0), 3u);
  const unsigned dv_eol =
      manager.select_t(nand::ProgramAlgorithm::kIsppDv, 1e6);
  EXPECT_GE(dv_eol, 14u);  // paper quotes 14; exact Eq.-(1) gives 16
  EXPECT_LE(dv_eol, 17u);
}

TEST(ReliabilityManager, ScheduleMonotoneOverLife) {
  const ReliabilityManager manager =
      make_manager(Tuning::kModelBased);
  for (auto algo :
       {nand::ProgramAlgorithm::kIsppSv, nand::ProgramAlgorithm::kIsppDv}) {
    unsigned prev = 0;
    for (double c = 1.0; c <= 1e6; c *= 2.0) {
      const unsigned t = manager.select_t(algo, c);
      EXPECT_GE(t, prev);
      prev = t;
    }
  }
}

TEST(ReliabilityManager, PredictedUberMeetsTarget) {
  const ReliabilityManager manager =
      make_manager(Tuning::kModelBased);
  for (auto algo :
       {nand::ProgramAlgorithm::kIsppSv, nand::ProgramAlgorithm::kIsppDv}) {
    for (double c : {1.0, 1e3, 1e5, 1e6}) {
      EXPECT_LE(manager.predicted_uber(algo, c), 1e-11 * 1.0001)
          << to_string(algo) << " " << c;
    }
  }
}

TEST(ReliabilityManager, SaturationReported) {
  const ReliabilityManager manager(ReliabilityConfig{}, tight_family(),
                                   Tuning::kModelBased, nand::AgingLaw{});
  EXPECT_EQ(manager.select_t(nand::ProgramAlgorithm::kIsppSv, 1e6), 10u);
  EXPECT_TRUE(manager.saturated());
}

TEST(ReliabilityManager, StaticPolicyKeepsFallback) {
  const ReliabilityManager manager = make_manager(Tuning::kStatic);
  EXPECT_EQ(
      manager.recommended_t(nand::ProgramAlgorithm::kIsppSv, 1e6, 12u), 12u);
}

TEST(ReliabilityManager, FeedbackWaitsForWarmup) {
  ReliabilityManager manager = make_manager(Tuning::kFeedback);
  EXPECT_FALSE(manager.estimate_ready());
  EXPECT_EQ(
      manager.recommended_t(nand::ProgramAlgorithm::kIsppSv, 1e5, 7u), 7u);
}

TEST(ReliabilityManager, FeedbackConvergesToObservedRate) {
  ReliabilityManager manager = make_manager(Tuning::kFeedback);
  // Feed decodes at a known error density: 33 corrected bits per
  // 33808-bit codeword = RBER ~9.76e-4 (the EOL SV point).
  for (int i = 0; i < 400; ++i) manager.observe_decode(33, 33808);
  EXPECT_TRUE(manager.estimate_ready());
  EXPECT_NEAR(manager.estimated_rber(), 33.0 / 33808.0, 2e-5);
  const unsigned t =
      manager.recommended_t(nand::ProgramAlgorithm::kIsppSv, 0.0, 3u);
  // With the 1.25x safety margin this must land at/near the EOL t.
  EXPECT_GE(t, 60u);
  EXPECT_LE(t, 65u);
}

TEST(ReliabilityManager, FeedbackWithNoErrorsFallsToFloor) {
  ReliabilityManager manager = make_manager(Tuning::kFeedback);
  for (int i = 0; i < 100; ++i) manager.observe_decode(0, 33808);
  EXPECT_EQ(
      manager.recommended_t(nand::ProgramAlgorithm::kIsppSv, 1e6, 40u), 3u);
}

TEST(ReliabilityManager, FeedbackTracksModelAcrossLife) {
  // Feeding synthetic observations drawn from the aging law must make
  // the feedback schedule track the model-based one within a step or
  // two (the safety factor biases it upward).
  const nand::AgingLaw law;
  const ReliabilityManager model = make_manager(Tuning::kModelBased);
  for (double c : {1e3, 1e5, 1e6}) {
    ReliabilityManager feedback = make_manager(Tuning::kFeedback);
    const double rber = law.rber(nand::ProgramAlgorithm::kIsppSv, c);
    const auto corrected = static_cast<unsigned>(rber * 33808.0 + 0.5);
    for (int i = 0; i < 200; ++i) feedback.observe_decode(corrected, 33808);
    const unsigned t_feedback =
        feedback.recommended_t(nand::ProgramAlgorithm::kIsppSv, c, 3u);
    const unsigned t_model = model.select_t(nand::ProgramAlgorithm::kIsppSv, c);
    EXPECT_GE(t_feedback + 1, t_model) << c;   // never dangerously below
    EXPECT_LE(t_feedback, t_model + 8) << c;   // nor wastefully above
  }
}

// Eq. (1) is memoised on the exact rber; every answer, hit or miss,
// must equal a fresh solve. Six distinct rbers cycled twice overflow
// the memo (each call evicts), and runs of repeats then hit it.
TEST(ReliabilityManager, MemoisedSelectionEqualsFreshSolve) {
  const ReliabilityConfig config;
  const bch::CodeFamily code;
  const ReliabilityManager manager = make_manager(Tuning::kModelBased);
  const nand::AgingLaw law;
  const auto fresh = [&](nand::ProgramAlgorithm algo, double pe) {
    return bch::min_t_for_uber(law.rber(algo, pe), config.uber_target,
                               code.k, code.m, code.t_min, code.t_max)
        .value_or(code.t_max);
  };
  const double ages[] = {1.0, 3e2, 1e4, 7e4, 3e5, 1e6};
  std::vector<std::pair<nand::ProgramAlgorithm, double>> calls;
  for (int round = 0; round < 2; ++round) {
    for (double age : ages) {
      calls.emplace_back(nand::ProgramAlgorithm::kIsppSv, age);
    }
  }
  for (double age : ages) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      calls.emplace_back(nand::ProgramAlgorithm::kIsppDv, age);
    }
    calls.emplace_back(nand::ProgramAlgorithm::kIsppSv, age);
  }
  for (const auto& [algo, age] : calls) {
    EXPECT_EQ(manager.select_t(algo, age), fresh(algo, age))
        << to_string(algo) << " " << age;
  }
}

// The saturation flag reports the latest selection, also when it is
// answered from the memo.
TEST(ReliabilityManager, SaturationFollowsEveryCallThroughTheMemo) {
  const ReliabilityManager manager(ReliabilityConfig{}, tight_family(),
                                   Tuning::kModelBased, nand::AgingLaw{});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(manager.select_t(nand::ProgramAlgorithm::kIsppSv, 1e6), 10u);
    EXPECT_TRUE(manager.saturated()) << i;
    EXPECT_LT(manager.select_t(nand::ProgramAlgorithm::kIsppSv, 1.0), 10u);
    EXPECT_FALSE(manager.saturated()) << i;
  }
}

TEST(ReliabilityManager, InvalidConfigsRejected) {
  ReliabilityConfig bad;
  bad.uber_target = 0.0;
  EXPECT_THROW(ReliabilityManager(bad, bch::CodeFamily{}, Tuning::kStatic,
                                  nand::AgingLaw{}),
               std::invalid_argument);
  bad = ReliabilityConfig{};
  bad.safety_factor = 0.5;
  EXPECT_THROW(ReliabilityManager(bad, bch::CodeFamily{}, Tuning::kStatic,
                                  nand::AgingLaw{}),
               std::invalid_argument);
  bch::CodeFamily bad_code;
  bad_code.t_min = 0;
  EXPECT_THROW(ReliabilityManager(ReliabilityConfig{}, bad_code,
                                  Tuning::kStatic, nand::AgingLaw{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace xlf::controller
