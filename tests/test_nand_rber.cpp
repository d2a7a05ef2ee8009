#include "src/nand/rber_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/nand/array.hpp"
#include "src/util/stats.hpp"

namespace xlf::nand {
namespace {

RberModel default_model() {
  const ArrayConfig config;
  return RberModel(config.plan, config.aging, config.ispp, config.variability,
                   config.interference);
}

TEST(RberModel, MacroLawPassThrough) {
  const RberModel model = default_model();
  const AgingLaw law;
  for (double c : {1.0, 1e4, 1e6}) {
    EXPECT_DOUBLE_EQ(model.rber(ProgramAlgorithm::kIsppSv, c),
                     law.rber(ProgramAlgorithm::kIsppSv, c));
  }
}

TEST(RberModel, OverlapRberMonotoneInSigma) {
  const RberModel model = default_model();
  double prev = 0.0;
  for (double sigma = 0.05; sigma <= 0.5; sigma += 0.05) {
    const double r =
        model.rber_from_overlap(ProgramAlgorithm::kIsppSv, Volts{sigma});
    EXPECT_GT(r, prev);
    prev = r;
  }
}

TEST(RberModel, EffectiveSigmaReproducesMacroLaw) {
  // The solved sigma plugged back into the overlap computation must
  // return the macro RBER — the calibration identity.
  const RberModel model = default_model();
  for (auto algo : {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    for (double c : {1.0, 1e4, 1e5, 1e6}) {
      const Volts sigma = model.effective_sigma(algo, c);
      const double reproduced = model.rber_from_overlap(algo, sigma);
      const double target = model.rber(algo, c);
      EXPECT_NEAR(reproduced / target, 1.0, 1e-3)
          << to_string(algo) << " at " << c;
    }
  }
}

TEST(RberModel, DomainEndsWhereTheSigmaBracketDoes) {
  const RberModel model = default_model();
  const double limit = model.max_cycles();
  // ISPP-SV sets the limit, near RBER 0.2 (about 3.2e7 P/E cycles).
  EXPECT_NEAR(model.rber(ProgramAlgorithm::kIsppSv, limit),
              model.rber_from_overlap(ProgramAlgorithm::kIsppSv,
                                      Volts{RberModel::kMaxSigmaVolts}),
              1e-9);
  EXPECT_GT(limit, 3e7);
  EXPECT_LT(limit, 3.5e7);
  // Just inside, the bisection solves; just outside, it cannot.
  EXPECT_LT(model.effective_sigma(ProgramAlgorithm::kIsppSv, limit * 0.999)
                .value(),
            RberModel::kMaxSigmaVolts);
  EXPECT_THROW(model.effective_sigma(ProgramAlgorithm::kIsppSv, limit * 1.001),
               std::logic_error);
}

TEST(RberModel, SigmaGrowsWithAgeAndDvIsTighter) {
  const RberModel model = default_model();
  for (auto algo : {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    EXPECT_GT(model.effective_sigma(algo, 1e6).value(),
              model.effective_sigma(algo, 1.0).value());
  }
  for (double c : {1.0, 1e5, 1e6}) {
    EXPECT_LT(model.effective_sigma(ProgramAlgorithm::kIsppDv, c).value(),
              model.effective_sigma(ProgramAlgorithm::kIsppSv, c).value());
  }
}

TEST(RberModel, PlacementTighterForDv) {
  const RberModel model = default_model();
  EXPECT_LT(model.placement_offset(ProgramAlgorithm::kIsppDv).value(),
            model.placement_offset(ProgramAlgorithm::kIsppSv).value());
  EXPECT_LT(model.placement_sigma(ProgramAlgorithm::kIsppDv).value(),
            model.placement_sigma(ProgramAlgorithm::kIsppSv).value());
}

TEST(RberModel, EffectiveFinalStepMatchesStaircasePhysics) {
  const RberModel model = default_model();
  const ArrayConfig config;
  // SV: the full Delta-ISPP.
  EXPECT_NEAR(model.effective_final_step(ProgramAlgorithm::kIsppSv).value(),
              config.ispp.v_step.value(), 1e-12);
  // DV: the bitline bias shrinks the crawl step well below the full
  // step but it stays positive.
  const double crawl =
      model.effective_final_step(ProgramAlgorithm::kIsppDv).value();
  EXPECT_LT(crawl, 0.5 * config.ispp.v_step.value());
  EXPECT_GT(crawl, 0.0);
}

TEST(RberModel, WearSigmaComposesWithPlacement) {
  // placement^2 + wear^2 ~ effective^2 (the decomposition the array
  // simulation applies).
  const RberModel model = default_model();
  for (auto algo : {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    const double place = model.placement_sigma(algo).value();
    const double wear = model.wear_sigma(algo, 1e5).value();
    const double eff = model.effective_sigma(algo, 1e5).value();
    EXPECT_NEAR(std::sqrt(place * place + wear * wear), eff, 0.02);
  }
}

TEST(RberModel, DistributionsMatchVoltagePlan) {
  const RberModel model = default_model();
  const ArrayConfig config;
  const LevelDistribution l0 =
      model.distribution(Level::kL0, ProgramAlgorithm::kIsppSv, 1e4);
  EXPECT_DOUBLE_EQ(l0.mean.value(), config.plan.erased_mean.value());
  for (Level level : {Level::kL1, Level::kL2, Level::kL3}) {
    const LevelDistribution d =
        model.distribution(level, ProgramAlgorithm::kIsppSv, 1e4);
    EXPECT_GT(d.mean, config.plan.verify_for(level));
    EXPECT_LT(d.mean, config.plan.verify_for(level) + Volts{0.3});
  }
}

TEST(RberModel, MonteCarloStatisticalModeMatchesLaw) {
  // The statistical array placement must reproduce the macro law
  // within Monte-Carlo tolerance (the Fig. 5 companion check).
  const ArrayConfig config;
  const RberModel model = default_model();
  struct Case {
    double cycles;
    unsigned pages;
  };
  for (const Case& c : {Case{1e5, 120}, Case{1e6, 30}}) {
    for (auto algo : {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
      const double macro = model.rber(algo, c.cycles);
      const double measured = monte_carlo_rber(
          config, algo, c.cycles, c.pages, ProgramMode::kStatistical, 99);
      EXPECT_GT(measured, macro / 2.0) << to_string(algo) << " " << c.cycles;
      EXPECT_LT(measured, macro * 2.0) << to_string(algo) << " " << c.cycles;
    }
  }
}

TEST(RberModel, MonteCarloIsppModeWithinPhysicalTolerance) {
  // The pulse-by-pulse path carries non-Gaussian placement detail; it
  // must agree with the macro law within a small factor and preserve
  // the SV/DV ordering.
  const ArrayConfig config;
  const RberModel model = default_model();
  const double sv = monte_carlo_rber(config, ProgramAlgorithm::kIsppSv, 1e6,
                                     12, ProgramMode::kIsppSimulation, 7);
  const double dv = monte_carlo_rber(config, ProgramAlgorithm::kIsppDv, 1e6,
                                     12, ProgramMode::kIsppSimulation, 7);
  const double macro_sv = model.rber(ProgramAlgorithm::kIsppSv, 1e6);
  EXPECT_GT(sv, macro_sv / 5.0);
  EXPECT_LT(sv, macro_sv * 5.0);
  EXPECT_GT(sv, dv);  // DV strictly better
}

}  // namespace
}  // namespace xlf::nand
