#include <gtest/gtest.h>

#include "src/nand/aging.hpp"
#include "src/nand/variability.hpp"
#include "src/util/stats.hpp"

namespace xlf::nand {
namespace {

TEST(AgingLaw, PaperAnchors) {
  const AgingLaw law;
  // BOL RBER 2.5e-6 (Fig. 7: t=4 entry point).
  EXPECT_NEAR(law.rber(ProgramAlgorithm::kIsppSv, 0.0), 2.5e-6, 1e-8);
  // EOL RBER ~1e-3 (Fig. 7: t=65 point).
  EXPECT_NEAR(law.rber(ProgramAlgorithm::kIsppSv, 1e6), 1e-3, 5e-5);
  // One order of magnitude DV improvement at every age (Fig. 5).
  for (double c : {1.0, 1e3, 1e5, 1e6}) {
    EXPECT_NEAR(law.rber(ProgramAlgorithm::kIsppSv, c) /
                    law.rber(ProgramAlgorithm::kIsppDv, c),
                10.0, 1e-9);
  }
}

TEST(AgingLaw, RberMonotoneInCycles) {
  const AgingLaw law;
  for (auto algo : {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    double prev = 0.0;
    for (double c = 1.0; c <= 1e6; c *= 3.0) {
      const double r = law.rber(algo, c);
      EXPECT_GT(r, prev);
      prev = r;
    }
  }
}

TEST(AgingLaw, MicroEffectsScaleWithWear) {
  const AgingLaw law;
  // Cells get faster (negative onset shift) and more dispersed.
  EXPECT_NEAR(law.k_shift(0.0).value(), 0.0, 1e-12);
  EXPECT_LT(law.k_shift(1e6).value(), -0.2);
  EXPECT_NEAR(law.speed_spread_multiplier(0.0), 1.0, 1e-12);
  EXPECT_GT(law.speed_spread_multiplier(1e6), 1.4);
  EXPECT_NEAR(law.dv_zone_multiplier(0.0), 1.0, 1e-12);
  EXPECT_GT(law.dv_zone_multiplier(1e6), 2.0);
}

TEST(AgingLaw, InversionAndDomainLimitFollowTheLaw) {
  const AgingLaw law;
  for (ProgramAlgorithm algo :
       {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    for (double c : {1e3, 1e6, 3e7}) {
      EXPECT_NEAR(law.cycles_at_rber(algo, law.rber(algo, c)) / c, 1.0, 1e-9);
    }
  }
  // The law grows without bound; its domain ends where ISPP-SV, the
  // worse algorithm, reaches RBER 1 (about 9.2e7 P/E cycles).
  const double limit = law.max_cycles();
  EXPECT_NEAR(law.rber(ProgramAlgorithm::kIsppSv, limit), 1.0, 1e-9);
  EXPECT_GT(limit, 9e7);
  EXPECT_LT(limit, 1e8);
  EXPECT_LT(law.rber(ProgramAlgorithm::kIsppDv, limit), 1.0);
}

TEST(AgingLaw, NegativeCyclesRejected) {
  const AgingLaw law;
  EXPECT_THROW(law.rber(ProgramAlgorithm::kIsppSv, -1.0),
               std::invalid_argument);
  EXPECT_THROW(law.k_shift(-1.0), std::invalid_argument);
}

TEST(AlgorithmNames, Stringify) {
  EXPECT_STREQ(to_string(ProgramAlgorithm::kIsppSv), "ISPP-SV");
  EXPECT_STREQ(to_string(ProgramAlgorithm::kIsppDv), "ISPP-DV");
}

TEST(Variability, SampledOnsetTracksConfiguredSpread) {
  const VariabilityConfig config;
  const AgingLaw aging;
  const VariabilitySampler sampler(config, aging);
  Rng rng(1);
  RunningStats k_stats;
  for (int i = 0; i < 20000; ++i) {
    k_stats.add(sampler.sample(rng, 0.0).k_onset.value());
  }
  EXPECT_NEAR(k_stats.mean(), config.k_nominal.value(), 0.01);
  EXPECT_NEAR(k_stats.stddev(), config.k_sigma.value(), 0.01);
}

TEST(Variability, AgedPopulationIsFasterAndWider) {
  const VariabilityConfig config;
  const AgingLaw aging;
  const VariabilitySampler sampler(config, aging);
  Rng rng(2);
  RunningStats fresh, aged;
  for (int i = 0; i < 20000; ++i) {
    fresh.add(sampler.sample(rng, 0.0).k_onset.value());
    aged.add(sampler.sample(rng, 1e6).k_onset.value());
  }
  EXPECT_LT(aged.mean(), fresh.mean());        // trapped charge: faster
  EXPECT_GT(aged.stddev(), fresh.stddev());    // dispersion grows
}

TEST(Variability, SharpnessStaysPositive) {
  const VariabilityConfig config;
  const AgingLaw aging;
  const VariabilitySampler sampler(config, aging);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GT(sampler.sample(rng, 1e6).onset_sharpness.value(), 0.0);
  }
}

TEST(Variability, ErasedDistributionMatches) {
  const VariabilityConfig config;
  const AgingLaw aging;
  const VariabilitySampler sampler(config, aging);
  Rng rng(4);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(sampler.sample_erased(rng, Volts{-3.0}, Volts{0.4}).value());
  }
  EXPECT_NEAR(stats.mean(), -3.0, 0.01);
  EXPECT_NEAR(stats.stddev(), 0.4, 0.01);
}

}  // namespace
}  // namespace xlf::nand
