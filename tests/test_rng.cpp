#include "src/util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/util/stats.hpp"

namespace xlf {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.stddev(), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, BelowCoversRange) {
  Rng rng(17);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 80000; ++i) ++counts[rng.below(8)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.01);
}

TEST(Rng, GaussianScaled) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.gaussian(3.3, 0.25));
  EXPECT_NEAR(stats.mean(), 3.3, 0.01);
  EXPECT_NEAR(stats.stddev(), 0.25, 0.01);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(29);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(0.125)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.125, 0.01);
  EXPECT_THROW(rng.chance(1.5), std::invalid_argument);
}

TEST(Rng, PoissonSmallLambda) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.add(static_cast<double>(rng.poisson(2.5)));
  }
  EXPECT_NEAR(stats.mean(), 2.5, 0.05);
  EXPECT_NEAR(stats.variance(), 2.5, 0.1);
}

TEST(Rng, PoissonLargeLambdaUsesNormalApprox) {
  Rng rng(37);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) {
    stats.add(static_cast<double>(rng.poisson(100.0)));
  }
  EXPECT_NEAR(stats.mean(), 100.0, 1.0);
  EXPECT_NEAR(stats.stddev(), 10.0, 0.5);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(41);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, PoissonNegativeNormalDrawClampsToZero) {
  // Adversarial seed (found by search): the first Box-Muller draw is
  // -5.58 sigma, so the normal-approximation branch at lambda = 30
  // produces a negative double. Casting that to uint64_t is undefined
  // behaviour; the clamp must return 0 instead (the sanitizer CI job
  // guards the cast itself).
  Rng rng(18526159);
  EXPECT_EQ(rng.poisson(30.0), 0u);
}

TEST(Rng, PoissonHugeLambdaSaturatesInsteadOfOverflowing) {
  // lambda = 2e19 exceeds 2^64 - 1, so every normal-approximation draw
  // lies beyond the uint64_t range; the unchecked cast was undefined
  // behaviour. The draw must saturate, not wrap or trap.
  Rng rng(47);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.poisson(2e19), ~0ull);
  }
}

TEST(Rng, PoissonLargeLambdaStaysNearMeanAcrossSeeds) {
  // Regression sweep over many seeds at a lambda deep in the
  // normal-approximation branch: every draw must stay a plausible
  // count (mean +/- 8 sigma), never an overflow artifact.
  const double lambda = 1e6;
  const double sigma = 1000.0;
  for (std::uint64_t seed = 0; seed < 3000; ++seed) {
    Rng rng(seed);
    const std::uint64_t draw = rng.poisson(lambda);
    EXPECT_GT(draw, static_cast<std::uint64_t>(lambda - 8 * sigma));
    EXPECT_LT(draw, static_cast<std::uint64_t>(lambda + 8 * sigma));
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(43);
  Rng child = parent.fork();
  // The child stream must differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}


// --- discard_gaussians: the same stream as drawing the values -------

std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// A fixed mix of every draw kind after the discard (or its oracle):
// three Gaussians per round, so the Box-Muller cache alternates
// between rounds and the uniform/next/fork draws land on both sides
// of a cached value.
std::vector<std::uint64_t> draw_mix(Rng& rng) {
  std::vector<std::uint64_t> out;
  for (int round = 0; round < 3; ++round) {
    out.push_back(bits_of(rng.gaussian()));
    out.push_back(bits_of(rng.gaussian(-3.0, 0.4)));
    out.push_back(bits_of(rng.uniform()));
    out.push_back(rng.next());
    out.push_back(rng.fork().next());
    out.push_back(bits_of(rng.gaussian(14.0, 0.28)));
  }
  return out;
}

bool same_bits(const std::vector<std::uint64_t>& a,
               const std::vector<std::uint64_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof a[0]) == 0;
}

enum class Start { kFresh, kCachedValue, kPendingPair };

// Brings a fresh generator to `start`. The pending pair comes from an
// odd discard; its oracle draws the same three values instead.
void prepare(Rng& rng, Start start, bool discard) {
  if (start == Start::kCachedValue) rng.gaussian();
  if (start != Start::kPendingPair) return;
  if (discard) {
    rng.discard_gaussians(3);
  } else {
    for (int i = 0; i < 3; ++i) rng.gaussian();
  }
}

TEST(Rng, DiscardGaussiansMatchesDrawingThem) {
  // 51,840 = three draws per cell of a 17,280-cell page: what an erase
  // discards.
  const std::uint64_t counts[] = {0, 1, 2, 3, 4, 5, 6, 7, 51840};
  for (Start start :
       {Start::kFresh, Start::kCachedValue, Start::kPendingPair}) {
    for (std::uint64_t n : counts) {
      Rng skipped(0xC0FFEE), drawn(0xC0FFEE);
      prepare(skipped, start, true);
      prepare(drawn, start, false);
      skipped.discard_gaussians(n);
      for (std::uint64_t i = 0; i < n; ++i) drawn.gaussian();
      EXPECT_TRUE(same_bits(draw_mix(skipped), draw_mix(drawn)))
          << "start " << static_cast<int>(start) << ", n " << n;
    }
  }
}

TEST(Rng, CopyOfAPendingPairReplaysIdentically) {
  Rng original(77);
  original.discard_gaussians(5);  // ends halfway through a pair
  Rng copy = original;
  Rng drawn(77);
  for (int i = 0; i < 5; ++i) drawn.gaussian();
  const std::vector<std::uint64_t> expected = draw_mix(drawn);
  EXPECT_TRUE(same_bits(draw_mix(copy), expected));
  EXPECT_TRUE(same_bits(draw_mix(original), expected));
}

}  // namespace
}  // namespace xlf
