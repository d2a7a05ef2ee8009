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

// --- unevaluated draws: the same stream as gaussian() -----------------

// One step of a draw mix. kDraw takes a normal without evaluating it
// and kDrawValue evaluates it; the oracle takes both by gaussian().
enum class Step {
  kDraw,
  kDrawValue,
  kGaussian,
  kGaussianScaled,
  kDiscard,
  kReportingDiscard,
  kUniform,
  kNext,
  kFork,
};

// Runs `steps`; with `oracle`, every normal is taken by gaussian().
std::vector<std::uint64_t> run_steps(Rng& rng, const std::vector<Step>& steps,
                                     bool oracle) {
  std::vector<std::uint64_t> out;
  const auto draws = [&](int n) {
    for (int i = 0; i < n; ++i) rng.gaussian();
  };
  for (Step step : steps) {
    switch (step) {
      case Step::kDraw:
        if (oracle) {
          rng.gaussian();
        } else {
          rng.draw_normal();
        }
        break;
      case Step::kDrawValue:
        out.push_back(
            bits_of(oracle ? rng.gaussian() : rng.draw_normal().value()));
        break;
      case Step::kGaussian:
        out.push_back(bits_of(rng.gaussian()));
        break;
      case Step::kGaussianScaled:
        out.push_back(bits_of(rng.gaussian(2.5, 0.15)));
        break;
      case Step::kDiscard:
        if (oracle) {
          draws(3);
        } else {
          rng.discard_gaussians(3);
        }
        break;
      case Step::kReportingDiscard:
        if (oracle) {
          draws(5);
        } else {
          rng.discard_gaussians(5, std::uint64_t{1} << 52,
                                [](std::uint64_t, const Rng::NormalDraw&) {});
        }
        break;
      case Step::kUniform:
        out.push_back(bits_of(rng.uniform()));
        break;
      case Step::kNext:
        out.push_back(rng.next());
        break;
      case Step::kFork:
        out.push_back(rng.fork().next());
        break;
    }
  }
  return out;
}

TEST(Rng, UnevaluatedDrawsMatchGaussianCalls) {
  // A seeded mix long enough to take every step from every cache state
  // (nothing held, a held value, a held pair).
  Rng pick(0x5EED);
  std::vector<Step> steps;
  for (int i = 0; i < 400; ++i) {
    steps.push_back(static_cast<Step>(pick.below(9)));
  }
  for (Start start :
       {Start::kFresh, Start::kCachedValue, Start::kPendingPair}) {
    Rng unevaluated(0xD1CE), drawn(0xD1CE);
    prepare(unevaluated, start, true);
    prepare(drawn, start, false);
    const std::vector<std::uint64_t> got = run_steps(unevaluated, steps, false);
    const std::vector<std::uint64_t> want = run_steps(drawn, steps, true);
    EXPECT_TRUE(same_bits(got, want)) << "start " << static_cast<int>(start);
    EXPECT_TRUE(same_bits(draw_mix(unevaluated), draw_mix(drawn)))
        << "start " << static_cast<int>(start);
  }
}

TEST(Rng, ReportingDiscardReportsExactlyTheLowDraws) {
  struct Report {
    std::uint64_t index;
    std::uint64_t value;
    bool operator==(const Report&) const = default;
  };
  const std::uint64_t floors[] = {0, std::uint64_t{1} << 50,
                                  std::uint64_t{1} << 52,
                                  (std::uint64_t{1} << 53) - 1};
  const std::uint64_t counts[] = {0, 1, 2, 3, 4, 5, 6, 7, 1001};
  for (Start start :
       {Start::kFresh, Start::kCachedValue, Start::kPendingPair}) {
    for (std::uint64_t floor : floors) {
      for (std::uint64_t n : counts) {
        Rng reporting(0xFACE), plain(0xFACE), pairs(0xFACE), values(0xFACE);
        for (Rng* rng : {&reporting, &plain, &pairs}) prepare(*rng, start, true);
        prepare(values, start, false);

        std::vector<Report> got;
        reporting.discard_gaussians(
            n, floor, [&](std::uint64_t i, const Rng::NormalDraw& draw) {
              got.push_back({i, bits_of(draw.value())});
            });
        plain.discard_gaussians(n);

        // The evaluating oracle: every value by gaussian(), and each
        // fresh pair's u1 by uniform(); a held draw is always reported.
        std::vector<std::uint64_t> value_bits;
        for (std::uint64_t i = 0; i < n; ++i) {
          value_bits.push_back(bits_of(values.gaussian()));
        }
        std::vector<Report> want;
        std::uint64_t i = 0;
        if (start != Start::kFresh && n > 0) {
          pairs.gaussian();
          want.push_back({i, value_bits[i]});
          ++i;
        }
        for (; i < n; i += 2) {
          double u1 = pairs.uniform();
          while (u1 <= 0.0) u1 = pairs.uniform();
          pairs.uniform();
          if (u1 * 0x1.0p53 > static_cast<double>(floor)) continue;
          want.push_back({i, value_bits[i]});
          if (i + 1 < n) want.push_back({i + 1, value_bits[i + 1]});
        }
        EXPECT_TRUE(got == want) << "start " << static_cast<int>(start)
                                 << ", floor " << floor << ", n " << n;
        EXPECT_TRUE(same_bits(draw_mix(reporting), draw_mix(plain)))
            << "start " << static_cast<int>(start) << ", floor " << floor
            << ", n " << n;
      }
    }
  }
}

TEST(Rng, DrawMagnitudeIsBoundedByItsRadius) {
  Rng rng(0xB0B);
  for (int i = 0; i < 1000000; ++i) {
    const Rng::NormalDraw draw = rng.draw_normal();
    ASSERT_NE(draw.half, Rng::NormalDraw::Half::kValue);
    ASSERT_LE(std::abs(draw.value()), std::sqrt(-2.0 * std::log(draw.u1)))
        << "draw " << i;
  }
}

TEST(Rng, CoinFlipsMatchFairChances) {
  for (unsigned n : {0u, 1u, 13u, 63u, 64u}) {
    Rng flips(99), chances(99);
    const std::uint64_t word = flips.coin_flips(n);
    for (unsigned i = 0; i < n; ++i) {
      EXPECT_EQ((word >> i & 1u) != 0, chances.chance(0.5)) << "bit " << i;
    }
    if (n < 64) {
      EXPECT_EQ(word >> n, 0u);
    }
    EXPECT_EQ(flips.next(), chances.next());
  }
}

}  // namespace
}  // namespace xlf
