// The certified ISPP kernel's pieces: its polynomial transcendentals
// against the std:: functions the exact engine calls, with the bounds
// the certification assumes at least 2^8 times what a dense grid shows;
// its sampled population against the exact sampler's, within the
// sampling bounds and with the same draws; and its fallback, forced by
// scaling the bounds, returning the exact engine's trace. The
// whole-domain comparison is test_ispp_grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iostream>
#include <optional>
#include <vector>

#include "src/nand/array.hpp"
#include "src/nand/ispp_certified.hpp"
#include "src/nand/timing.hpp"
#include "src/util/rng.hpp"
#include "tests/ispp_trace_diff.hpp"

namespace xlf::nand {
namespace {

namespace cm = certified_math;

constexpr double kMargin = 256.0;  // 2^8

bool has_kernel() { return host_ispp_kernel() == IsppKernel::kAvx2; }

// `count` evenly spaced points over [lo, hi], the edges included.
std::vector<double> linspace(double lo, double hi, std::size_t count) {
  std::vector<double> xs(count);
  for (std::size_t i = 0; i < count; ++i) {
    xs[i] = lo + (hi - lo) * static_cast<double>(i) /
                     static_cast<double>(count - 1);
  }
  return xs;
}

// Each point and its two neighbouring doubles.
void add_with_neighbours(std::vector<double>& xs, double x) {
  xs.push_back(std::nextafter(x, -INFINITY));
  xs.push_back(x);
  xs.push_back(std::nextafter(x, INFINITY));
}

// Largest |got - want| / |want| (relative) or |got - want| over xs.
double max_error(const std::vector<double>& xs,
                 const std::function<double(double)>& got,
                 const std::function<double(double)>& want, bool relative) {
  double worst = 0.0;
  for (double x : xs) {
    const double ref = want(x);
    const double diff = std::abs(got(x) - ref);
    const double err = relative ? (ref == 0.0 ? diff : diff / std::abs(ref))
                                : diff;
    worst = std::max(worst, err);
  }
  return worst;
}

void expect_bound_covers(double bound, double observed, const char* what) {
  std::cout << "[certified-math] " << what << ": max error " << observed
            << ", bound " << bound << "\n";
  EXPECT_GT(observed, 0.0) << what << ": the grid saw no rounding at all";
  EXPECT_GE(bound, kMargin * observed)
      << what << ": observed " << observed << " against bound " << bound;
}

TEST(CertifiedMath, ExpOnItsDomain) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  std::vector<double> xs = linspace(-700.0, 0.0, 1 << 20);
  const std::vector<double> near_zero = linspace(-1.0, 0.0, 1 << 16);
  xs.insert(xs.end(), near_zero.begin(), near_zero.end());
  // Where the reduction's rounding of x / ln 2 changes integer.
  for (int k = 0; k <= 2020; ++k) {
    add_with_neighbours(xs, -0.5 * k * 0.6931471805599453);
  }
  for (double x : {-0.0, -1e-300, -1e-17, -0x1p-53, -699.9999, -700.0}) {
    xs.push_back(x);
  }
  const double observed = max_error(
      xs, [](double x) { return cm::exp(x); },
      [](double x) { return std::exp(x); }, true);
  expect_bound_covers(cm::kExpRelBound, observed, "exp");
}

TEST(CertifiedMath, Log1pOnItsDomain) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  std::vector<double> xs = linspace(0.0, 1.0, 1 << 20);
  const std::vector<double> small = linspace(0.0, 1e-3, 1 << 16);
  xs.insert(xs.end(), small.begin(), small.end());
  for (double y = 1e-300; y < 1.0; y *= 1.7) xs.push_back(y);
  add_with_neighbours(xs, 0.5);
  add_with_neighbours(xs, 1.0);
  const double observed = max_error(
      xs, [](double y) { return cm::log1p(y); },
      [](double y) { return std::log1p(y); }, true);
  expect_bound_covers(cm::kLog1pRelBound, observed, "log1p");
}

TEST(CertifiedMath, LogOnTheUniformsOfABoxMullerPair) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  // u1 = k / 2^53 for k >= 1: the Rng's whole range.
  std::vector<double> xs = linspace(0x1p-53, 1.0 - 0x1p-53, 1 << 20);
  for (double u = 0x1p-53; u < 1.0; u *= 1.01) xs.push_back(u);
  add_with_neighbours(xs, 0.5);
  add_with_neighbours(xs, 0x1.6a09e667f3bcdp-1);  // sqrt(1/2)
  xs.push_back(1.0 - 0x1p-53);
  Rng rng(7);
  for (int i = 0; i < (1 << 18); ++i) {
    xs.push_back(static_cast<double>((rng.next() >> 11) | 1) * 0x1p-53);
  }
  const double observed = max_error(
      xs, [](double u) { return cm::log(u); },
      [](double u) { return std::log(u); }, true);
  expect_bound_covers(cm::kLogRelBound, observed, "log");
}

TEST(CertifiedMath, SinAndCosOfTwoPiU) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  // u2 = k / 2^53: a dense even grid, random points, and the octant
  // edges where the reduction switches quadrant.
  std::vector<double> xs = linspace(0.0, 1.0 - 0x1p-53, 1 << 20);
  Rng rng(11);
  for (int i = 0; i < (1 << 18); ++i) xs.push_back(rng.uniform());
  for (int k = 1; k < 8; ++k) add_with_neighbours(xs, k / 8.0);
  xs.push_back(0.0);
  const double sin_err = max_error(
      xs, [](double u) { return cm::sin_2pi(u); },
      [](double u) { return std::sin(2.0 * M_PI * u); }, false);
  const double cos_err = max_error(
      xs, [](double u) { return cm::cos_2pi(u); },
      [](double u) { return std::cos(2.0 * M_PI * u); }, false);
  expect_bound_covers(cm::kSinCosAbsBound, sin_err, "sin(2 pi u)");
  expect_bound_covers(cm::kSinCosAbsBound, cos_err, "cos(2 pi u)");
}

TEST(CertifiedMath, SoftplusAgainstLog1pOfExp) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  std::vector<double> xs = linspace(-700.0, 30.0, 1 << 20);
  const std::vector<double> central = linspace(-40.0, 30.0, 1 << 18);
  xs.insert(xs.end(), central.begin(), central.end());
  for (double x : {-0.0, 0.0, 1e-300, -1e-300, 30.0}) xs.push_back(x);
  const double observed = max_error(
      xs, [](double x) { return cm::softplus(x); },
      [](double x) { return std::log1p(std::exp(x)); }, true);
  expect_bound_covers(cm::kSoftplusRelBound, observed, "softplus");
}

TEST(CertifiedMath, HostKernelIsNamed) {
  const std::string name = to_string(host_ispp_kernel());
  EXPECT_TRUE(name == "avx2" || name == "scalar") << name;
}

NandTiming make_timing() {
  const ArrayConfig array;
  return NandTiming(TimingConfig{}, array.ispp, array.plan, array.variability,
                    array.aging);
}

// One population in both layouts, sampled as NandTiming's exact sampler
// samples a run.
struct Population {
  CellColumns columns;
  std::vector<FloatingGateCell> cells;
  std::vector<Level> targets;
};

Population sample(Rng& rng, int count, double pe,
                  std::optional<Level> pattern = std::nullopt) {
  const ArrayConfig array;
  const VariabilitySampler sampler(array.variability, array.aging);
  const VariabilitySampler::AtWear at_wear = sampler.at_wear(pe);
  Population pop;
  for (int i = 0; i < count; ++i) {
    const Volts erased = sampler.sample_erased(rng, array.plan.erased_mean,
                                               array.plan.erased_sigma);
    const CellParams params = at_wear.sample(rng);
    const Level target =
        pattern.has_value() ? *pattern : static_cast<Level>(rng.below(4));
    pop.columns.add_cell(erased, params, target);
    pop.cells.emplace_back(erased, params);
    pop.targets.push_back(target);
  }
  return pop;
}

NormalLaw erased_law() {
  const ArrayConfig array;
  return {array.plan.erased_mean.value(), array.plan.erased_sigma.value()};
}

// The same population through the certified sampler.
CellColumns sample_fast(Rng& rng, int count, double pe,
                        std::optional<Level> pattern = std::nullopt) {
  const ArrayConfig array;
  const VariabilitySampler sampler(array.variability, array.aging);
  return sample_certified(erased_law(), sampler.at_wear(pe),
                          static_cast<unsigned>(count), pattern, rng);
}

const std::optional<Level> kPatterns[] = {std::nullopt, Level::kL0,
                                          Level::kL1, Level::kL2, Level::kL3};

TEST(CertifiedSampling, ParametersLieWithinTheirBoundsOfTheExactSampler) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  // Odd and even populations, so sampling ends on a held pair half or
  // on a whole pair; the state after it must be the exact sampler's.
  double worst[3] = {0.0, 0.0, 0.0};
  double bound[3] = {0.0, 0.0, 0.0};
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    for (const std::optional<Level>& pattern : kPatterns) {
      for (double pe : {1.0, 1e4, 3e7}) {
        const int count = seed % 2 == 0 ? 1000 : 1001;
        SCOPED_TRACE(testing::Message()
                     << "seed " << seed << ", pattern "
                     << (pattern ? static_cast<int>(*pattern) : -1) << ", "
                     << count << " cells at " << pe);
        Rng exact_rng(seed);
        Rng fast_rng(seed);
        const Population exact = sample(exact_rng, count, pe, pattern);
        const CellColumns fast = sample_fast(fast_rng, count, pe, pattern);
        // The kept cells are the exact population's non-L0 cells.
        std::size_t kept = 0;
        for (std::size_t i = 0; i < exact.targets.size(); ++i) {
          if (exact.targets[i] == Level::kL0) continue;
          ASSERT_LT(kept, fast.targets.size());
          ASSERT_EQ(fast.targets[kept], exact.targets[i]) << i;
          const FloatingGateCell& cell = exact.cells[i];
          const double field[3][2] = {
              {fast.vth[kept], cell.vth().value()},
              {fast.k_onset[kept], cell.params().k_onset.value()},
              {fast.sharpness[kept], cell.params().onset_sharpness.value()}};
          const double field_bound[3] = {fast.vth_bound, fast.k_onset_bound,
                                         fast.sharpness_bound};
          for (int f = 0; f < 3; ++f) {
            const double diff = std::abs(field[f][0] - field[f][1]);
            ASSERT_LE(diff, field_bound[f]) << "field " << f << ", cell " << i;
            worst[f] = std::max(worst[f], diff);
            bound[f] = std::max(bound[f], field_bound[f]);
          }
          ++kept;
        }
        EXPECT_EQ(kept, fast.targets.size());
        EXPECT_EQ(fast.vth.size(), kept);
        EXPECT_EQ(fast.k_onset.size(), kept);
        EXPECT_EQ(fast.sharpness.size(), kept);
        EXPECT_EQ(fast.injection_sigma,
                  exact.cells.front().params().injection_sigma.value());
        // Both streams are where the exact sampler leaves them, held
        // pair half included.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fast_rng.gaussian()),
                  std::bit_cast<std::uint64_t>(exact_rng.gaussian()));
        EXPECT_EQ(fast_rng.next(), exact_rng.next());
      }
    }
  }
  const char* names[3] = {"erased V_TH", "onset k", "sharpness s"};
  for (int f = 0; f < 3; ++f) {
    std::cout << "[certified-sampling] " << names[f] << ": max deviation "
              << worst[f] << ", bound " << bound[f] << "\n";
    EXPECT_GT(worst[f], 0.0) << names[f] << ": no deviation seen at all";
  }
}

TEST(CertifiedSampling, BoundsHoldAtTheRadiusAndQuadrantExtremes) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  // u1 = 2^-53 is the largest radius the Rng can draw; u2 at the
  // quadrant edges of 2 pi u2 and their neighbours switch the
  // reduction's quadrant.
  std::vector<double> u1s = {0x1p-53, 0x1p-52, 3 * 0x1p-53, 1e-10, 0.5,
                             1.0 - 0x1p-53};
  std::vector<double> u2s = {0.0, 1.0 - 0x1p-53};
  for (int k = 1; k < 8; ++k) add_with_neighbours(u2s, k / 8.0);
  const ArrayConfig array;
  const VariabilitySampler sampler(array.variability, array.aging);
  std::vector<NormalLaw> laws = {erased_law(), {0.0, 1.0}};
  for (double pe : {1.0, 1e6, 3.2e7}) {
    laws.push_back(sampler.at_wear(pe).onset());
    laws.push_back(sampler.at_wear(pe).sharpness());
  }
  const double floor = VariabilitySampler::AtWear::kMinSharpness;
  double widest = 0.0;
  for (const NormalLaw& law : laws) {
    const double bound = cm::sampled_bound(law);
    for (double u1 : u1s) {
      for (double u2 : u2s) {
        for (auto half :
             {Rng::NormalDraw::Half::kCos, Rng::NormalDraw::Half::kSin}) {
          const Rng::NormalDraw draw{half, u1, u2};
          const double got = cm::sampled_value(law, draw);
          const double want = law.mean + law.sigma * draw.value();
          EXPECT_LE(std::abs(got - want), bound)
              << "law (" << law.mean << ", " << law.sigma << "), u1 " << u1
              << ", u2 " << u2;
          // The clamp of the sharpness keeps the bound.
          EXPECT_LE(std::abs(std::max(floor, got) - std::max(floor, want)),
                    bound);
          if (law.mean == 0.0 && law.sigma == 1.0) {
            EXPECT_LE(std::abs(got), cm::kRadiusBound) << u1 << " " << u2;
            widest = std::max(widest, std::abs(got));
          }
        }
      }
    }
  }
  // The largest radius is reached: |z| at u1 = 2^-53, u2 = 0 is R.
  EXPECT_GT(widest, 8.57);
}

// The smallest scale 2^(k/4) at which the certified sampler's bounds
// make the kernel refuse NandTiming's run `run` at age `pe`, found by
// bisection (the refused scales are an interval: a decision cleared at
// one scale clears at every smaller one). Sets `control` to whether the
// same run certifies at that scale with its sampling bounds zeroed.
double sampling_refusal_scale(const NandTiming& timing, ProgramAlgorithm algo,
                              double pe, std::optional<Level> pattern,
                              unsigned run, bool& control) {
  const ArrayConfig array;
  const IsppEngine engine(array.ispp, array.plan);
  const auto certifies = [&](double scale, bool sampling_bounds) {
    Rng rng(timing.run_seed(algo, pe, run));
    CellColumns cells =
        sample_fast(rng, static_cast<int>(timing.config().sample_cells), pe,
                    pattern);
    if (!sampling_bounds) {
      cells.vth_bound = cells.k_onset_bound = cells.sharpness_bound = 0.0;
    }
    return program_certified(engine, cells, algo, rng,
                             array.aging.dv_zone_multiplier(pe), scale)
        .has_value();
  };
  int certified = 0;  // 2^(certified / 4) certifies
  int refused = 200;  // 2^(refused / 4) does not
  EXPECT_TRUE(certifies(1.0, true));
  EXPECT_FALSE(certifies(std::exp2(refused / 4.0), true));
  while (refused - certified > 1) {
    const int mid = (certified + refused) / 2;
    (certifies(std::exp2(mid / 4.0), true) ? certified : refused) = mid;
  }
  const double scale = std::exp2(refused / 4.0);
  control = certifies(scale, false);
  return scale;
}

TEST(CertifiedKernel, ForcedFallbacksReturnTheExactEnginesTrace) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  // 1e200 makes the first decision ambiguous; 1e9 lets a run go some
  // pulses, consuming draws, before a decision falls inside its scaled
  // bound. The third scale is the smallest at which the run is refused,
  // and there the same values with the sampling bounds zeroed certify:
  // a sampling bound causes that refusal. Every time the run is sampled
  // again from its seed and programmed by the exact engine.
  const NandTiming timing = make_timing();
  std::uint64_t expected_fallbacks = 0;
  for (ProgramAlgorithm algo :
       {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
    for (std::optional<Level> pattern :
         {std::optional<Level>{}, std::optional<Level>{Level::kL3}}) {
      bool control = false;
      const double sampling_scale =
          sampling_refusal_scale(timing, algo, 1e4, pattern, 1, control);
      EXPECT_TRUE(control) << "at scale " << sampling_scale
                           << " the pulse loop's own bounds refuse too";
      std::cout << "[certified-sampling] " << to_string(algo) << ", pattern "
                << (pattern ? static_cast<int>(*pattern) : -1)
                << ": refused from scale " << sampling_scale << "\n";
      for (double scale : {1e200, 1e9, sampling_scale}) {
        SCOPED_TRACE(testing::Message()
                     << "scale " << scale << ", " << to_string(algo)
                     << ", pattern "
                     << (pattern ? static_cast<int>(*pattern) : -1));
        const IsppTrace fallen =
            timing.run_trace(algo, 1e4, pattern, 1, scale);
        ++expected_fallbacks;
        EXPECT_EQ(timing.fallback_runs(), expected_fallbacks);
        EXPECT_EQ(test::trace_difference(
                      fallen, timing.exact_run_trace(algo, 1e4, pattern, 1)),
                  "");
        const IsppTrace certified = timing.run_trace(algo, 1e4, pattern, 1);
        EXPECT_EQ(test::trace_difference(certified, fallen), "");
        EXPECT_EQ(timing.fallback_runs(), expected_fallbacks);
      }
    }
  }
}

TEST(CertifiedKernel, ScaledBoundsFailAtTheFirstDecisionOrMidRun) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  // The two fixed scales above fail at different points: 1e200 before the
  // first pulse draws, 1e9 after pulses have drawn noise.
  const ArrayConfig array;
  const IsppEngine engine(array.ispp, array.plan);
  for (double scale : {1e200, 1e9, 1.0}) {
    Rng rng(5);
    Population pop = sample(rng, 4096, 1e4);
    const Rng sampled = rng;
    const std::optional<IsppTrace> trace = program_certified(
        engine, pop.columns, ProgramAlgorithm::kIsppSv, rng, 1.0, scale);
    EXPECT_EQ(trace.has_value(), scale == 1.0) << scale;
    Rng a = rng, b = sampled;
    EXPECT_EQ(a.next() == b.next(), scale == 1e200) << scale;
  }
}

TEST(CertifiedKernel, EqualsTheExactEngineOnRaggedPopulations) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  // Population sizes that leave partial lanes, and odd draw counts, so
  // that programming starts on a value the stream holds from sampling.
  const ArrayConfig array;
  const IsppEngine engine(array.ispp, array.plan);
  for (int count : {1, 5, 4095, 4097}) {
    for (ProgramAlgorithm algo :
         {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
      for (double pe : {1.0, 3e5}) {
        SCOPED_TRACE(testing::Message() << count << " cells, "
                                        << to_string(algo) << " at " << pe);
        Rng rng(static_cast<std::uint64_t>(count) * 977 + 13);
        Population pop = sample(rng, count, pe);
        Rng exact_rng = rng;
        const double zone = array.aging.dv_zone_multiplier(pe);
        const std::optional<IsppTrace> certified =
            program_certified(engine, pop.columns, algo, rng, zone);
        ASSERT_TRUE(certified.has_value());
        EXPECT_EQ(test::trace_difference(
                      *certified, engine.program(pop.cells, pop.targets, algo,
                                                 exact_rng, zone)),
                  "");
        // Both took the same draws.
        EXPECT_EQ(rng.next(), exact_rng.next());
      }
    }
  }
}

TEST(CertifiedKernel, APageOfErasedTargetsNeedsNoPulse) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  const ArrayConfig array;
  const IsppEngine engine(array.ispp, array.plan);
  CellColumns cells;
  std::vector<FloatingGateCell> exact_cells;
  const CellParams params;
  for (int i = 0; i < 7; ++i) {
    cells.add_cell(Volts{-3.0}, params, Level::kL0);
    exact_cells.emplace_back(Volts{-3.0}, params);
  }
  const std::vector<Level> targets(7, Level::kL0);
  Rng rng_a(3), rng_b(3);
  const std::optional<IsppTrace> certified = program_certified(
      engine, cells, ProgramAlgorithm::kIsppDv, rng_a, 1.0);
  ASSERT_TRUE(certified.has_value());
  EXPECT_EQ(certified->pulses, 0u);
  EXPECT_EQ(test::trace_difference(
                *certified, engine.program(exact_cells, targets,
                                           ProgramAlgorithm::kIsppDv, rng_b)),
            "");
}

}  // namespace
}  // namespace xlf::nand
