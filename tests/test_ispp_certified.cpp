// The certified ISPP kernel's pieces: its polynomial transcendentals
// against the std:: functions the exact engine calls, with the bounds
// the certification assumes at least 2^8 times what a dense grid shows,
// and its fallback, forced by scaling the bounds, returning the exact
// engine's trace. The whole-domain comparison is test_ispp_grid.
#include <gtest/gtest.h>

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

TEST(CertifiedKernel, ForcedFallbacksReturnTheExactEnginesTrace) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  // 1e200 makes the first decision ambiguous; 1e9 lets a run go some
  // pulses, consuming draws, before a decision falls inside its scaled
  // bound. Either way the run is sampled again from its seed and
  // programmed by the exact engine.
  const NandTiming timing = make_timing();
  std::uint64_t expected_fallbacks = 0;
  for (double scale : {1e200, 1e9}) {
    for (ProgramAlgorithm algo :
         {ProgramAlgorithm::kIsppSv, ProgramAlgorithm::kIsppDv}) {
      for (std::optional<Level> pattern :
           {std::optional<Level>{}, std::optional<Level>{Level::kL3}}) {
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

// One population in both layouts, sampled as NandTiming samples a run.
struct Population {
  CellColumns columns;
  std::vector<FloatingGateCell> cells;
  std::vector<Level> targets;
};

Population sample(Rng& rng, int count, double pe) {
  const ArrayConfig array;
  const VariabilitySampler sampler(array.variability, array.aging);
  const VariabilitySampler::AtWear at_wear = sampler.at_wear(pe);
  Population pop;
  for (int i = 0; i < count; ++i) {
    const Volts erased = sampler.sample_erased(rng, array.plan.erased_mean,
                                               array.plan.erased_sigma);
    const CellParams params = at_wear.sample(rng);
    const auto target = static_cast<Level>(rng.below(4));
    pop.columns.add_cell(erased, params, target);
    pop.cells.emplace_back(erased, params);
    pop.targets.push_back(target);
  }
  return pop;
}

TEST(CertifiedKernel, ScaledBoundsFailAtTheFirstDecisionOrMidRun) {
  if (!has_kernel()) GTEST_SKIP() << "host has no AVX2+FMA";
  // The two scales above fail at different points: 1e200 before the
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
