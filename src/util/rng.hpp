// Deterministic random number generation for Monte-Carlo simulation.
//
// Every stochastic component (cell variability, injection granularity,
// error injection, workload arrival) draws from an Rng seeded
// explicitly, so each experiment is reproducible bit-for-bit and each
// test can pin its expectations. The generator is xoshiro256**, seeded
// through SplitMix64 — small, fast and statistically solid, and, unlike
// std::mt19937, identical across standard library implementations.
#pragma once

#include <array>
#include <cstdint>

namespace xlf {

class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  // UniformRandomBitGenerator interface.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  // Uniform double in [0, 1).
  double uniform();
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound);
  // Standard normal via Box-Muller (cached second draw).
  double gaussian();
  double gaussian(double mean, double sigma);
  // Advance the stream exactly as `n` gaussian() calls would (the same
  // uniform draws, rejections and cache hand-off) without computing
  // any of the values. A discard that ends halfway through a pair
  // keeps the pair's uniforms, so the next gaussian() returns the same
  // bits it would have returned after those n calls.
  void discard_gaussians(std::uint64_t n);
  // Bernoulli trial.
  bool chance(double p);
  // Poisson draw (Knuth for small lambda, normal approximation above).
  std::uint64_t poisson(double lambda);

  // Derive an independent stream, e.g. one per cell/page/worker.
  Rng fork();

 private:
  // One Box-Muller pair: draws u1 in (0, 1) and u2 in [0, 1).
  void draw_pair(double& u1, double& u2);

  // The second value of the last Box-Muller pair, held for the next
  // gaussian() call: computed (kValue), or, after a discard that ended
  // halfway through the pair, still the pair's raw uniforms (kPair).
  enum class Cached : std::uint8_t { kNone, kValue, kPair };
  std::array<std::uint64_t, 4> state_{};
  Cached cached_ = Cached::kNone;
  double cached_gaussian_ = 0.0;
  double cached_u1_ = 0.0;
  double cached_u2_ = 0.0;
};

}  // namespace xlf
