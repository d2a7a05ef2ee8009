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

#include "src/util/expect.hpp"

namespace xlf {

class Rng {
 public:
  using result_type = std::uint64_t;

  // One standard normal taken from the stream but not yet evaluated:
  // the uniforms of its Box-Muller pair and which half of the pair it
  // is, or the value itself when the stream already held one.
  struct NormalDraw {
    enum class Half : std::uint8_t { kCos, kSin, kValue };
    Half half = Half::kValue;
    // The pair's uniforms, u1 in (0, 1) and u2 in [0, 1); both 0 for
    // kValue.
    double u1 = 0.0;
    double u2 = 0.0;
    double held = 0.0;  // kValue only

    // Exactly the value gaussian() returns for this draw. For a pair
    // half, |value()| <= sqrt(-2 ln u1): |cos| and |sin| are at most 1
    // and rounding is monotone, so u1 > exp(-r^2 / 2) proves
    // |value()| < r without evaluating it.
    double value() const;
  };

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  // UniformRandomBitGenerator interface.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): the 53 high bits of next().
  double uniform() { return to_unit(next() >> 11); }
  // Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound) {
    XLF_EXPECT(bound > 0);
    // Rejection sampling to remove modulo bias.
    const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }
  // Standard normal via Box-Muller (cached second draw).
  double gaussian();
  double gaussian(double mean, double sigma);
  // Takes the next standard normal from the stream without evaluating
  // it. Advances the stream exactly as one gaussian() call; a fresh
  // pair's second half stays held as raw uniforms, from which the next
  // gaussian() returns the same bits.
  NormalDraw draw_normal();
  // Advance the stream exactly as `n` gaussian() calls would (the same
  // uniform draws, rejections and cache hand-off) without computing
  // any of the values. A discard that ends halfway through a pair
  // keeps the pair's uniforms, so the next gaussian() returns the same
  // bits it would have returned after those n calls.
  void discard_gaussians(std::uint64_t n);
  // The same advance, reporting on_low(i, draw) for the draws, in
  // order, whose value the caller may need: the i-th of the n draws
  // when its pair's u1 has next() >> 11 <= floor, and a draw the
  // stream already held when the discard began. The test is one
  // integer compare per pair.
  template <typename OnLow>
  void discard_gaussians(std::uint64_t n, std::uint64_t floor,
                         OnLow&& on_low);
  // Bernoulli trial.
  bool chance(double p) {
    XLF_EXPECT(p >= 0.0 && p <= 1.0);
    return uniform() < p;
  }
  // `n` (<= 64) fair coin flips, one next() each: bit i is set exactly
  // when the i-th of n chance(0.5) calls would be true, because
  // uniform() < 0.5 exactly when bit 63 of next() is 0.
  std::uint64_t coin_flips(unsigned n) {
    std::uint64_t flips = 0;
    for (unsigned i = 0; i < n; ++i) flips |= (~next() >> 63) << i;
    return flips;
  }
  // Poisson draw (Knuth for small lambda, normal approximation above).
  std::uint64_t poisson(double lambda);

  // Derive an independent stream, e.g. one per cell/page/worker.
  Rng fork();

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  static double to_unit(std::uint64_t bits53) {
    return static_cast<double>(bits53) * 0x1.0p-53;
  }
  // The 53 high bits of a Box-Muller pair's u1, drawn again while 0
  // so that u1 = bits / 2^53 lies in (0, 1).
  std::uint64_t draw_u1_bits() {
    std::uint64_t bits = next() >> 11;
    while (bits == 0) bits = next() >> 11;
    return bits;
  }
  // One Box-Muller pair: draws u1 in (0, 1) and u2 in [0, 1).
  void draw_pair(double& u1, double& u2) {
    u1 = to_unit(draw_u1_bits());
    u2 = uniform();
  }
  // gaussian()'s body, inlined into both public forms (rng.cpp).
  inline double standard_normal();

  // The second value of the last Box-Muller pair, held for the next
  // gaussian() call: computed (kValue), or, after a discard or an
  // unevaluated draw that ended halfway through the pair, still the
  // pair's raw uniforms (kPair).
  enum class Cached : std::uint8_t { kNone, kValue, kPair };
  std::array<std::uint64_t, 4> state_{};
  Cached cached_ = Cached::kNone;
  double cached_gaussian_ = 0.0;
  double cached_u1_ = 0.0;
  double cached_u2_ = 0.0;
};

inline Rng::NormalDraw Rng::draw_normal() {
  NormalDraw draw;
  if (cached_ == Cached::kValue) {
    draw.held = cached_gaussian_;
  } else if (cached_ == Cached::kPair) {
    draw = {NormalDraw::Half::kSin, cached_u1_, cached_u2_};
  } else {
    draw_pair(cached_u1_, cached_u2_);
    cached_ = Cached::kPair;
    return {NormalDraw::Half::kCos, cached_u1_, cached_u2_};
  }
  cached_ = Cached::kNone;
  return draw;
}

template <typename OnLow>
void Rng::discard_gaussians(std::uint64_t n, std::uint64_t floor,
                            OnLow&& on_low) {
  std::uint64_t i = 0;
  if (n > 0 && cached_ != Cached::kNone) on_low(i++, draw_normal());
  // The pairs advance a local copy, which on_low cannot reach, so the
  // compiler keeps its state in registers across the loop.
  Rng stream = *this;
  for (const std::uint64_t pairs_end = n - (n - i) % 2; i != pairs_end;
       i += 2) {
    const std::uint64_t u1_bits = stream.draw_u1_bits();
    const std::uint64_t u2_bits = stream.next() >> 11;
    if (u1_bits <= floor) [[unlikely]] {
      const double u1 = to_unit(u1_bits);
      const double u2 = to_unit(u2_bits);
      on_low(i, NormalDraw{NormalDraw::Half::kCos, u1, u2});
      on_low(i + 1, NormalDraw{NormalDraw::Half::kSin, u1, u2});
    }
  }
  if (i < n) {  // a fresh pair's first half; the stream holds the second
    const NormalDraw draw = stream.draw_normal();
    if (draw.u1 <= to_unit(floor)) on_low(i, draw);
  }
  *this = stream;
}

}  // namespace xlf
