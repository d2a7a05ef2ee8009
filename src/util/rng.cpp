#include "src/util/rng.hpp"

#include <cmath>

#include "src/util/expect.hpp"

namespace xlf {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

double Rng::uniform(double lo, double hi) {
  XLF_EXPECT(lo <= hi);
  return lo + (hi - lo) * uniform();
}

// Forced inline: gaussian(mean, sigma) is the ISPP kernel's call per
// cell and pulse, and a second call per draw costs it measurably.
[[gnu::always_inline]] inline double Rng::standard_normal() {
  if (cached_ == Cached::kValue) {
    cached_ = Cached::kNone;
    return cached_gaussian_;
  }
  if (cached_ == Cached::kPair) {
    cached_ = Cached::kNone;
    return NormalDraw{NormalDraw::Half::kSin, cached_u1_, cached_u2_}.value();
  }
  double u1 = 0.0;
  double u2 = 0.0;
  draw_pair(u1, u2);
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * M_PI * u2;
  cached_gaussian_ = radius * std::sin(angle);
  cached_ = Cached::kValue;
  return radius * std::cos(angle);
}

double Rng::gaussian() { return standard_normal(); }

double Rng::NormalDraw::value() const {
  // The expressions of gaussian()'s fresh pair, term for term.
  switch (half) {
    case Half::kCos:
      return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
    case Half::kSin:
      return std::sqrt(-2.0 * std::log(u1)) * std::sin(2.0 * M_PI * u2);
    case Half::kValue:
      break;
  }
  return held;
}

void Rng::discard_gaussians(std::uint64_t n) {
  // No pair's u1 bits are 0, so only a held draw is reported.
  discard_gaussians(n, 0, [](std::uint64_t, const NormalDraw&) {});
}

double Rng::gaussian(double mean, double sigma) {
  XLF_EXPECT(sigma >= 0.0);
  return mean + sigma * standard_normal();
}

std::uint64_t Rng::poisson(double lambda) {
  XLF_EXPECT(lambda >= 0.0);
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    const double limit = std::exp(-lambda);
    std::uint64_t k = 0;
    double product = uniform();
    while (product > limit) {
      ++k;
      product *= uniform();
    }
    return k;
  }
  // Normal approximation with continuity correction for large lambda.
  // The cast must be range-checked on both sides: converting a double
  // that is negative (left tail) or >= 2^64 (lambda near the integer
  // range) to uint64_t is undefined behaviour, not a saturation.
  const double draw = gaussian(lambda, std::sqrt(lambda)) + 0.5;
  if (draw <= 0.0) return 0;
  if (draw >= 18446744073709551616.0 /* 2^64 */) return ~0ull;
  return static_cast<std::uint64_t>(draw);
}

Rng Rng::fork() { return Rng(next()); }

}  // namespace xlf
