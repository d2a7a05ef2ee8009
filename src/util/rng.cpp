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

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next() {
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

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  XLF_EXPECT(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t bound) {
  XLF_EXPECT(bound > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

void Rng::draw_pair(double& u1, double& u2) {
  u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  u2 = uniform();
}

double Rng::gaussian() {
  if (cached_ == Cached::kValue) {
    cached_ = Cached::kNone;
    return cached_gaussian_;
  }
  if (cached_ == Cached::kPair) {
    // The sine half of the pair, by the same expression as below.
    cached_ = Cached::kNone;
    return std::sqrt(-2.0 * std::log(cached_u1_)) *
           std::sin(2.0 * M_PI * cached_u2_);
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

void Rng::discard_gaussians(std::uint64_t n) {
  if (n == 0) return;
  if (cached_ != Cached::kNone) {
    cached_ = Cached::kNone;
    --n;
  }
  // draw_pair's draws without the doubles: uniform() is 0 exactly
  // when the top 53 bits of next() are.
  for (; n >= 2; n -= 2) {
    while ((next() >> 11) == 0) {}  // u1 (rejection)
    next();                         // u2
  }
  if (n == 1) {
    draw_pair(cached_u1_, cached_u2_);
    cached_ = Cached::kPair;
  }
}

double Rng::gaussian(double mean, double sigma) {
  XLF_EXPECT(sigma >= 0.0);
  return mean + sigma * gaussian();
}

bool Rng::chance(double p) {
  XLF_EXPECT(p >= 0.0 && p <= 1.0);
  return uniform() < p;
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
