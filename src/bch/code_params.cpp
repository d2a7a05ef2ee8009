#include "src/bch/code_params.hpp"

#include <cmath>

#include "src/util/expect.hpp"
#include "src/util/logmath.hpp"

namespace xlf::bch {

bool CodeParams::valid() const {
  if (m < 3 || m > 16 || t == 0 || k == 0) return false;
  return static_cast<std::uint64_t>(k) + parity_bits() <=
         (1ull << m) - 1ull;
}

void CodeFamily::check() const {
  XLF_EXPECT(t_min >= 1 && t_min <= t_max);
  XLF_EXPECT(at(t_max).valid());
}

unsigned min_field_degree(std::uint32_t k, unsigned t) {
  XLF_EXPECT(k > 0 && t > 0);
  for (unsigned m = 3; m <= 16; ++m) {
    if (static_cast<std::uint64_t>(k) + static_cast<std::uint64_t>(m) * t <=
        (1ull << m) - 1ull) {
      return m;
    }
  }
  XLF_EXPECT(false && "message too long for any supported field");
  return 0;
}

double log_uber(double rber, std::uint32_t n, unsigned t) {
  XLF_EXPECT(rber > 0.0 && rber < 1.0);
  XLF_EXPECT(t + 1u <= n);
  const std::uint64_t errors = t + 1u;
  return log_binomial_pmf(n, errors, rber) - std::log(static_cast<double>(n));
}

double uber(double rber, std::uint32_t n, unsigned t) {
  return safe_exp(log_uber(rber, n, t));
}

double log_uber_tail(double rber, std::uint32_t n, unsigned t) {
  XLF_EXPECT(rber > 0.0 && rber < 1.0);
  XLF_EXPECT(t + 1u <= n);
  return log_binomial_tail_geq(n, t + 1u, rber) -
         std::log(static_cast<double>(n));
}

double uber_tail(double rber, std::uint32_t n, unsigned t) {
  return safe_exp(log_uber_tail(rber, n, t));
}

std::optional<unsigned> min_t_for_uber(double rber, double uber_target,
                                       std::uint32_t k, unsigned m,
                                       unsigned t_min, unsigned t_max) {
  XLF_EXPECT(uber_target > 0.0);
  XLF_EXPECT(t_min >= 1 && t_min <= t_max);
  const double log_target = std::log(uber_target);
  // Eq. (1) is a single-term approximation, only meaningful once the
  // correction capability clears the mean error count n*rber (below
  // the mean the term shrinks again although the code is drowning in
  // errors). Start the search there: any t below the mean cannot be a
  // sane operating point regardless of what the term evaluates to.
  const double mean_errors =
      rber * (static_cast<double>(k) + static_cast<double>(m) * t_min);
  const auto floor_t =
      std::max<double>(t_min, std::ceil(mean_errors));
  if (floor_t > static_cast<double>(t_max)) return std::nullopt;
  for (unsigned t = static_cast<unsigned>(floor_t); t <= t_max; ++t) {
    const CodeParams params{m, k, t};
    if (!params.valid()) break;  // parity no longer fits the field
    if (log_uber(rber, params.n(), t) <= log_target) return t;
  }
  return std::nullopt;
}

}  // namespace xlf::bch
