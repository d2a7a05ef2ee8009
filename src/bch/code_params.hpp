// BCH code parameterisation and the paper's reliability equation.
//
// A BCH[n, k] code over GF(2^m) correcting t errors protects a k-bit
// message with r = m*t parity bits, n = k + r, subject to
// k + r <= 2^m - 1 (the code is used shortened from length 2^m - 1).
// For the paper's 4 KB page (k = 32768) this forces m = 16.
//
// Eq. (1) of the paper maps the device raw bit error rate (RBER) to
// the post-correction uncorrectable bit error rate (UBER):
//
//   UBER = C(n, t+1) RBER^(t+1) (1-RBER)^(n-(t+1)) / n
//
// i.e. the probability of the first uncorrectable pattern (exactly
// t+1 errors), normalised per bit. An exact binomial tail
// (P[X >= t+1] / n) is provided alongside as a cross-check.
#pragma once

#include <cstdint>
#include <optional>

namespace xlf::bch {

struct CodeParams {
  unsigned m = 16;       // field degree, GF(2^m)
  std::uint32_t k = 32768;  // message length in bits (4 KB page)
  unsigned t = 3;        // correction capability
  // Architected parity width; 0 selects the nominal r = m*t. Textbook
  // codes over small fields have generators of degree < m*t (short
  // cyclotomic cosets) and set this to the true generator degree.
  std::uint32_t r_explicit = 0;

  // Parity bits r.
  std::uint32_t parity_bits() const { return r_explicit != 0 ? r_explicit : m * t; }
  // Codeword length n = k + r (shortened code).
  std::uint32_t n() const { return k + parity_bits(); }
  // Natural (unshortened) length 2^m - 1.
  std::uint32_t natural_length() const { return (1u << m) - 1; }
  // Number of positions removed by shortening.
  std::uint32_t shortening() const { return natural_length() - n(); }
  // Code rate k/n.
  double rate() const { return static_cast<double>(k) / n(); }

  // The construction inequality k + m*t <= 2^m - 1.
  bool valid() const;
};

// The code family an adaptive codec serves: k-bit messages over
// GF(2^m), t switchable over [t_min, t_max] (paper Section 6.2). A die
// states it once, in ecc_hw::EccHwConfig::code.
struct CodeFamily {
  unsigned m = 16;
  std::uint32_t k = 32768;  // 4 KB page
  unsigned t_min = 3;
  unsigned t_max = 65;

  CodeParams at(unsigned t) const { return CodeParams{m, k, t}; }
  bool contains(unsigned t) const { return t >= t_min && t <= t_max; }
  // Throws std::invalid_argument unless 1 <= t_min <= t_max and the
  // t_max code fits GF(2^m).
  void check() const;
};

// Smallest field degree m able to host a k-bit message with correction
// capability t.
unsigned min_field_degree(std::uint32_t k, unsigned t);

// ln UBER per Eq. (1); computed in log space (n ~ 3.4e4 overflows
// linear doubles). rber must lie in (0, 1).
double log_uber(double rber, std::uint32_t n, unsigned t);
// Eq. (1) in linear space (0 when below double underflow).
double uber(double rber, std::uint32_t n, unsigned t);

// Exact-tail variant: P[X >= t+1]/n for X ~ Binomial(n, rber). Always
// >= the single-term Eq. (1) value; the two agree closely when
// rber * n << t.
double log_uber_tail(double rber, std::uint32_t n, unsigned t);
double uber_tail(double rber, std::uint32_t n, unsigned t);

// Smallest t in [t_min, t_max] meeting `uber_target` at the given rber
// for a k-bit message over GF(2^m); nullopt when even t_max misses the
// target. Note n depends on t through the parity bits, which this
// search accounts for.
std::optional<unsigned> min_t_for_uber(double rber, double uber_target,
                                       std::uint32_t k, unsigned m,
                                       unsigned t_min, unsigned t_max);

}  // namespace xlf::bch
