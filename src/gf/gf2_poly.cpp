#include "src/gf/gf2_poly.hpp"

#include <bit>

#include "src/util/expect.hpp"

namespace xlf::gf {
namespace {
constexpr std::size_t kBits = 64;
}

Gf2Poly::Gf2Poly(std::uint64_t bits) {
  if (bits != 0) words_.push_back(bits);
}

Gf2Poly Gf2Poly::monomial(std::size_t e) {
  Gf2Poly p;
  p.set_coeff(e, true);
  return p;
}

long long Gf2Poly::degree() const {
  for (std::size_t w = words_.size(); w-- > 0;) {
    if (words_[w] != 0) {
      return static_cast<long long>(w * kBits) + (63 - std::countl_zero(words_[w]));
    }
  }
  return -1;
}

bool Gf2Poly::is_zero() const { return degree() < 0; }

bool Gf2Poly::coeff(std::size_t i) const {
  const std::size_t w = i / kBits;
  if (w >= words_.size()) return false;
  return (words_[w] >> (i % kBits)) & 1u;
}

void Gf2Poly::set_coeff(std::size_t i, bool value) {
  const std::size_t w = i / kBits;
  if (w >= words_.size()) {
    if (!value) return;
    words_.resize(w + 1, 0);
  }
  const std::uint64_t mask = 1ull << (i % kBits);
  if (value) {
    words_[w] |= mask;
  } else {
    words_[w] &= ~mask;
  }
}

std::size_t Gf2Poly::weight() const {
  std::size_t count = 0;
  for (std::uint64_t w : words_) count += static_cast<std::size_t>(std::popcount(w));
  return count;
}

Gf2Poly Gf2Poly::operator+(const Gf2Poly& other) const {
  Gf2Poly result = *this;
  if (other.words_.size() > result.words_.size()) {
    result.words_.resize(other.words_.size(), 0);
  }
  for (std::size_t i = 0; i < other.words_.size(); ++i) {
    result.words_[i] ^= other.words_[i];
  }
  result.trim();
  return result;
}

Gf2Poly Gf2Poly::operator*(const Gf2Poly& other) const {
  if (is_zero() || other.is_zero()) return Gf2Poly();
  // Schoolbook shift-and-xor over the sparser operand's set bits; the
  // polynomials met here (generators, minimal polynomials) are at most
  // a few thousand bits, so this is never a bottleneck.
  const Gf2Poly& sparse = weight() <= other.weight() ? *this : other;
  const Gf2Poly& dense = weight() <= other.weight() ? other : *this;
  Gf2Poly result;
  const auto deg = static_cast<std::size_t>(sparse.degree());
  for (std::size_t i = 0; i <= deg; ++i) {
    if (sparse.coeff(i)) result = result + dense.shifted(i);
  }
  return result;
}

Gf2Poly::DivMod Gf2Poly::divmod(const Gf2Poly& divisor) const {
  XLF_EXPECT(!divisor.is_zero());
  DivMod out;
  out.remainder = *this;
  const long long ddeg = divisor.degree();
  for (long long rdeg = out.remainder.degree(); rdeg >= ddeg;
       rdeg = out.remainder.degree()) {
    const auto shift = static_cast<std::size_t>(rdeg - ddeg);
    out.quotient.set_coeff(shift, true);
    out.remainder = out.remainder + divisor.shifted(shift);
  }
  return out;
}

Gf2Poly Gf2Poly::operator%(const Gf2Poly& divisor) const {
  return divmod(divisor).remainder;
}

bool Gf2Poly::operator==(const Gf2Poly& other) const {
  const std::size_t n = std::max(words_.size(), other.words_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t a = i < words_.size() ? words_[i] : 0;
    const std::uint64_t b = i < other.words_.size() ? other.words_[i] : 0;
    if (a != b) return false;
  }
  return true;
}

Gf2Poly Gf2Poly::shifted(std::size_t e) const {
  if (is_zero() || e == 0) {
    Gf2Poly copy = *this;
    copy.trim();
    return copy;
  }
  const std::size_t word_shift = e / kBits;
  const std::size_t bit_shift = e % kBits;
  Gf2Poly result;
  result.words_.assign(words_.size() + word_shift + 1, 0);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    result.words_[i + word_shift] |= words_[i] << bit_shift;
    if (bit_shift != 0) {
      result.words_[i + word_shift + 1] |= words_[i] >> (kBits - bit_shift);
    }
  }
  result.trim();
  return result;
}

Element Gf2Poly::eval(const Gf2m& field, Element x) const {
  const long long deg = degree();
  if (deg < 0) return 0;
  Element acc = 0;
  for (long long i = deg; i >= 0; --i) {
    acc = field.mul(acc, x);
    if (coeff(static_cast<std::size_t>(i))) acc ^= 1u;
  }
  return acc;
}

Gf2Poly Gf2Poly::derivative() const {
  // d/dx sum a_i x^i = sum (i mod 2) a_i x^(i-1): odd terms drop one
  // degree, even terms vanish.
  Gf2Poly result;
  const long long deg = degree();
  for (long long i = 1; i <= deg; i += 2) {
    if (coeff(static_cast<std::size_t>(i))) {
      result.set_coeff(static_cast<std::size_t>(i - 1), true);
    }
  }
  return result;
}

Gf2Poly Gf2Poly::gcd(Gf2Poly a, Gf2Poly b) {
  while (!b.is_zero()) {
    Gf2Poly r = a % b;
    a = b;
    b = r;
  }
  return a;
}

void Gf2Poly::reserve_degree(std::size_t deg) {
  const std::size_t need = deg / kBits + 1;
  if (words_.size() < need) words_.resize(need, 0);
}

// xlf: cold — diagnostics only; reached by the hot closure through
// unrelated .to_string() receivers.
std::string Gf2Poly::to_string() const {
  if (is_zero()) return "0";
  std::string out;
  for (long long i = degree(); i >= 0; --i) {
    if (!coeff(static_cast<std::size_t>(i))) continue;
    if (!out.empty()) out += " + ";
    if (i == 0) {
      out += "1";
    } else if (i == 1) {
      out += "x";
    } else {
      out += "x^" + std::to_string(i);
    }
  }
  return out;
}

void Gf2Poly::trim() {
  while (!words_.empty() && words_.back() == 0) words_.pop_back();
}

}  // namespace xlf::gf
