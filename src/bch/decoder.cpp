#include "src/bch/decoder.hpp"

#include <algorithm>
#include <bit>

#include "src/util/expect.hpp"

namespace xlf::bch {

Decoder::Decoder(const gf::Gf2m& field, CodeParams params)
    : field_(&field), params_(params) {
  XLF_EXPECT(params_.valid());
  XLF_EXPECT(field.m() == params_.m);
}

std::vector<gf::Element> Decoder::syndromes(const BitVec& received) const {
  XLF_EXPECT(received.size() == params_.n());
  const unsigned t2 = 2 * params_.t;
  std::vector<gf::Element> out(t2, 0);
  // Odd syndromes word at a time: with x = alpha^j,
  //   S_j = sum_w x^(64w) * val_w,   val_w = sum_{b set in word w} x^b,
  // so each word costs one table-driven val lookup chain (one XOR per
  // set bit) plus two field multiplies, and zero words cost only the
  // base-power advance. Even syndromes come free via S_2j = S_j^2.
  const std::vector<std::uint64_t>& words = received.words();
  std::vector<gf::Element> bit_powers(64);
  for (unsigned j = 1; j <= t2; j += 2) {
    for (std::size_t b = 0; b < 64; ++b) {
      bit_powers[b] = field_->alpha_pow(static_cast<long long>(j) * b);
    }
    const gf::Element word_step =
        field_->alpha_pow(static_cast<long long>(j) * 64);
    gf::Element acc = 0;
    gf::Element base = 1;
    for (std::size_t w = 0; w < words.size(); ++w) {
      std::uint64_t word = words[w];
      if (word != 0) {
        gf::Element val = 0;
        do {
          val ^= bit_powers[static_cast<std::size_t>(
              std::countr_zero(word))];
          word &= word - 1;
        } while (word != 0);
        acc ^= field_->mul(base, val);
      }
      base = field_->mul(base, word_step);
    }
    out[j - 1] = acc;
  }
  for (unsigned j = 2; j <= t2; j += 2) {
    const gf::Element half = out[j / 2 - 1];
    out[j - 1] = field_->mul(half, half);
  }
  return out;
}

std::vector<gf::Element> Decoder::syndromes_bitwise(
    const BitVec& received) const {
  XLF_EXPECT(received.size() == params_.n());
  const unsigned t2 = 2 * params_.t;
  std::vector<gf::Element> out(t2, 0);
  // Odd syndromes by per-bit Horner evaluation; even ones via
  // S_2j = S_j^2 (r(x)^2 = r(x^2) over GF(2)).
  for (unsigned j = 1; j <= t2; j += 2) {
    const gf::Element x = field_->alpha_pow(j);
    gf::Element acc = 0;
    for (std::size_t i = received.size(); i-- > 0;) {
      acc = field_->mul(acc, x);
      if (received.get(i)) acc ^= 1u;
    }
    out[j - 1] = acc;
  }
  for (unsigned j = 2; j <= t2; j += 2) {
    const gf::Element half = out[j / 2 - 1];
    out[j - 1] = field_->mul(half, half);
  }
  return out;
}

std::vector<gf::Element> Decoder::syndromes_from_errors(
    const std::vector<std::size_t>& error_positions) const {
  const unsigned t2 = 2 * params_.t;
  std::vector<gf::Element> out(t2, 0);
  for (unsigned j = 1; j <= t2; j += 2) {
    gf::Element acc = 0;
    for (std::size_t pos : error_positions) {
      XLF_EXPECT(pos < params_.n());
      acc ^= field_->alpha_pow(static_cast<long long>(pos) * j);
    }
    out[j - 1] = acc;
  }
  for (unsigned j = 2; j <= t2; j += 2) {
    const gf::Element half = out[j / 2 - 1];
    out[j - 1] = field_->mul(half, half);
  }
  return out;
}

gf::GfpPoly Decoder::berlekamp_massey(
    const std::vector<gf::Element>& syndromes) const {
  XLF_EXPECT(syndromes.size() == 2 * params_.t);
  // Massey's iterative construction; S[i] = S_{i+1}.
  gf::GfpPoly lambda = gf::GfpPoly::one();
  gf::GfpPoly prev = gf::GfpPoly::one();  // B(x)
  unsigned length = 0;                    // L, current register length
  unsigned gap = 1;                       // m, steps since last update
  gf::Element prev_discrepancy = 1;       // b

  for (unsigned step = 0; step < syndromes.size(); ++step) {
    // Discrepancy d = S_step+1 + sum_{i=1..L} lambda_i S_{step+1-i}.
    gf::Element d = syndromes[step];
    for (unsigned i = 1; i <= length; ++i) {
      if (i > step) break;
      d ^= field_->mul(lambda.coeff(i), syndromes[step - i]);
    }
    if (d == 0) {
      ++gap;
      continue;
    }
    const gf::Element factor = field_->div(d, prev_discrepancy);
    const gf::GfpPoly correction = prev.scale(*field_, factor).shifted(gap);
    if (2 * length <= step) {
      gf::GfpPoly old_lambda = lambda;
      lambda = lambda.add(*field_, correction);
      prev = std::move(old_lambda);
      prev_discrepancy = d;
      length = step + 1 - length;
      gap = 1;
    } else {
      lambda = lambda.add(*field_, correction);
      ++gap;
    }
  }
  return lambda;
}

std::vector<std::uint32_t> Decoder::chien_search(
    const gf::GfpPoly& lambda) const {
  const long long degree = lambda.degree();
  XLF_EXPECT(degree >= 0);
  std::vector<std::uint32_t> roots;
  if (degree == 0) return roots;

  // Incremental evaluation at alpha^-i for i = 0..n-1: keep the terms
  // lambda_j alpha^(-ij) and multiply term j by alpha^-j per step —
  // exactly the hardware's bank of constant Galois multipliers.
  const auto deg = static_cast<std::size_t>(degree);
  std::vector<gf::Element> terms(deg + 1);
  std::vector<gf::Element> steps(deg + 1);
  for (std::size_t j = 0; j <= deg; ++j) {
    terms[j] = lambda.coeff(j);
    steps[j] = field_->alpha_pow(-static_cast<long long>(j));
  }
  const std::uint32_t n = params_.n();
  for (std::uint32_t i = 0; i < n; ++i) {
    gf::Element sum = 0;
    for (std::size_t j = 0; j <= deg; ++j) sum ^= terms[j];
    if (sum == 0) {
      // Bounded by deg <= t error locations per codeword.
      roots.push_back(i);  // xlf-lint: allow(hot-alloc)
      if (roots.size() == deg) break;  // all error locations found
    }
    for (std::size_t j = 1; j <= deg; ++j) {
      terms[j] = field_->mul(terms[j], steps[j]);
    }
  }
  return roots;
}

DecodeResult Decoder::run_pipeline(
    BitVec& received, const std::vector<gf::Element>& syndromes,
    const std::vector<std::size_t>* errors) const {
  DecodeResult result;
  const bool clean = std::all_of(syndromes.begin(), syndromes.end(),
                                 [](gf::Element s) { return s == 0; });
  if (clean) {
    result.status = DecodeStatus::kClean;
    return result;
  }

  const gf::GfpPoly lambda = berlekamp_massey(syndromes);
  const long long degree = lambda.degree();
  if (degree <= 0 || degree > static_cast<long long>(params_.t)) {
    result.status = DecodeStatus::kUncorrectable;
    return result;
  }

  // decode_with_reference's verified roots (decoder.hpp).
  const auto is_root = [&](std::size_t p) {
    const gf::Element x = field_->alpha_pow(-static_cast<long long>(p));
    return lambda.eval(*field_, x) == 0;
  };
  std::vector<std::uint32_t> roots =
      errors != nullptr && degree == static_cast<long long>(errors->size()) &&
              std::all_of(errors->begin(), errors->end(), is_root)
          ? std::vector<std::uint32_t>(errors->begin(), errors->end())
          : chien_search(lambda);
  if (roots.size() != static_cast<std::size_t>(degree)) {
    // Locator roots fell outside the shortened range or were repeated:
    // more than t errors, detected.
    result.status = DecodeStatus::kUncorrectable;
    return result;
  }

  for (std::uint32_t pos : roots) received.flip(pos);
  result.status = DecodeStatus::kCorrected;
  result.corrected = static_cast<unsigned>(roots.size());
  result.positions = std::move(roots);
  return result;
}

DecodeResult Decoder::decode(BitVec& received) const {
  return run_pipeline(received, syndromes(received));
}

DecodeResult Decoder::decode_with_reference(BitVec& received,
                                            const BitVec& reference) const {
  XLF_EXPECT(received.size() == params_.n());
  XLF_EXPECT(reference.size() == params_.n());
  BitVec error = received;
  error ^= reference;
  const std::vector<std::size_t> positions = error.set_positions();
  return run_pipeline(received, syndromes_from_errors(positions), &positions);
}

}  // namespace xlf::bch
