// Systematic BCH encoder.
//
// The codeword is c(x) = m(x) x^r + p(x) with p(x) the remainder of
// m(x) x^r divided by the generator g(x); bits [0, r) of the codeword
// hold the parity (stored in the flash spare area), bits [r, n) hold
// the message. The software model is LFSR division on one word
// register, the w = deg g remainder bits left-aligned in ceil(w/64)
// words: each step takes 64 message bits through eight byte-slice
// tables T_b[v] = v x^(8b) x^w mod g, and the top k mod 64 message
// bits and the r - w trailing zeros (r > deg g) shift in one bit at a
// time, so every (k, r, deg g) takes this one path. ecc_hw prices the
// paper's parallel LFSR (p = 8) instead. An independent polynomial-
// arithmetic reference (`parity_reference`) backs it in tests.
#pragma once

#include <cstdint>
#include <vector>

#include "src/bch/code_params.hpp"
#include "src/gf/gf2_poly.hpp"
#include "src/util/bitvec.hpp"

namespace xlf::bch {

class Encoder {
 public:
  // `generator` is the generator for params.t; its degree must not
  // exceed the architected parity width params.parity_bits().
  Encoder(CodeParams params, const gf::Gf2Poly& generator);

  const CodeParams& params() const { return params_; }

  // r parity bits for a k-bit message (LFSR division).
  BitVec parity(const BitVec& message) const;
  // Independent reference: explicit polynomial remainder via Gf2Poly.
  BitVec parity_reference(const BitVec& message) const;

  // Full systematic codeword of length n.
  BitVec encode(const BitVec& message) const;

  // Split a codeword back into its message part (bits [r, n)).
  BitVec extract_message(const BitVec& codeword) const;

 private:
  CodeParams params_;
  gf::Gf2Poly generator_;
  std::uint32_t w_ = 0;  // generator degree (LFSR register width)
  // The eight byte-slice tables, rows left-aligned in ceil(w/64) words
  // like the register: word i of T_b[v] is tables_[(b * 256 + v) *
  // words + i].
  std::vector<std::uint64_t> tables_;
};

}  // namespace xlf::bch
