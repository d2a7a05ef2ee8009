#include "src/bch/encoder.hpp"

#include <algorithm>

#include "src/util/expect.hpp"

namespace xlf::bch {
namespace {

// One bit of LFSR division on a left-aligned register, MSB-first:
// the register's top bit XOR the input bit selects the feedback row.
void shift_in_bit(std::uint64_t* reg, std::size_t words,
                  const std::uint64_t* feedback_row, bool in_bit) {
  const bool feedback = (reg[words - 1] >> 63 != 0) != in_bit;
  for (std::size_t i = words; i-- > 1;) {
    reg[i] = (reg[i] << 1) | (reg[i - 1] >> 63);
  }
  reg[0] <<= 1;
  if (feedback) {
    for (std::size_t i = 0; i < words; ++i) reg[i] ^= feedback_row[i];
  }
}

}  // namespace

Encoder::Encoder(CodeParams params, const gf::Gf2Poly& generator)
    : params_(params), generator_(generator) {
  XLF_EXPECT(params_.valid());
  XLF_EXPECT(generator.degree() >= 1);
  w_ = static_cast<std::uint32_t>(generator.degree());
  XLF_EXPECT(w_ <= params_.parity_bits());
  const std::size_t words = (w_ + 63) / 64;
  const std::uint32_t pad = static_cast<std::uint32_t>(64 * words) - w_;

  // T_0[1] = x^w mod g = g - x^w, the single-bit feedback. Each
  // T_b[2^j] = x^(w + 8b + j) mod g is the one before it times x, and
  // every other row is the XOR of two smaller ones.
  tables_.assign(8 * 256 * words, 0);
  std::uint64_t* feedback = tables_.data() + words;
  for (std::uint32_t i = 0; i < w_; ++i) {
    if (generator.coeff(i)) {
      feedback[(i + pad) / 64] |= 1ull << ((i + pad) % 64);
    }
  }
  const std::uint64_t* prev = feedback;
  for (unsigned bit = 1; bit < 64; ++bit) {
    std::uint64_t* next =
        tables_.data() + ((bit / 8) * 256 + (1u << (bit % 8))) * words;
    std::copy_n(prev, words, next);
    shift_in_bit(next, words, feedback, false);
    prev = next;
  }
  for (std::size_t slice = 0; slice < 8; ++slice) {
    std::uint64_t* table = tables_.data() + slice * 256 * words;
    for (unsigned v = 3; v < 256; ++v) {
      for (std::size_t i = 0; i < words; ++i) {
        table[v * words + i] = table[(v & (v - 1)) * words + i] ^
                                table[(v & (0u - v)) * words + i];
      }
    }
  }
}

BitVec Encoder::parity(const BitVec& message) const {
  XLF_EXPECT(message.size() == params_.k);
  const std::size_t words = (w_ + 63) / 64;
  std::vector<std::uint64_t> reg(words, 0);
  const std::uint64_t* tables = tables_.data();
  const std::uint64_t* feedback = tables + words;  // T_0[1]
  const std::vector<std::uint64_t>& msg = message.words();
  const std::size_t full_words = params_.k / 64;

  // The top k mod 64 message bits, one at a time.
  for (std::size_t i = params_.k; i-- > 64 * full_words;) {
    shift_in_bit(reg.data(), words, feedback,
                 ((msg[full_words] >> (i % 64)) & 1u) != 0);
  }
  // Then 64 bits per step: the top register word XOR the message word
  // is the feedback; the register moves up a word and takes one row
  // per feedback byte, each word summing its eight row words before
  // one store.
  for (std::size_t j = full_words; j-- > 0;) {
    const std::uint64_t fb = reg[words - 1] ^ msg[j];
    const std::uint64_t* row[8];
    for (unsigned b = 0; b < 8; ++b) {
      row[b] = tables + (b * 256 + ((fb >> (8 * b)) & 0xff)) * words;
    }
    for (std::size_t i = words; i-- > 0;) {
      const std::uint64_t below = i > 0 ? reg[i - 1] : 0;
      reg[i] = below ^ ((row[0][i] ^ row[1][i]) ^ (row[2][i] ^ row[3][i])) ^
               ((row[4][i] ^ row[5][i]) ^ (row[6][i] ^ row[7][i]));
    }
  }
  // Architected parity width beyond deg g: multiply the remainder by
  // x^(r - w), i.e. feed trailing zeros.
  for (std::uint32_t i = w_; i < params_.parity_bits(); ++i) {
    shift_in_bit(reg.data(), words, feedback, false);
  }

  // The remainder is the register's top w bits.
  BitVec left(64 * words);
  for (std::size_t i = 0; i < words; ++i) left.set_word(i, reg[i]);
  BitVec out(params_.parity_bits());
  out.insert(0, left.slice(64 * words - w_, w_));
  return out;
}

BitVec Encoder::parity_reference(const BitVec& message) const {
  XLF_EXPECT(message.size() == params_.k);
  // Explicit polynomial arithmetic: p(x) = m(x) x^r mod g(x).
  gf::Gf2Poly m;
  m.reserve_degree(params_.n());
  for (std::size_t i = 0; i < params_.k; ++i) {
    if (message.get(i)) m.set_coeff(i + params_.parity_bits(), true);
  }
  const gf::Gf2Poly rem = m % generator_;
  BitVec out(params_.parity_bits());
  for (std::uint32_t i = 0; i < params_.parity_bits(); ++i) {
    if (rem.coeff(i)) out.set(i, true);
  }
  return out;
}

BitVec Encoder::encode(const BitVec& message) const {
  BitVec codeword(params_.n());
  codeword.insert(0, parity(message));
  codeword.insert(params_.parity_bits(), message);
  return codeword;
}

BitVec Encoder::extract_message(const BitVec& codeword) const {
  XLF_EXPECT(codeword.size() == params_.n());
  return codeword.slice(params_.parity_bits(), params_.k);
}

}  // namespace xlf::bch
