#include "src/bch/encoder.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "src/bch/generator.hpp"
#include "src/util/rng.hpp"

namespace xlf::bch {
namespace {

BitVec random_message(std::uint32_t k, Rng& rng) {
  BitVec msg(k);
  for (std::uint32_t i = 0; i < k; ++i) msg.set(i, rng.chance(0.5));
  return msg;
}

// parity() against the polynomial oracle on random, all-zero and
// all-ones messages of one code.
void expect_oracle_parity(const Encoder& encoder, int random_trials,
                          Rng& rng) {
  const std::uint32_t k = encoder.params().k;
  BitVec ones(k);
  for (std::size_t w = 0; w < ones.words().size(); ++w) {
    ones.set_word(w, ~0ull);
  }
  EXPECT_EQ(encoder.parity(BitVec(k)), encoder.parity_reference(BitVec(k)));
  EXPECT_EQ(encoder.parity(ones), encoder.parity_reference(ones));
  for (int trial = 0; trial < random_trials; ++trial) {
    const BitVec msg = random_message(k, rng);
    EXPECT_EQ(encoder.parity(msg), encoder.parity_reference(msg));
  }
}

TEST(Encoder, KnownBch15_5_CodewordIsMultipleOfGenerator) {
  const gf::Gf2m field(4);
  const gf::Gf2Poly g = generator_polynomial(field, 3);  // deg 10
  const CodeParams params{4, 5, 3, 10};
  const Encoder encoder(params, g);

  Rng rng(1);
  for (int trial = 0; trial < 32; ++trial) {
    const BitVec msg = random_message(5, rng);
    const BitVec cw = encoder.encode(msg);
    ASSERT_EQ(cw.size(), 15u);
    // Codeword as polynomial must be divisible by g.
    gf::Gf2Poly c;
    for (std::size_t i = 0; i < cw.size(); ++i) {
      if (cw.get(i)) c.set_coeff(i, true);
    }
    EXPECT_TRUE((c % g).is_zero());
  }
  // deg g = 10 < 64 and k = 5 < 64: single-bit steps only.
  expect_oracle_parity(encoder, 32, rng);
}

TEST(Encoder, SystematicLayout) {
  const gf::Gf2m field(8);
  const gf::Gf2Poly g = generator_polynomial(field, 2);  // deg 16
  const CodeParams params{8, 64, 2};                     // r = 16, n = 80
  const Encoder encoder(params, g);
  Rng rng(2);
  const BitVec msg = random_message(64, rng);
  const BitVec cw = encoder.encode(msg);
  // Message occupies bits [r, n) untouched.
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(cw.get(16 + i), msg.get(i));
  }
  EXPECT_EQ(encoder.extract_message(cw), msg);
}

TEST(Encoder, WordStepsWithRaggedTopBitsMatchReference) {
  // m = 8, t = 2: deg g = 16 < 64, k = 96 = one 64-bit step after 32
  // single-bit steps.
  const gf::Gf2m field(8);
  const gf::Gf2Poly g = generator_polynomial(field, 2);
  const Encoder encoder(CodeParams{8, 96, 2}, g);
  Rng rng(3);
  expect_oracle_parity(encoder, 64, rng);
}

TEST(Encoder, MessageShorterThanAWordMatchesReference) {
  // m = 6, t = 3: k = 40 < 64, so every message bit is a single-bit
  // step.
  const gf::Gf2m field(6);
  const gf::Gf2Poly g = generator_polynomial(field, 3);
  const auto deg = static_cast<std::uint32_t>(g.degree());
  const Encoder encoder(CodeParams{6, 40, 3, deg}, g);
  Rng rng(4);
  expect_oracle_parity(encoder, 64, rng);
}

TEST(Encoder, GeneratorNarrowerThanAByteMatchesReference) {
  // deg g = 3 over GF(2^3) (k = 4, single-bit steps only) and deg g = 7
  // over GF(2^7) (k = 120: one 64-bit step through rows of a 7-bit
  // register).
  for (const unsigned m : {3u, 7u}) {
    const gf::Gf2m field(m);
    const gf::Gf2Poly g = generator_polynomial(field, 1);
    ASSERT_EQ(g.degree(), static_cast<long long>(m));
    const std::uint32_t k = field.order() - m;
    const Encoder encoder(CodeParams{m, k, 1}, g);
    Rng rng(m);
    expect_oracle_parity(encoder, 32, rng);
  }
}

TEST(Encoder, ParityMatchesReferenceAtEveryPaperT) {
  // GF(2^16), 4 KB page: every t of the adaptive codec, 3..65. The
  // generator for t is the one for t - 1 times the t-th factor.
  const gf::Gf2m field(16);
  const std::vector<gf::Gf2Poly> factors = generator_factors(field, 65);
  ASSERT_EQ(factors.size(), 65u);
  gf::Gf2Poly g = gf::Gf2Poly::one();
  Rng rng(13);
  for (unsigned t = 1; t <= 65; ++t) {
    g = g * factors[t - 1];
    if (t < 3) continue;
    ASSERT_EQ(g.degree(), static_cast<long long>(16 * t));
    expect_oracle_parity(Encoder(CodeParams{16, 32768, t}, g), 1, rng);
  }
}

TEST(Encoder, ArchitectedParityWiderThanGenerator) {
  // Force r > deg g: the remainder must then be of m(x) x^r, not
  // m(x) x^deg(g) — verified against the polynomial reference.
  const gf::Gf2m field(6);
  const gf::Gf2Poly g = generator_polynomial(field, 2);  // deg 12
  const CodeParams params{6, 16, 2, 20};                 // r = 20 > 12
  const Encoder encoder(params, g);
  Rng rng(5);
  for (int trial = 0; trial < 32; ++trial) {
    const BitVec msg = random_message(16, rng);
    EXPECT_EQ(encoder.parity(msg), encoder.parity_reference(msg));
  }
}

TEST(Encoder, PaperScaleParityWidth) {
  const gf::Gf2m field(16);
  const gf::Gf2Poly g = generator_polynomial(field, 8);
  const CodeParams params{16, 32768, 8};
  const Encoder encoder(params, g);
  Rng rng(6);
  const BitVec msg = random_message(32768, rng);
  const BitVec parity = encoder.parity(msg);
  EXPECT_EQ(parity, encoder.parity_reference(msg));
  EXPECT_EQ(parity.size(), 128u);
}

TEST(Encoder, ZeroMessageHasZeroParity) {
  const gf::Gf2m field(8);
  const gf::Gf2Poly g = generator_polynomial(field, 3);
  const Encoder encoder(CodeParams{8, 64, 3}, g);
  const BitVec zero(64);
  EXPECT_EQ(encoder.parity(zero).popcount(), 0u);
}

TEST(Encoder, LinearityOfParity) {
  // parity(a ^ b) = parity(a) ^ parity(b): the code is linear.
  const gf::Gf2m field(8);
  const gf::Gf2Poly g = generator_polynomial(field, 4);
  const Encoder encoder(CodeParams{8, 128, 4}, g);
  Rng rng(7);
  for (int trial = 0; trial < 32; ++trial) {
    const BitVec a = random_message(128, rng);
    const BitVec b = random_message(128, rng);
    BitVec ab = a;
    ab ^= b;
    BitVec pa = encoder.parity(a);
    pa ^= encoder.parity(b);
    EXPECT_EQ(encoder.parity(ab), pa);
  }
}

TEST(Encoder, RejectsWrongMessageLength) {
  const gf::Gf2m field(8);
  const gf::Gf2Poly g = generator_polynomial(field, 2);
  const Encoder encoder(CodeParams{8, 64, 2}, g);
  EXPECT_THROW(encoder.parity(BitVec(63)), std::invalid_argument);
  EXPECT_THROW(encoder.extract_message(BitVec(10)), std::invalid_argument);
}

TEST(Encoder, RejectsGeneratorWiderThanParity) {
  const gf::Gf2m field(8);
  const gf::Gf2Poly g = generator_polynomial(field, 3);  // deg 24
  EXPECT_THROW(Encoder(CodeParams{8, 64, 3, 16}, g), std::invalid_argument);
}

}  // namespace
}  // namespace xlf::bch
