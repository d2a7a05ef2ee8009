#include "src/bch/decoder.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/bch/encoder.hpp"
#include "src/bch/error_injection.hpp"
#include "src/bch/generator.hpp"
#include "src/util/rng.hpp"

namespace xlf::bch {
namespace {

BitVec random_message(std::uint32_t k, Rng& rng) {
  BitVec msg(k);
  for (std::uint32_t i = 0; i < k; ++i) msg.set(i, rng.chance(0.5));
  return msg;
}

struct SmallCode {
  gf::Gf2m field;
  CodeParams params;
  Encoder encoder;
  Decoder decoder;

  SmallCode(unsigned m, std::uint32_t k, unsigned t, const gf::Gf2Poly& g,
            std::uint32_t r)
      : field(m),
        params{m, k, t, r},
        encoder(params, g),
        decoder(field, params) {}
};

SmallCode make_code(unsigned m, std::uint32_t k, unsigned t) {
  const gf::Gf2m field(m);
  const gf::Gf2Poly g = generator_polynomial(field, t);
  return SmallCode(m, k, t, g, static_cast<std::uint32_t>(g.degree()));
}

TEST(Decoder, CleanCodewordHasZeroSyndromes) {
  auto code = make_code(8, 128, 4);
  Rng rng(1);
  const BitVec cw = code.encoder.encode(random_message(128, rng));
  for (gf::Element s : code.decoder.syndromes(cw)) EXPECT_EQ(s, 0u);
  BitVec copy = cw;
  const DecodeResult result = code.decoder.decode(copy);
  EXPECT_EQ(result.status, DecodeStatus::kClean);
  EXPECT_EQ(copy, cw);
}

TEST(Decoder, Bch15_5_ExhaustiveUpToThreeErrors) {
  // BCH(15,5) corrects any pattern of <= 3 errors; check every single,
  // double, and triple pattern on several codewords — 575 patterns
  // each, fully exhaustive.
  const gf::Gf2m field(4);
  const gf::Gf2Poly g = generator_polynomial(field, 3);
  SmallCode code(4, 5, 3, g, 10);
  Rng rng(2);
  for (int trial = 0; trial < 4; ++trial) {
    const BitVec cw = code.encoder.encode(random_message(5, rng));
    for (std::size_t a = 0; a < 15; ++a) {
      for (std::size_t b = a; b < 15; ++b) {
        for (std::size_t c = b; c < 15; ++c) {
          BitVec corrupted = cw;
          corrupted.flip(a);
          if (b != a) corrupted.flip(b);
          if (c != b && c != a) corrupted.flip(c);
          const DecodeResult result = code.decoder.decode(corrupted);
          EXPECT_TRUE(result.ok());
          EXPECT_EQ(corrupted, cw)
              << "pattern {" << a << "," << b << "," << c << "}";
        }
      }
    }
  }
}

TEST(Decoder, SyndromesFromErrorsMatchesDense) {
  auto code = make_code(10, 512, 6);
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec cw = code.encoder.encode(random_message(512, rng));
    BitVec corrupted = cw;
    const auto injected = inject_exact(corrupted, 1 + trial % 6, rng);
    EXPECT_EQ(code.decoder.syndromes(corrupted),
              code.decoder.syndromes_from_errors(injected));
  }
}

TEST(Decoder, SyndromeLinearity) {
  // Syndromes of received = syndromes of error pattern (codeword
  // contributes zero) — the identity the simulation fast path uses.
  auto code = make_code(8, 64, 3);
  Rng rng(4);
  const BitVec cw = code.encoder.encode(random_message(64, rng));
  BitVec corrupted = cw;
  const auto injected = inject_exact(corrupted, 3, rng);
  BitVec error_only(corrupted.size());
  for (std::size_t pos : injected) error_only.set(pos, true);
  EXPECT_EQ(code.decoder.syndromes(corrupted),
            code.decoder.syndromes(error_only));
}

TEST(Decoder, BerlekampMasseyDegreeEqualsErrorCount) {
  auto code = make_code(10, 512, 8);
  Rng rng(5);
  for (unsigned errors = 1; errors <= 8; ++errors) {
    const BitVec cw = code.encoder.encode(random_message(512, rng));
    BitVec corrupted = cw;
    inject_exact(corrupted, errors, rng);
    const auto syn = code.decoder.syndromes(corrupted);
    const gf::GfpPoly lambda = code.decoder.berlekamp_massey(syn);
    EXPECT_EQ(lambda.degree(), static_cast<long long>(errors));
    EXPECT_EQ(lambda.coeff(0), 1u);
  }
}

TEST(Decoder, ChienFindsExactlyTheInjectedPositions) {
  auto code = make_code(10, 512, 8);
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVec cw = code.encoder.encode(random_message(512, rng));
    BitVec corrupted = cw;
    const auto injected = inject_exact(corrupted, 5, rng);
    const auto syn = code.decoder.syndromes(corrupted);
    const auto lambda = code.decoder.berlekamp_massey(syn);
    auto roots = code.decoder.chien_search(lambda);
    std::vector<std::uint32_t> expected(injected.begin(), injected.end());
    EXPECT_EQ(roots, expected);
  }
}

TEST(Decoder, CorrectsUpToT) {
  auto code = make_code(10, 400, 10);
  Rng rng(7);
  for (unsigned errors = 0; errors <= 10; ++errors) {
    const BitVec cw = code.encoder.encode(random_message(400, rng));
    BitVec corrupted = cw;
    inject_exact(corrupted, errors, rng);
    const DecodeResult result = code.decoder.decode(corrupted);
    EXPECT_TRUE(result.ok()) << errors << " errors";
    EXPECT_EQ(result.corrected, errors);
    EXPECT_EQ(corrupted, cw) << errors << " errors";
  }
}

TEST(Decoder, NeverSilentlyReturnsOriginalBeyondT) {
  // With > t errors the decoder can fail (detected) or miscorrect to
  // a *different* codeword, but it can never reproduce the original.
  auto code = make_code(8, 100, 3);
  Rng rng(8);
  int detected = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    const BitVec cw = code.encoder.encode(random_message(100, rng));
    BitVec corrupted = cw;
    inject_exact(corrupted, 5, rng);
    const DecodeResult result = code.decoder.decode(corrupted);
    if (result.status == DecodeStatus::kUncorrectable) {
      ++detected;
    } else {
      EXPECT_NE(corrupted, cw);
    }
  }
  // Detection should be the common outcome.
  EXPECT_GT(detected, trials / 2);
}

TEST(Decoder, BurstWithinTIsCorrected) {
  auto code = make_code(10, 400, 12);
  Rng rng(9);
  for (int trial = 0; trial < 10; ++trial) {
    const BitVec cw = code.encoder.encode(random_message(400, rng));
    BitVec corrupted = cw;
    inject_burst(corrupted, 12, rng);
    const DecodeResult result = code.decoder.decode(corrupted);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(corrupted, cw);
  }
}

TEST(Decoder, DecodeWithReferenceMatchesHonestDecode) {
  auto code = make_code(10, 512, 6);
  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec cw = code.encoder.encode(random_message(512, rng));
    BitVec honest = cw;
    inject_exact(honest, 1 + trial % 6, rng);
    BitVec fast = honest;

    const DecodeResult r1 = code.decoder.decode(honest);
    const DecodeResult r2 = code.decoder.decode_with_reference(fast, cw);
    EXPECT_EQ(r1.status, r2.status);
    EXPECT_EQ(r1.corrected, r2.corrected);
    EXPECT_EQ(honest, fast);
  }
}

TEST(Decoder, DecodeWithReferenceEqualsFullDecodeAtEveryWeight) {
  // The reference decode checks the locator at the known positions and
  // skips the Chien sweep when they are its roots; at every weight its
  // result must be decode()'s: status, count, positions and word.
  struct Shape {
    unsigned m;
    std::uint32_t k;
    unsigned t;
  };
  for (const Shape shape : {Shape{16, 32768, 3}, Shape{16, 32768, 14},
                            Shape{16, 32768, 65}, Shape{6, 45, 3}}) {
    auto code = make_code(shape.m, shape.k, shape.t);
    Rng rng(100 + shape.t);
    const unsigned t = shape.t;
    int uncorrectable = 0;
    for (const unsigned weight : {0u, 1u, t - 1, t, t + 1, t + 2}) {
      for (int draw = 0; draw < 3; ++draw) {
        const BitVec clean = code.encoder.encode(random_message(shape.k, rng));
        BitVec full = clean;
        inject_exact(full, weight, rng);
        BitVec fast = full;
        const DecodeResult r1 = code.decoder.decode(full);
        const DecodeResult r2 = code.decoder.decode_with_reference(fast, clean);
        EXPECT_EQ(r1.status, r2.status) << "t " << t << " weight " << weight;
        EXPECT_EQ(r1.corrected, r2.corrected);
        EXPECT_EQ(r1.positions, r2.positions);
        EXPECT_EQ(full, fast);
        if (weight <= t) {
          EXPECT_EQ(fast, clean);
        }
        if (r2.status == DecodeStatus::kUncorrectable) ++uncorrectable;
      }
    }
    // Weights above t reach the sweep and are detected somewhere.
    EXPECT_GT(uncorrectable, 0) << "t " << t;
  }
}

TEST(Decoder, ErrorInParitySectionIsAlsoCorrected) {
  auto code = make_code(8, 64, 4);
  Rng rng(11);
  const BitVec cw = code.encoder.encode(random_message(64, rng));
  BitVec corrupted = cw;
  // Flip bits inside the parity area only (bits [0, r)).
  corrupted.flip(0);
  corrupted.flip(5);
  const DecodeResult result = code.decoder.decode(corrupted);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(corrupted, cw);
}

TEST(Decoder, PaperScaleT65RoundTrip) {
  // The full production configuration: GF(2^16), 4 KB page, t = 65,
  // exactly 65 injected errors, honest dense-syndrome decode.
  const gf::Gf2m field(16);
  const gf::Gf2Poly g = generator_polynomial(field, 65);
  const CodeParams params{16, 32768, 65};
  const Encoder encoder(params, g);
  const Decoder decoder(field, params);

  Rng rng(12);
  const BitVec msg = random_message(32768, rng);
  const BitVec cw = encoder.encode(msg);
  BitVec corrupted = cw;
  inject_exact(corrupted, 65, rng);

  const DecodeResult result = decoder.decode(corrupted);
  EXPECT_EQ(result.status, DecodeStatus::kCorrected);
  EXPECT_EQ(result.corrected, 65u);
  EXPECT_EQ(corrupted, cw);
  EXPECT_EQ(encoder.extract_message(corrupted), msg);

  // And 66 errors must not silently pass as the original.
  BitVec overloaded = cw;
  inject_exact(overloaded, 66, rng);
  const DecodeResult over = decoder.decode_with_reference(overloaded, cw);
  if (over.status != DecodeStatus::kUncorrectable) {
    EXPECT_NE(overloaded, cw);
  }
}

}  // namespace
}  // namespace xlf::bch
