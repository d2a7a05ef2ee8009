#include "src/bch/codec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "src/bch/error_injection.hpp"
#include "src/util/rng.hpp"

namespace xlf::bch {
namespace {

BitVec random_message(std::uint32_t k, Rng& rng) {
  BitVec msg(k);
  for (std::uint32_t i = 0; i < k; ++i) msg.set(i, rng.chance(0.5));
  return msg;
}

CodeFamily small_config() {
  // A downsized adaptive codec for fast unit tests: GF(2^13),
  // 512-byte sectors, t in [1, 12] — the configuration of [28] that
  // the paper compares against.
  return CodeFamily{13, 4096, 1, 12};
}

TEST(AdaptiveCodec, ConstructionValidatesRange) {
  CodeFamily bad = small_config();
  bad.t_min = 0;
  EXPECT_THROW(AdaptiveBchCodec{bad}, std::invalid_argument);
  bad = small_config();
  bad.t_min = 13;  // above t_max
  EXPECT_THROW(AdaptiveBchCodec{bad}, std::invalid_argument);
  bad = small_config();
  bad.t_max = 700;  // 4096 + 13 * 700 parity bits overflow GF(2^13)
  EXPECT_THROW(AdaptiveBchCodec{bad}, std::invalid_argument);
}

TEST(AdaptiveCodec, CorrectionCapabilityPort) {
  AdaptiveBchCodec codec(small_config());
  EXPECT_EQ(codec.correction_capability(), 1u);  // the family's t_min
  codec.set_correction_capability(9);
  EXPECT_EQ(codec.correction_capability(), 9u);
  EXPECT_EQ(codec.current_params().t, 9u);
  EXPECT_THROW(codec.set_correction_capability(0), std::invalid_argument);
  EXPECT_THROW(codec.set_correction_capability(13), std::invalid_argument);
}

TEST(AdaptiveCodec, ParityGrowsWithT) {
  AdaptiveBchCodec codec(small_config());
  Rng rng(1);
  const BitVec msg = random_message(4096, rng);
  codec.set_correction_capability(2);
  const BitVec cw2 = codec.encode(msg);
  codec.set_correction_capability(8);
  const BitVec cw8 = codec.encode(msg);
  EXPECT_EQ(cw2.size(), 4096u + 2u * 13u);
  EXPECT_EQ(cw8.size(), 4096u + 8u * 13u);
}

TEST(AdaptiveCodec, RoundTripAtEveryCapability) {
  AdaptiveBchCodec codec(small_config());
  Rng rng(2);
  for (unsigned t = 1; t <= 12; ++t) {
    codec.set_correction_capability(t);
    const BitVec msg = random_message(4096, rng);
    BitVec cw = codec.encode(msg);
    inject_exact(cw, t, rng);  // worst admissible load
    const DecodeResult result = codec.decode(cw);
    EXPECT_TRUE(result.ok()) << "t=" << t;
    EXPECT_EQ(result.corrected, t) << "t=" << t;
    EXPECT_EQ(codec.extract_message(cw), msg) << "t=" << t;
  }
}

TEST(AdaptiveCodec, ReconfigurationMidStream) {
  // Encode at t=3, decode, raise to t=10, continue — the runtime
  // adaptation scenario of the paper.
  AdaptiveBchCodec codec(small_config());
  Rng rng(3);

  codec.set_correction_capability(3);
  const BitVec msg1 = random_message(4096, rng);
  BitVec cw1 = codec.encode(msg1);
  inject_exact(cw1, 3, rng);
  EXPECT_TRUE(codec.decode(cw1).ok());
  EXPECT_EQ(codec.extract_message(cw1), msg1);

  codec.set_correction_capability(10);
  const BitVec msg2 = random_message(4096, rng);
  BitVec cw2 = codec.encode(msg2);
  inject_exact(cw2, 10, rng);
  EXPECT_TRUE(codec.decode(cw2).ok());
  EXPECT_EQ(codec.extract_message(cw2), msg2);
}

TEST(AdaptiveCodec, CachesConfigurations) {
  AdaptiveBchCodec codec(small_config());
  Rng rng(4);
  const BitVec msg = random_message(4096, rng);
  EXPECT_EQ(codec.cached_configurations(), 0u);
  codec.encode(msg);
  EXPECT_EQ(codec.cached_configurations(), 1u);
  codec.encode(msg);
  EXPECT_EQ(codec.cached_configurations(), 1u);  // reused
  codec.set_correction_capability(7);
  codec.encode(msg);
  EXPECT_EQ(codec.cached_configurations(), 2u);
}

TEST(AdaptiveCodec, OverloadBeyondTIsNotSilentlyMiscorrectedToOriginal) {
  AdaptiveBchCodec codec(small_config());
  Rng rng(5);
  codec.set_correction_capability(4);
  const BitVec msg = random_message(4096, rng);
  const BitVec clean = codec.encode(msg);
  int detected = 0;
  for (int trial = 0; trial < 30; ++trial) {
    BitVec cw = clean;
    inject_exact(cw, 7, rng);
    const DecodeResult result = codec.decode_with_reference(cw, clean);
    if (result.status == DecodeStatus::kUncorrectable) {
      ++detected;
    } else {
      EXPECT_NE(cw, clean);
    }
  }
  EXPECT_GT(detected, 15);
}

TEST(AdaptiveCodec, PaperProductionConfigConstructs) {
  // The real thing: GF(2^16), 4 KB page, t in [3, 65]. Construction
  // builds the field tables; codecs per t are lazy so this is cheap.
  AdaptiveBchCodec codec(CodeFamily{});  // defaults are the paper values
  EXPECT_EQ(codec.code().t_max, 65u);
  EXPECT_EQ(codec.field().m(), 16u);
  codec.set_correction_capability(14);  // ISPP-DV end-of-life point
  Rng rng(6);
  const BitVec msg = random_message(32768, rng);
  BitVec cw = codec.encode(msg);
  inject_exact(cw, 14, rng);
  const DecodeResult result = codec.decode_with_reference(cw, codec.encode(msg));
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(codec.extract_message(cw), msg);
}

}  // namespace
}  // namespace xlf::bch
