#include "src/controller/ecc_unit.hpp"

#include <gtest/gtest.h>

#include "src/bch/error_injection.hpp"
#include "src/util/rng.hpp"

namespace xlf::controller {
namespace {

EccUnit make_unit() { return EccUnit(ecc_hw::EccHwConfig{}); }

BitVec random_message(Rng& rng) {
  BitVec msg(32768);
  for (std::size_t i = 0; i < msg.size(); ++i) msg.set(i, rng.chance(0.5));
  return msg;
}

TEST(EccUnit, EncodeCarriesHardwareLatency) {
  EccUnit unit = make_unit();
  Rng rng(1);
  const EncodeOutcome out = unit.encode(random_message(rng));
  EXPECT_EQ(out.codeword.size(), 32768u + 16u * 3u);  // initial t = 3
  EXPECT_NEAR(out.latency.micros(), 51.25, 0.01);
  EXPECT_GT(out.energy.value(), 0.0);
}

TEST(EccUnit, CleanDecodeTakesFastPath) {
  EccUnit unit = make_unit();
  Rng rng(2);
  const EncodeOutcome enc = unit.encode(random_message(rng));
  BitVec cw = enc.codeword;
  const DecodeOutcome dec = unit.decode(cw);
  EXPECT_EQ(dec.result.status, bch::DecodeStatus::kClean);
  // Clean path = syndrome-only latency, about a third of the full
  // pipeline at t = 3.
  EXPECT_LT(dec.latency.micros(), 60.0);
}

TEST(EccUnit, DirtyDecodePaysFullPipeline) {
  EccUnit unit = make_unit();
  unit.set_correction_capability(8);
  Rng rng(3);
  const BitVec msg = random_message(rng);
  const EncodeOutcome enc = unit.encode(msg);
  BitVec cw = enc.codeword;
  bch::inject_exact(cw, 8, rng);
  const DecodeOutcome dec = unit.decode(cw);
  EXPECT_EQ(dec.result.status, bch::DecodeStatus::kCorrected);
  EXPECT_EQ(dec.result.corrected, 8u);
  EXPECT_GT(dec.latency.micros(), 100.0);
  EXPECT_EQ(unit.extract_message(cw), msg);
  // Dirty decode burns more energy than a clean one.
  BitVec clean = enc.codeword;
  const DecodeOutcome clean_dec = unit.decode(clean);
  EXPECT_GT(dec.energy.value(), clean_dec.energy.value());
}

TEST(EccUnit, ReferenceDecodeMatchesHonest) {
  EccUnit unit = make_unit();
  unit.set_correction_capability(5);
  Rng rng(4);
  const BitVec msg = random_message(rng);
  const EncodeOutcome enc = unit.encode(msg);
  BitVec honest = enc.codeword;
  bch::inject_exact(honest, 5, rng);
  BitVec fast = honest;
  const DecodeOutcome a = unit.decode(honest);
  const DecodeOutcome b = unit.decode_with_reference(fast, enc.codeword);
  EXPECT_EQ(a.result.status, b.result.status);
  EXPECT_EQ(a.result.corrected, b.result.corrected);
  EXPECT_NEAR(a.latency.value(), b.latency.value(), 1e-12);
  EXPECT_EQ(honest, fast);
}

TEST(EccUnit, AdaptationPortDrivesEverything) {
  EccUnit unit = make_unit();
  unit.set_correction_capability(65);
  EXPECT_EQ(unit.correction_capability(), 65u);
  EXPECT_EQ(unit.current_params().parity_bits(), 1040u);
  Rng rng(5);
  const EncodeOutcome out = unit.encode(random_message(rng));
  EXPECT_EQ(out.codeword.size(), 33808u);
}

}  // namespace
}  // namespace xlf::controller
