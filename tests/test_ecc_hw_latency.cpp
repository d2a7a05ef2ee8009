#include "src/ecc_hw/latency.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace xlf::ecc_hw {
namespace {

EccHwConfig paper_config() { return EccHwConfig{}; }  // defaults = paper

TEST(Latency, EncodeIsIndependentOfT) {
  // Section 4: "The encoding latency is therefore not influenced by
  // the selected correction capability."
  const LatencyModel model(paper_config());
  const auto cycles = model.encode_cycles();
  EXPECT_EQ(cycles, 32768ull / 8ull + 4ull);
  // Nothing about encode_cycles takes t; the latency must sit at
  // ~51 us at 80 MHz.
  EXPECT_NEAR(model.encode_latency().micros(), 51.25, 0.01);
}

TEST(Latency, DecodeCyclesComposeFromStages) {
  const LatencyModel model(paper_config());
  for (unsigned t : {3u, 14u, 30u, 65u}) {
    EXPECT_EQ(model.decode_cycles(t),
              model.syndrome_cycles(t) + model.berlekamp_massey_cycles(t) +
                  model.chien_cycles(t) + 12);
  }
}

TEST(Latency, PaperEnvelopeAt80MHz) {
  // Fig. 8: decode between ~103 us (t=3) and ~159 us (t=65); the text
  // quotes ~150 us against the 75 us page read.
  const LatencyModel model(paper_config());
  EXPECT_NEAR(model.decode_latency(3).micros(), 103.0, 1.0);
  EXPECT_NEAR(model.decode_latency(65).micros(), 159.4, 1.0);
  EXPECT_GT(model.decode_latency(65).micros(), 150.0);
  EXPECT_LT(model.decode_latency(65).micros(), 165.0);
  // DV end-of-life capability keeps decode nearly flat.
  EXPECT_LT(model.decode_latency(14).micros(), 110.0);
}

TEST(Latency, DecodeMonotoneInT) {
  const LatencyModel model(paper_config());
  unsigned long long prev = 0;
  for (unsigned t = 3; t <= 65; ++t) {
    const auto cycles = model.decode_cycles(t);
    EXPECT_GT(cycles, prev) << "t=" << t;
    prev = cycles;
  }
}

TEST(Latency, SyndromeScalesWithCodewordAndParallelism) {
  EccHwConfig narrow = paper_config();
  narrow.lfsr_parallelism = 4;
  EccHwConfig wide = paper_config();
  wide.lfsr_parallelism = 16;
  const LatencyModel narrow_model(narrow);
  const LatencyModel wide_model(wide);
  // 4x parallelism difference => ~4x syndrome cycles difference.
  const double ratio =
      static_cast<double>(narrow_model.syndrome_cycles(10)) /
      static_cast<double>(wide_model.syndrome_cycles(10));
  EXPECT_NEAR(ratio, 4.0, 0.1);
}

TEST(Latency, ChienScalesWithParallelism) {
  EccHwConfig slow = paper_config();
  slow.chien_parallelism = 1;
  EccHwConfig fast = paper_config();
  fast.chien_parallelism = 8;
  const LatencyModel slow_model(slow);
  const LatencyModel fast_model(fast);
  EXPECT_NEAR(static_cast<double>(slow_model.chien_cycles(20)) /
                  static_cast<double>(fast_model.chien_cycles(20)),
              8.0, 0.01);
}

TEST(Latency, AlignmentOnlyWhenParityMisaligned) {
  // r = 16 t with p = 8 is always aligned.
  const LatencyModel aligned(paper_config());
  EXPECT_EQ(aligned.alignment_cycles(7), 0ull);
  // p = 32: r = 16*t misaligns for odd t.
  EccHwConfig cfg = paper_config();
  cfg.lfsr_parallelism = 32;
  const LatencyModel misaligned(cfg);
  EXPECT_EQ(misaligned.alignment_cycles(4), 0ull);
  EXPECT_EQ(misaligned.alignment_cycles(5), 16ull);
}

TEST(Latency, BerlekampMasseyQuadraticInT) {
  const LatencyModel model(paper_config());
  EXPECT_EQ(model.berlekamp_massey_cycles(3), 12ull);
  EXPECT_EQ(model.berlekamp_massey_cycles(65), 65ull * 66ull);
}

TEST(Latency, CleanPageSkipsLocatorStages) {
  const LatencyModel model(paper_config());
  for (unsigned t : {3u, 65u}) {
    EXPECT_LT(model.decode_cycles_clean(t), model.decode_cycles(t));
    EXPECT_EQ(model.decode_cycles_clean(t), model.syndrome_cycles(t) + 4);
  }
}

TEST(Latency, ExpectedLatencyInterpolatesCleanAndDirty) {
  const LatencyModel model(paper_config());
  const Seconds clean = model.decode_latency_clean(10);
  const Seconds dirty = model.decode_latency(10);
  // Near-zero RBER: expected ~ clean. High RBER: expected ~ dirty.
  EXPECT_NEAR(model.expected_decode_latency(10, 1e-12).value(), clean.value(),
              1e-9);
  EXPECT_NEAR(model.expected_decode_latency(10, 1e-2).value(), dirty.value(),
              1e-9);
  const Seconds mid = model.expected_decode_latency(10, 1e-5);
  EXPECT_GT(mid, clean);
  EXPECT_LT(mid, dirty);
}

TEST(Latency, RejectsOutOfRangeT) {
  const LatencyModel model(paper_config());
  EXPECT_THROW(model.decode_latency(2), std::invalid_argument);
  EXPECT_THROW(model.decode_latency(66), std::invalid_argument);
}

TEST(Latency, RejectsInvalidConfigs) {
  EccHwConfig bad = paper_config();
  bad.lfsr_parallelism = 0;
  EXPECT_THROW(LatencyModel{bad}, std::invalid_argument);
  bad = paper_config();
  bad.code.t_min = 0;
  EXPECT_THROW(LatencyModel{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace xlf::ecc_hw
