// The controller's ECC unit: the bit-true adaptive BCH codec fused
// with the hardware timing/power models, so every encode/decode
// returns data *and* the latency/energy the silicon would have spent.
//
// Decode latency honours the hardware fast path: if all syndromes are
// zero the iBM and Chien stages never start (Section 4's "if all
// reminders are null the codeword is error-free and the decoding
// process ends"). The paper's figures use the worst-case (errors
// present) latency, available from the latency model directly.
#pragma once

#include "src/bch/codec.hpp"
#include "src/ecc_hw/latency.hpp"
#include "src/ecc_hw/power.hpp"
#include "src/util/bitvec.hpp"
#include "src/util/units.hpp"

namespace xlf::controller {

struct EncodeOutcome {
  BitVec codeword;
  Seconds latency{0.0};
  Joules energy{0.0};
};

struct DecodeOutcome {
  bch::DecodeResult result;
  Seconds latency{0.0};
  Joules energy{0.0};
};

class EccUnit {
 public:
  // Codec, latency and power model all serve `config.code`.
  explicit EccUnit(const ecc_hw::EccHwConfig& config);

  // The adaptability port (drives codec, latency and power together).
  void set_correction_capability(unsigned t);
  unsigned correction_capability() const;
  bch::CodeParams current_params() const;

  EncodeOutcome encode(const BitVec& message);
  DecodeOutcome decode(BitVec& codeword);
  // Simulation fast path (identical results; see bch::Decoder).
  DecodeOutcome decode_with_reference(BitVec& codeword,
                                      const BitVec& reference);
  BitVec extract_message(const BitVec& codeword);

  const ecc_hw::LatencyModel& latency_model() const { return latency_; }
  const ecc_hw::PowerModel& power_model() const { return power_; }
  const bch::AdaptiveBchCodec& codec() const { return codec_; }

 private:
  DecodeOutcome finish_decode(const bch::DecodeResult& result);

  bch::AdaptiveBchCodec codec_;
  ecc_hw::LatencyModel latency_;
  ecc_hw::PowerModel power_;
};

}  // namespace xlf::controller
