#include "src/controller/ecc_unit.hpp"

namespace xlf::controller {

EccUnit::EccUnit(const ecc_hw::EccHwConfig& config)
    : codec_(config.code), latency_(config), power_(config) {}

void EccUnit::set_correction_capability(unsigned t) {
  codec_.set_correction_capability(t);
}

unsigned EccUnit::correction_capability() const {
  return codec_.correction_capability();
}

bch::CodeParams EccUnit::current_params() const {
  return codec_.current_params();
}

EncodeOutcome EccUnit::encode(const BitVec& message) {
  EncodeOutcome out;
  out.codeword = codec_.encode(message);
  out.latency = latency_.encode_latency();
  out.energy = power_.encode_energy(codec_.correction_capability());
  return out;
}

DecodeOutcome EccUnit::finish_decode(const bch::DecodeResult& result) {
  DecodeOutcome out;
  out.result = result;
  const unsigned t = codec_.correction_capability();
  if (result.status == bch::DecodeStatus::kClean) {
    out.latency = latency_.decode_latency_clean(t);
    out.energy = power_.decode_energy(t, 0.0);
  } else {
    out.latency = latency_.decode_latency(t);
    out.energy = power_.decode_energy(t, result.corrected);
  }
  return out;
}

DecodeOutcome EccUnit::decode(BitVec& codeword) {
  return finish_decode(codec_.decode(codeword));
}

DecodeOutcome EccUnit::decode_with_reference(BitVec& codeword,
                                             const BitVec& reference) {
  return finish_decode(codec_.decode_with_reference(codeword, reference));
}

BitVec EccUnit::extract_message(const BitVec& codeword) {
  return codec_.extract_message(codeword);
}

}  // namespace xlf::controller
