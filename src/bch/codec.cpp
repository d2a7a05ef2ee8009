#include "src/bch/codec.hpp"

#include "src/util/expect.hpp"

namespace xlf::bch {

AdaptiveBchCodec::AdaptiveBchCodec(const CodeFamily& code)
    : code_(code), field_(code.m), generators_(field_), t_(code.t_min) {
  code_.check();
}

void AdaptiveBchCodec::set_correction_capability(unsigned t) {
  XLF_EXPECT(code_.contains(t));
  t_ = t;
}

CodeParams AdaptiveBchCodec::current_params() const { return code_.at(t_); }

// xlf: cold — stage-cache fill: the encoder/decoder pair for each
// correction strength t is built once on first use (warm-up) and
// reused for every later page.
AdaptiveBchCodec::Stage& AdaptiveBchCodec::stage_for(unsigned t) {
  auto it = stages_.find(t);
  if (it == stages_.end()) {
    const CodeParams params = code_.at(t);
    Stage stage;
    stage.encoder = std::make_unique<Encoder>(params, generators_.get(t));
    stage.decoder = std::make_unique<Decoder>(field_, params);
    it = stages_.emplace(t, std::move(stage)).first;
  }
  return it->second;
}

BitVec AdaptiveBchCodec::encode(const BitVec& message) {
  return stage_for(t_).encoder->encode(message);
}

DecodeResult AdaptiveBchCodec::decode(BitVec& codeword) {
  return stage_for(t_).decoder->decode(codeword);
}

DecodeResult AdaptiveBchCodec::decode_with_reference(BitVec& codeword,
                                                     const BitVec& reference) {
  return stage_for(t_).decoder->decode_with_reference(codeword, reference);
}

BitVec AdaptiveBchCodec::extract_message(const BitVec& codeword) {
  return stage_for(t_).encoder->extract_message(codeword);
}

}  // namespace xlf::bch
