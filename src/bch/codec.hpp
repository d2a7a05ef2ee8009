// The adaptive BCH codec: a single object whose correction capability
// t is switched at runtime through a dedicated port, mirroring the
// paper's adaptable ECC block (Section 4).
//
// Encoders/decoders for each t are built lazily and cached (the
// hardware keeps per-t polynomial configurations in a small ROM; the
// software twin keeps constructed codecs). The field is shared.
#pragma once

#include <map>
#include <memory>

#include "src/bch/code_params.hpp"
#include "src/bch/decoder.hpp"
#include "src/bch/encoder.hpp"
#include "src/bch/generator.hpp"
#include "src/gf/gf2m.hpp"
#include "src/util/bitvec.hpp"

namespace xlf::bch {

class AdaptiveBchCodec {
 public:
  // Starts at the family's t_min.
  explicit AdaptiveBchCodec(const CodeFamily& code);

  const CodeFamily& code() const { return code_; }
  const gf::Gf2m& field() const { return field_; }

  // The adaptability port: clamps nothing, rejects out-of-range t.
  void set_correction_capability(unsigned t);
  unsigned correction_capability() const { return t_; }
  CodeParams current_params() const;

  BitVec encode(const BitVec& message);
  DecodeResult decode(BitVec& codeword);
  DecodeResult decode_with_reference(BitVec& codeword, const BitVec& reference);
  BitVec extract_message(const BitVec& codeword);

  // Number of distinct t configurations instantiated so far (ROM usage
  // proxy; exposed for the implementation-complexity experiment).
  std::size_t cached_configurations() const { return stages_.size(); }

 private:
  struct Stage {
    std::unique_ptr<Encoder> encoder;
    std::unique_ptr<Decoder> decoder;
  };
  Stage& stage_for(unsigned t);

  CodeFamily code_;
  gf::Gf2m field_;
  GeneratorCache generators_;
  unsigned t_;
  std::map<unsigned, Stage> stages_;
};

}  // namespace xlf::bch
