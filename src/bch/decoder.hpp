// BCH decoder: syndrome computation, inversionless-capable
// Berlekamp-Massey, and Chien search — the three stages of the
// paper's Fig. 2 pipeline.
//
// Three syndrome paths exist:
//  * `syndromes(received)` — the honest path: evaluate the received
//    polynomial at alpha^1..alpha^(2t) (even syndromes come free via
//    the Frobenius identity S_2j = S_j^2), scanning the BitVec a
//    64-bit word at a time against a per-syndrome table of
//    alpha^(j*b) powers and skipping zero words entirely.
//  * `syndromes_bitwise(received)` — the textbook per-bit Horner
//    evaluation the word kernel is verified against (and the baseline
//    bench_codec_micro measures the speedup over).
//  * `syndromes_from_errors(positions)` — simulation fast path: when
//    the simulator knows the transmitted codeword, the syndrome of
//    the received word equals the syndrome of the (sparse) error
//    pattern by linearity. Mathematically identical; tests assert so.
#pragma once

#include <cstdint>
#include <vector>

#include "src/bch/code_params.hpp"
#include "src/gf/gf2m.hpp"
#include "src/gf/gfp_poly.hpp"
#include "src/util/bitvec.hpp"

namespace xlf::bch {

enum class DecodeStatus {
  kClean,          // all syndromes zero, nothing to do
  kCorrected,      // <= t errors located and flipped
  kUncorrectable,  // error locator inconsistent: > t errors detected
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::kClean;
  // Number of bits flipped by the corrector.
  unsigned corrected = 0;
  // Positions flipped (codeword bit indices), ascending.
  std::vector<std::uint32_t> positions;

  bool ok() const { return status != DecodeStatus::kUncorrectable; }
};

class Decoder {
 public:
  Decoder(const gf::Gf2m& field, CodeParams params);

  const CodeParams& params() const { return params_; }

  // S_1..S_2t of the received word (index 0 holds S_1).
  std::vector<gf::Element> syndromes(const BitVec& received) const;
  // Reference per-bit Horner evaluation; bit-identical to syndromes().
  std::vector<gf::Element> syndromes_bitwise(const BitVec& received) const;
  // Same, from the sparse error-position list.
  std::vector<gf::Element> syndromes_from_errors(
      const std::vector<std::size_t>& error_positions) const;

  // Berlekamp-Massey: error-locator polynomial lambda(x) with
  // lambda(0) = 1, deg <= t on success. A degree above t already
  // signals an uncorrectable pattern.
  gf::GfpPoly berlekamp_massey(const std::vector<gf::Element>& syndromes) const;

  // Chien search over the shortened positions [0, n): returns the bit
  // indices i where lambda(alpha^-i) = 0.
  std::vector<std::uint32_t> chien_search(const gf::GfpPoly& lambda) const;

  // Full pipeline; corrects `received` in place.
  DecodeResult decode(BitVec& received) const;
  // Full pipeline with the simulation fast path (see file comment). It
  // knows the error positions E: when BM's lambda has degree |E| and
  // vanishes at alpha^-p for every p in E (distinct, as p < n < 2^m),
  // those are all its roots, so it returns E without the Chien sweep.
  // Weight <= t always verifies and weight > t never (deg <= t < |E|),
  // so every result equals decode()'s, miscorrections included.
  DecodeResult decode_with_reference(BitVec& received,
                                     const BitVec& reference) const;

 private:
  // `errors`: the known error positions, ascending.
  DecodeResult run_pipeline(
      BitVec& received, const std::vector<gf::Element>& syndromes,
      const std::vector<std::size_t>* errors = nullptr) const;

  const gf::Gf2m* field_;
  CodeParams params_;
};

}  // namespace xlf::bch
