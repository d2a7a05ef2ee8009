#include "src/ecc_hw/area.hpp"

#include "src/util/expect.hpp"

namespace xlf::ecc_hw {

AreaModel::AreaModel(const EccHwConfig& config) : config_(config) {
  config_.code.check();
}

double AreaModel::ge_per_constant_multiplier() const {
  // A constant GF(2^m) multiplier reduces to an XOR network of about
  // m^2/2 two-input XORs.
  const double m = config_.code.m;
  return (m * m / 2.0) * kGePerXor2;
}

AreaBreakdown AreaModel::breakdown() const {
  const double m = config_.code.m;
  const double t_max = config_.code.t_max;
  const double p = config_.lfsr_parallelism;
  const double h = config_.chien_parallelism;
  const double r_max = m * t_max;

  AreaBreakdown area;
  // Programmable parallel LFSR encoder: r_max flip-flops, plus per-bit
  // an XOR and the polynomial-select mux (the [28]-style programmable
  // feedback network), replicated p-fold for the parallel datapath.
  area.encoder_ge =
      r_max * kGePerFlipFlop + r_max * p * (kGePerXor2 + kGePerMux2);

  // Syndrome block: 2*t_max LFSRs of m bits each with p-parallel
  // feedback, plus the GF evaluation network per LFSR.
  area.syndrome_ge =
      2.0 * t_max *
      (m * kGePerFlipFlop + m * p * kGePerXor2 + ge_per_constant_multiplier());

  // iBM machine: ~3t+2 coefficient registers of m bits, two general
  // multipliers (~2x a constant one) and the update adders.
  area.berlekamp_massey_ge = (3.0 * t_max + 2.0) * m * kGePerFlipFlop +
                             2.0 * 2.0 * ge_per_constant_multiplier() +
                             (2.0 * t_max) * m * kGePerXor2;

  // Chien search: t_max x h constant multipliers plus t_max m-bit term
  // registers and the h summation trees.
  area.chien_ge = t_max * h * ge_per_constant_multiplier() +
                  t_max * m * kGePerFlipFlop +
                  h * t_max * m * kGePerXor2 / 2.0;

  // Control FSM, correction-capability port, handshake.
  area.control_ge = 2000.0;
  return area;
}

double AreaModel::area_mm2() const {
  return total_ge() * kUm2PerGe / 1e6;
}

}  // namespace xlf::ecc_hw
