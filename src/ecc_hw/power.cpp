#include "src/ecc_hw/power.hpp"

#include <algorithm>

#include "src/util/expect.hpp"

namespace xlf::ecc_hw {

PowerModel::PowerModel(const EccHwConfig& config)
    : config_(config), latency_(config), area_(config) {}

Joules PowerModel::encode_energy(unsigned t) const {
  XLF_EXPECT(config_.code.contains(t));
  // Active encoder slice: r = m*t of the r_max register bits switch.
  const double m = config_.code.m;
  const double p = config_.lfsr_parallelism;
  const double active_ge =
      m * t * AreaModel::kGePerFlipFlop + m * t * p * AreaModel::kGePerXor2;
  const double ge_cycles =
      active_ge * static_cast<double>(latency_.encode_cycles());
  return Joules{ge_cycles * kJoulePerGeCycle};
}

Joules PowerModel::decode_energy(unsigned t, double expected_errors) const {
  XLF_EXPECT(config_.code.contains(t));
  XLF_EXPECT(expected_errors >= 0.0);
  const double m = config_.code.m;
  const double p = config_.lfsr_parallelism;
  const double h = config_.chien_parallelism;
  const double mult_ge = area_.ge_per_constant_multiplier();
  // Locator coefficients that actually toggle in the Chien bank: the
  // locator degree equals the number of errors, capped at t.
  const double active_terms = std::min<double>(expected_errors, t);

  // Syndrome: 2t enabled LFSRs (m FFs + p-parallel XOR net + GF
  // evaluation) for the full streaming phase.
  const double syn_ge =
      2.0 * t * (m * AreaModel::kGePerFlipFlop + m * p * AreaModel::kGePerXor2);
  const double syn =
      syn_ge * static_cast<double>(latency_.syndrome_cycles(t));

  // iBM: datapath width tracks t.
  const double bm_ge = (3.0 * t + 2.0) * m * AreaModel::kGePerFlipFlop / 4.0 +
                       4.0 * mult_ge;
  const double bm =
      bm_ge * static_cast<double>(latency_.berlekamp_massey_cycles(t));

  // Chien: h multipliers per *active* locator term.
  const double chien_ge = active_terms * h * mult_ge;
  const double chien =
      chien_ge * static_cast<double>(latency_.chien_cycles(t));

  return Joules{(syn + bm + chien) * kJoulePerGeCycle};
}

Watts PowerModel::decode_power(unsigned t, double expected_errors) const {
  return decode_energy(t, expected_errors) / latency_.decode_latency(t);
}

Watts PowerModel::encode_power(unsigned t) const {
  return encode_energy(t) / latency_.encode_latency();
}

}  // namespace xlf::ecc_hw
