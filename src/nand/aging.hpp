// Program/erase cycling degradation and the lifetime RBER law.
//
// The macroscopic anchor is the paper's Fig. 5 / Fig. 7 chain: with
// UBER target 1e-11 the required correction capability must evolve
// from tMIN = 3 at beginning of life to tMAX = 65 (ISPP-SV) or 14
// (ISPP-DV) at 1e6 cycles, which pins
//
//   RBER_SV(c) = 2.5e-6 * (1 + (c / 2e4)^1.53)       (~1e-3 at 1e6)
//   RBER_DV(c) = RBER_SV(c) / 10                      (Fig. 5 gap)
//
// Microscopically the same degradation appears as distribution
// broadening (oxide trap buildup) and a slight negative shift of the
// tunnelling onset (trapped charge makes cells program faster); the
// array simulation consumes those, and the rber model ties the two
// views together by construction.
#pragma once

#include "src/util/units.hpp"

namespace xlf::nand {

enum class ProgramAlgorithm { kIsppSv, kIsppDv };

const char* to_string(ProgramAlgorithm algo);

struct AgingLaw {
  // Macro RBER law parameters.
  double rber0_sv = 2.5e-6;
  double knee_cycles = 2.0e4;
  double exponent = 1.53;
  double dv_improvement = 10.0;  // Fig. 5: one order of magnitude

  // Micro-level effects.
  // Onset shift at 1e6 cycles (cells appear faster when aged).
  Volts k_shift_eol{-0.25};
  // Relative growth of the cell-speed spread sigma_K at 1e6 cycles.
  double speed_spread_growth_eol = 0.6;

  double rber(ProgramAlgorithm algo, double cycles) const;
  // Inverse of rber(), in closed form: the age at which `algo`
  // reaches `rber` (at least its beginning-of-life rate).
  double cycles_at_rber(ProgramAlgorithm algo, double rber) const;
  // The law's domain: below this age every algorithm's RBER stays
  // under 1, which the UBER and t arithmetic need. The law itself
  // grows without bound.
  double max_cycles() const;
  // Onset shift at the given cycle count.
  Volts k_shift(double cycles) const;
  // Multiplier on the BOL cell-speed spread sigma_K.
  double speed_spread_multiplier(double cycles) const;
  // Widening of the ISPP-DV pre-verify window with wear: firmware
  // grows the slow-zone margin to keep compacting the broadened
  // populations, which is what makes the DV write-time penalty climb
  // from ~40% to ~48% over the lifetime (Fig. 9).
  double dv_zone_multiplier(double cycles) const;
};

}  // namespace xlf::nand
