// Microarchitecture parameters of the adaptive BCH codec hardware
// (Section 4 of the paper): a parallel programmable LFSR encoder, a
// syndrome block of 2*tmax parallel LFSRs, an iBM machine, and a
// Chien search with h parallel evaluators (t x h constant Galois
// multipliers). The codec runs at 80 MHz (Fig. 8 caption).
#pragma once

#include "src/bch/code_params.hpp"
#include "src/util/units.hpp"

namespace xlf::ecc_hw {

struct EccHwConfig {
  // Datapath parallelism of encoder and syndrome LFSRs (bits/cycle).
  unsigned lfsr_parallelism = 8;
  // Chien search parallelism (positions evaluated per cycle).
  unsigned chien_parallelism = 8;
  // Codec clock (paper Fig. 8: 80 MHz).
  Hertz clock = Hertz::megahertz(80.0);
  // Fixed per-stage control/handshake overhead.
  unsigned stage_overhead_cycles = 4;
  // Code family served by the hardware — and by the software codec
  // the controller runs on it.
  bch::CodeFamily code;
};

}  // namespace xlf::ecc_hw
