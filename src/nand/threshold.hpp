// Threshold-voltage plan of the 4LC cell (paper Fig. 3): the four
// levels L0-L3, the read levels R1-R3 separating them, the verify
// levels VFY1-VFY3 the ISPP algorithm programs against, the ISPP-DV
// pre-verify levels, and the over-programming bound OP — plus the
// Gray mapping of the two logical bits onto the levels (adjacent
// levels differ in exactly one bit, so a one-level misread costs one
// bit error, the assumption under the RBER accounting).
#pragma once

#include <array>
#include <cstdint>

#include "src/util/units.hpp"

namespace xlf::nand {

enum class Level : std::uint8_t { kL0 = 0, kL1 = 1, kL2 = 2, kL3 = 3 };

constexpr std::array<Level, 4> kAllLevels{Level::kL0, Level::kL1, Level::kL2,
                                          Level::kL3};

// Two logical bits (MSB = upper page, LSB = lower page).
struct Bits2 {
  bool msb = true;
  bool lsb = true;
  friend bool operator==(const Bits2&, const Bits2&) = default;
};

// Gray mapping L0=11, L1=01, L2=00, L3=10.
Bits2 level_to_bits(Level level);
Level bits_to_level(Bits2 bits);
// Hamming distance between the encodings of two levels.
unsigned bit_distance(Level a, Level b);

struct VoltagePlan {
  // Erased distribution (L0) centre and width.
  Volts erased_mean{-3.0};
  Volts erased_sigma{0.4};
  // Verify levels: lower edges of the programmed distributions.
  std::array<Volts, 3> verify{Volts{1.2}, Volts{2.5}, Volts{3.8}};
  // ISPP-DV pre-verify offset below each verify level (bitline-bias
  // zone in which the effective programming step is reduced).
  Volts pre_verify_offset{0.3};
  // Read levels between adjacent distributions.
  std::array<Volts, 3> read{Volts{-0.85}, Volts{1.95}, Volts{3.25}};
  // Over-programming bound: a cell above this is unreadable.
  Volts over_program{5.2};

  Volts verify_for(Level level) const;
  Volts pre_verify_for(Level level) const;
  // Level seen when sensing a threshold voltage against R1..R3: L3
  // minus one level per read level above it (the read levels ascend,
  // see consistent()). Counted without branches, since a page read
  // senses random data, which defeats branch prediction.
  Level read_level(Volts vth) const {
    const double v = vth.value();
    const int above = static_cast<int>(v < read[0].value()) +
                      static_cast<int>(v < read[1].value()) +
                      static_cast<int>(v < read[2].value());
    return static_cast<Level>(3 - above);
  }
  bool is_over_programmed(Volts vth) const { return vth > over_program; }
  // Sanity of the ordering invariants (R1 < VFY1 <= R2 < VFY2 ...).
  bool consistent() const;
};

}  // namespace xlf::nand
