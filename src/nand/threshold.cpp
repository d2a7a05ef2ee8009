#include "src/nand/threshold.hpp"

#include "src/util/expect.hpp"

namespace xlf::nand {

Bits2 level_to_bits(Level level) {
  switch (level) {
    case Level::kL0: return {true, true};    // 11
    case Level::kL1: return {false, true};   // 01
    case Level::kL2: return {false, false};  // 00
    case Level::kL3: return {true, false};   // 10
  }
  XLF_EXPECT(false && "invalid level");
  return {};
}

Level bits_to_level(Bits2 bits) {
  if (bits.msb && bits.lsb) return Level::kL0;
  if (!bits.msb && bits.lsb) return Level::kL1;
  if (!bits.msb && !bits.lsb) return Level::kL2;
  return Level::kL3;
}

unsigned bit_distance(Level a, Level b) {
  const Bits2 ba = level_to_bits(a);
  const Bits2 bb = level_to_bits(b);
  return static_cast<unsigned>(ba.msb != bb.msb) +
         static_cast<unsigned>(ba.lsb != bb.lsb);
}

Volts VoltagePlan::verify_for(Level level) const {
  XLF_EXPECT(level != Level::kL0);  // L0 is reached by erase, not program
  return verify[static_cast<std::size_t>(level) - 1];
}

Volts VoltagePlan::pre_verify_for(Level level) const {
  return verify_for(level) - pre_verify_offset;
}

bool VoltagePlan::consistent() const {
  if (!(erased_mean < read[0])) return false;
  for (std::size_t i = 0; i < 3; ++i) {
    if (!(read[i] < verify[i])) return false;
    if (i > 0 && !(verify[i - 1] < read[i])) return false;
    if (!(pre_verify_offset.value() > 0.0)) return false;
  }
  return verify[2] < over_program;
}

}  // namespace xlf::nand
