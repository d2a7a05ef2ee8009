#include "src/nand/aging.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/expect.hpp"

namespace xlf::nand {

const char* to_string(ProgramAlgorithm algo) {
  return algo == ProgramAlgorithm::kIsppSv ? "ISPP-SV" : "ISPP-DV";
}

double AgingLaw::rber(ProgramAlgorithm algo, double cycles) const {
  XLF_EXPECT(cycles >= 0.0);
  const double growth = 1.0 + std::pow(cycles / knee_cycles, exponent);
  const double sv = rber0_sv * growth;
  return algo == ProgramAlgorithm::kIsppSv ? sv : sv / dv_improvement;
}

double AgingLaw::cycles_at_rber(ProgramAlgorithm algo, double rber) const {
  const double sv = algo == ProgramAlgorithm::kIsppSv ? rber
                                                      : rber * dv_improvement;
  XLF_EXPECT(sv >= rber0_sv);
  return knee_cycles * std::pow(sv / rber0_sv - 1.0, 1.0 / exponent);
}

double AgingLaw::max_cycles() const {
  return std::min(cycles_at_rber(ProgramAlgorithm::kIsppSv, 1.0),
                  cycles_at_rber(ProgramAlgorithm::kIsppDv, 1.0));
}

Volts AgingLaw::k_shift(double cycles) const {
  XLF_EXPECT(cycles >= 0.0);
  return k_shift_eol * std::pow(cycles / 1e6, 0.6);
}

double AgingLaw::speed_spread_multiplier(double cycles) const {
  XLF_EXPECT(cycles >= 0.0);
  return 1.0 + speed_spread_growth_eol * std::sqrt(cycles / 1e6);
}

double AgingLaw::dv_zone_multiplier(double cycles) const {
  XLF_EXPECT(cycles >= 0.0);
  return 1.0 + 2.5 * std::sqrt(cycles / 1e6);
}

}  // namespace xlf::nand
