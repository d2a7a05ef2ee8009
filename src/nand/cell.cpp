#include "src/nand/cell.hpp"

#include <cmath>

namespace xlf::nand {

Volts FloatingGateCell::expected_step(Volts vcg) const {
  const double overdrive = vcg.value() - vth_.value() - params_.k_onset.value();
  const double s = params_.onset_sharpness.value();
  // softplus(overdrive) with overflow care: for large positive
  // arguments it is the argument itself.
  const double x = overdrive / s;
  double step;
  if (x > kLinearOnsetRatio) {
    step = overdrive;
  } else {
    step = s * std::log1p(std::exp(x));
  }
  return Volts{step};
}

void FloatingGateCell::apply_pulse(Volts vcg, Rng& rng, Volts bitline_bias) {
  const Volts effective_vcg = vcg - bitline_bias;
  const double step = expected_step(effective_vcg).value();
  if (step <= kMinStepVolts) return;  // below onset: nothing tunnels
  // Shot noise grows with the square root of the transferred charge.
  const double sigma =
      params_.injection_sigma.value() * std::sqrt(std::max(step, 0.0));
  vth_ = vth_ + Volts{step + rng.gaussian(0.0, sigma)};
}

}  // namespace xlf::nand
