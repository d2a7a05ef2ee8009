#include "src/nand/variability.hpp"

#include <algorithm>

namespace xlf::nand {

VariabilitySampler::VariabilitySampler(const VariabilityConfig& config,
                                       const AgingLaw& aging)
    : config_(config), aging_(aging) {}

VariabilitySampler::AtWear VariabilitySampler::at_wear(double pe_cycles) const {
  const double spread_mult = aging_.speed_spread_multiplier(pe_cycles);
  return AtWear(config_,
                config_.k_nominal.value() + aging_.k_shift(pe_cycles).value(),
                config_.k_sigma.value() * spread_mult);
}

CellParams VariabilitySampler::AtWear::sample(Rng& rng) const {
  const NormalLaw k = onset();
  const NormalLaw s = sharpness();
  CellParams params;
  params.k_onset = Volts{rng.gaussian(k.mean, k.sigma)};
  params.onset_sharpness =
      Volts{std::max(kMinSharpness, rng.gaussian(s.mean, s.sigma))};
  params.injection_sigma = injection_sigma();
  return params;
}

Volts VariabilitySampler::sample_erased(Rng& rng, Volts mean,
                                        Volts sigma) const {
  return Volts{rng.gaussian(mean.value(), sigma.value())};
}

}  // namespace xlf::nand
