// Per-cell technology variability (paper Section 5.1): geometry (W/L)
// variations, tunnel-oxide and doping non-uniformity, and injection
// granularity. All sources fold into two per-cell quantities the
// compact model consumes — the onset offset K (cell speed) and the
// injection noise sigma — sampled per cell from a seeded generator so
// array populations are reproducible.
#pragma once

#include "src/nand/aging.hpp"
#include "src/nand/cell.hpp"
#include "src/util/rng.hpp"

namespace xlf::nand {

struct VariabilityConfig {
  // Nominal onset for the 45 nm production device (ISPP 14..19 V
  // staircase programming a 1.2..3.8 V verify window).
  Volts k_nominal{14.0};
  // Static cell-speed spread at beginning of life.
  Volts k_sigma{0.28};
  // Onset sharpness and its spread.
  Volts onset_sharpness{0.4};
  double onset_sharpness_rel_sigma = 0.05;
  // Injection-noise baseline; the rber model retunes this per
  // (algorithm, age) to meet the calibrated distribution widths.
  Volts injection_sigma{0.05};
};

// A normal law, drawn as rng.gaussian(mean, sigma).
struct NormalLaw {
  double mean = 0.0;
  double sigma = 0.0;
};

class VariabilitySampler {
 public:
  // The static-parameter distribution at one wear state. Its wear
  // terms (AgingLaw::k_shift, a std::pow, and speed_spread_multiplier,
  // a std::sqrt) are evaluated once, so a population drawn at one age
  // pays for them once; sample(rng, pe) draws through it too, so both
  // give the same values.
  class AtWear {
   public:
    // Sample the static parameters of one cell: the onset, then the
    // sharpness, floored at kMinSharpness.
    CellParams sample(Rng& rng) const;

    static constexpr double kMinSharpness = 0.05;
    // The laws sample() draws from, and the noise it assigns.
    NormalLaw onset() const { return {k_mean_, k_sigma_}; }
    NormalLaw sharpness() const {
      return {config_.onset_sharpness.value(),
              config_.onset_sharpness.value() *
                  config_.onset_sharpness_rel_sigma};
    }
    Volts injection_sigma() const { return config_.injection_sigma; }

   private:
    friend class VariabilitySampler;
    AtWear(const VariabilityConfig& config, double k_mean, double k_sigma)
        : config_(config), k_mean_(k_mean), k_sigma_(k_sigma) {}

    VariabilityConfig config_;
    double k_mean_;
    double k_sigma_;
  };

  VariabilitySampler(const VariabilityConfig& config, const AgingLaw& aging);

  AtWear at_wear(double pe_cycles) const;
  // Sample the static parameters of one cell at the given wear state.
  CellParams sample(Rng& rng, double pe_cycles) const {
    return at_wear(pe_cycles).sample(rng);
  }

  // Sample an erased threshold voltage.
  Volts sample_erased(Rng& rng, Volts mean, Volts sigma) const;

  const VariabilityConfig& config() const { return config_; }

 private:
  VariabilityConfig config_;
  AgingLaw aging_;
};

}  // namespace xlf::nand
