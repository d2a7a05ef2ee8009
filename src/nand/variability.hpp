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

class VariabilitySampler {
 public:
  // The static-parameter distribution at one wear state. Its wear
  // terms (AgingLaw::k_shift, a std::pow, and speed_spread_multiplier,
  // a std::sqrt) are evaluated once, so a population drawn at one age
  // pays for them once; sample(rng, pe) draws through it too, so both
  // give the same values.
  class AtWear {
   public:
    // Sample the static parameters of one cell.
    CellParams sample(Rng& rng) const;

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
