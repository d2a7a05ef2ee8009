// Raw bit error rate model: the bridge between the macroscopic
// lifetime law (Fig. 5) and the microscopic threshold-distribution
// picture (Fig. 3).
//
// Macro view: RBER(algo, cycles) follows the calibrated AgingLaw,
// anchored so the UBER-target-driven correction capability reproduces
// the paper's t-chain (Fig. 7).
//
// Micro view: a cell programmed to level Lk sits at VFYk + overshoot
// right after ISPP (a sharp, verify-clamped placement) and then
// accumulates wear-induced spread (trap-assisted shifts, early
// retention loss, disturb, residual interference) which Gaussianises
// the distribution at read time. The model solves for the effective
// read-time sigma that makes the Gaussian overlap across R1..R3 equal
// the macro law — so closed-form figures and Monte-Carlo array
// simulation agree by construction, and ISPP-DV's tighter placement
// shows up as a genuinely narrower distribution.
#pragma once

#include <map>

#include "src/nand/aging.hpp"
#include "src/nand/interference.hpp"
#include "src/nand/ispp.hpp"
#include "src/nand/threshold.hpp"
#include "src/nand/variability.hpp"
#include "src/util/units.hpp"

namespace xlf::nand {

struct LevelDistribution {
  Volts mean{0.0};
  Volts sigma{0.1};
};

class RberModel {
 public:
  RberModel(const VoltagePlan& plan, const AgingLaw& aging,
            const IsppConfig& ispp,
            const VariabilityConfig& variability = {},
            const InterferenceConfig& interference = {});

  // Macro law (Fig. 5).
  double rber(ProgramAlgorithm algo, double cycles) const;

  // Effective final programming step: the full Delta-ISPP for SV, the
  // bitline-bias-reduced softplus step for DV.
  Volts effective_final_step(ProgramAlgorithm algo) const;
  // Mean placement overshoot above the verify level right after
  // programming (half the effective last step).
  Volts placement_offset(ProgramAlgorithm algo) const;
  // Placement spread right after ISPP, measured empirically: a sample
  // population is programmed through the actual ISPP engine (with
  // interference) at beginning of life and the pooled per-level spread
  // is extracted. Cached per algorithm.
  Volts placement_sigma(ProgramAlgorithm algo) const;

  // Effective read-time sigma of the programmed levels, solved so the
  // Gaussian overlap equals the macro law. Cached per (algo, cycles).
  Volts effective_sigma(ProgramAlgorithm algo, double cycles) const;
  // Top of effective_sigma's bisection bracket: the widest read-time
  // distribution the model solves for.
  static constexpr double kMaxSigmaVolts = 1.5;
  // The model's domain: below this age the law's RBER stays under the
  // overlap at kMaxSigmaVolts for every algorithm, so effective_sigma
  // (and with it the bit-true array) can solve. It falls where the
  // ISPP-SV RBER reaches about 0.2.
  double max_cycles() const;

  // Wear-induced spread to add on top of the ISPP placement so the
  // total matches effective_sigma: sqrt(eff^2 - placement^2).
  Volts wear_sigma(ProgramAlgorithm algo, double cycles) const;

  // Read-time distribution of each level (L0 = erased).
  LevelDistribution distribution(Level level, ProgramAlgorithm algo,
                                 double cycles) const;

  // Exact Gaussian-overlap RBER for a given programmed-level sigma:
  // sum over levels and read bands of misread probability, weighted by
  // the Gray-code bit distance over the 2 bits per cell.
  double rber_from_overlap(ProgramAlgorithm algo, Volts prog_sigma) const;

  const VoltagePlan& plan() const { return plan_; }
  const AgingLaw& aging() const { return aging_; }

 private:
  double measure_placement_sigma(ProgramAlgorithm algo) const;

  VoltagePlan plan_;
  AgingLaw aging_;
  IsppConfig ispp_;
  VariabilityConfig variability_;
  InterferenceConfig interference_;
  // Bisection cache: key quantises log10(cycles) to avoid re-solving.
  mutable std::map<std::pair<int, long>, double> sigma_cache_;
  mutable std::map<int, double> placement_cache_;
};

}  // namespace xlf::nand
