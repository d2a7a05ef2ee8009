// Floating-gate cell compact model.
//
// The programming transient follows the standard ISPP law: per pulse
// the threshold voltage moves by a softplus of the gate overdrive,
//
//   dVTH = s * ln(1 + exp((VCG - VTH - K) / s))
//
// which vanishes below the tunnelling onset and approaches slope-1
// tracking of the control gate above it. In the staircase steady
// state VTH advances by exactly the ISPP step per pulse — the
// behaviour fitted against the 41 nm experimental staircase in the
// paper's Fig. 4. K (the onset offset) and the injection noise carry
// the per-cell variability and the aging state.
#pragma once

#include "src/util/rng.hpp"
#include "src/util/units.hpp"

namespace xlf::nand {

struct CellParams {
  // Tunnelling onset offset: VTH tracks VCG - K in steady state.
  // Fast cells have smaller K, slow cells larger.
  Volts k_onset{14.0};
  // Transition sharpness of the onset (technology constant).
  Volts onset_sharpness{0.4};
  // Per-pulse injection granularity noise (electron shot noise),
  // standard deviation added to each nonzero VTH step.
  Volts injection_sigma{0.05};
};

class FloatingGateCell {
 public:
  // Past this overdrive-to-sharpness ratio expected_step() returns the
  // overdrive itself (the softplus is linear there to double precision).
  static constexpr double kLinearOnsetRatio = 30.0;
  // A step at or below this does not tunnel: apply_pulse() leaves the
  // threshold alone and takes no injection-noise draw.
  static constexpr double kMinStepVolts = 1e-9;

  FloatingGateCell() = default;
  FloatingGateCell(Volts initial_vth, CellParams params)
      : vth_(initial_vth), params_(params) {}

  Volts vth() const { return vth_; }
  const CellParams& params() const { return params_; }

  // Deterministic transfer: expected VTH increment for one pulse at
  // gate voltage vcg (no noise). Exposed for model fitting (Fig. 4).
  Volts expected_step(Volts vcg) const;

  // Apply one program pulse; injection noise scales with the step so
  // an inhibited/off cell stays put. `bitline_bias` lifts the channel
  // potential and reduces the effective overdrive — the ISPP-DV
  // mechanism for half-step programming near the verify level.
  void apply_pulse(Volts vcg, Rng& rng, Volts bitline_bias = Volts{0.0});

  // Erase to the given threshold (block erase samples a fresh erased
  // distribution; retention state resets).
  void erase(Volts new_vth) { vth_ = new_vth; }

  // External threshold shifts: cell-to-cell interference, retention
  // loss, disturb.
  void shift(Volts delta) { vth_ = vth_ + delta; }

 private:
  Volts vth_{-3.0};
  CellParams params_;
};

}  // namespace xlf::nand
