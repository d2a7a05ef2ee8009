// The cross-layer configuration framework — the paper's primary
// contribution. Evaluates any (program algorithm, ECC capability)
// pair at any lifetime point using the calibrated models, realises
// the three named operating points, and exposes the full
// configuration space for Pareto exploration.
//
// Role in the trade-off loop: this is the loop's solver. It closes
// the chain NAND ISPP schedule -> RBER(cycles) -> required BCH t for
// the UBER target -> ECC decode latency/power -> read/write
// throughput, turning one (algo, t, age) triple into a Metrics
// bundle. OperatingPoint says *which* configurations to consider;
// CrossLayerFramework says *what each one costs and buys*.
//
// Conventions follow the paper's evaluation:
//  * read latency = page read time + worst-case decode latency
//    (decode dominates: ~150 us vs 75 us, Section 6.3.2);
//  * write latency = encode latency + program time (program
//    dominates: ~1.5 ms vs ~51 us, Section 6.3.3);
//  * UBER from Eq. (1); log10 carried exactly for deep-UBER points;
//  * ECC envelope = the controller's (ecc_hw, reliability.uber_target),
//    so t schedules match the reliability manager's; a page is k / 8
//    bytes.
#pragma once

#include <vector>

#include "src/controller/controller.hpp"
#include "src/core/metrics.hpp"
#include "src/core/operating_point.hpp"
#include "src/ecc_hw/latency.hpp"
#include "src/ecc_hw/power.hpp"
#include "src/hv/power_model.hpp"
#include "src/nand/aging.hpp"
#include "src/nand/rber_model.hpp"
#include "src/nand/timing.hpp"

namespace xlf::core {

class CrossLayerFramework {
 public:
  CrossLayerFramework(const controller::ControllerConfig& controller,
                      const nand::AgingLaw& aging,
                      const nand::NandTiming& timing,
                      const hv::HvConfig& hv_config);

  // ECC capability the reliability schedule selects for `algo` at the
  // given age (saturating at the hardware t_max).
  unsigned scheduled_t(nand::ProgramAlgorithm algo, double pe_cycles) const;
  // Resolve an operating point into a concrete (algo, t) at an age.
  unsigned resolve_t(const OperatingPoint& point, double pe_cycles) const;

  // Evaluate a concrete configuration.
  Metrics evaluate(nand::ProgramAlgorithm algo, unsigned t,
                   double pe_cycles) const;
  // Evaluate an operating point (resolves t first).
  Metrics evaluate(const OperatingPoint& point, double pe_cycles) const;

  // Enumerate the full configuration space {SV, DV} x [t_min, t_max]
  // at one age.
  std::vector<Metrics> enumerate(double pe_cycles) const;
  // Pareto-efficient subset under (read tput up, write tput up,
  // -log10 uber up, total power down).
  static std::vector<Metrics> pareto_front(std::vector<Metrics> space);
  // Same criterion as a membership mask over `space` (index-aligned),
  // for callers that must keep front flags attached to their own rows.
  static std::vector<bool> pareto_mask(const std::vector<Metrics>& space);

  const ecc_hw::LatencyModel& latency_model() const { return latency_; }
  const ecc_hw::PowerModel& ecc_power_model() const { return ecc_power_; }

 private:
  bch::CodeFamily code_;
  double uber_target_;
  nand::AgingLaw aging_;
  const nand::NandTiming* timing_;
  hv::NandPowerModel nand_power_;
  ecc_hw::LatencyModel latency_;
  ecc_hw::PowerModel ecc_power_;
};

}  // namespace xlf::core
