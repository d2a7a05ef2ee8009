// Ablation of the paper's core argument: what each layer achieves
// alone versus co-configured. At several lifetime points we compare:
//
//   baseline        ISPP-SV, ECC sized for SV          (reference)
//   ecc-only        ISPP-SV, ECC relaxed to DV sizing  (controller knob
//                   alone: read gain but the UBER target is violated)
//   physical-only   ISPP-DV, ECC kept at SV sizing     (device knob
//                   alone: UBER boost, no read gain)
//   cross-layer     ISPP-DV, ECC relaxed to DV sizing  (both: read gain
//                   at unchanged UBER)
//
// The table shows why neither single-layer move provides the paper's
// headline trade-off.
#include <iomanip>
#include <iostream>

#include "src/core/cross_layer.hpp"
#include "src/core/subsystem.hpp"
#include "src/util/series.hpp"

using namespace xlf;
using core::EccSchedule;
using core::OperatingPoint;
using nand::ProgramAlgorithm;

int main() {
  print_banner(std::cout, "Ablation",
               "Cross-layer vs single-layer configuration moves");

  const core::SubsystemConfig cfg = core::SubsystemConfig::defaults();
  const nand::NandTiming timing(cfg.device.timing, cfg.device.array.ispp,
                                cfg.device.array.plan,
                                cfg.device.array.variability,
                                cfg.device.array.aging);
  const core::CrossLayerFramework fw(cfg.controller, cfg.device.array.aging,
                                     timing, cfg.hv);

  const OperatingPoint ecc_only{"ecc-only", ProgramAlgorithm::kIsppSv,
                                EccSchedule::kTrackDv, 3};
  const OperatingPoint strategies[] = {
      OperatingPoint::baseline(), ecc_only, OperatingPoint::min_uber(),
      OperatingPoint::max_read()};

  const double uber_target = cfg.controller.reliability.uber_target;
  for (double cycles : {1e2, 1e5, 1e6}) {
    std::cout << "\n--- " << cycles << " P/E cycles ---\n";
    std::cout << std::left << std::setw(16) << "strategy" << std::setw(6)
              << "t" << std::setw(12) << "read MiB/s" << std::setw(12)
              << "write MiB/s" << std::setw(14) << "log10(UBER)"
              << std::setw(12) << "P_tot mW" << "meets 1e-11?\n";
    const core::Metrics base = fw.evaluate(OperatingPoint::baseline(), cycles);
    for (const OperatingPoint& point : strategies) {
      const core::Metrics m = fw.evaluate(point, cycles);
      std::cout << std::left << std::setw(16) << point.name << std::setw(6)
                << m.t << std::setw(12) << std::fixed << std::setprecision(2)
                << m.read_throughput.mib() << std::setw(12)
                << m.write_throughput.mib() << std::setw(14)
                << std::setprecision(2) << m.log10_uber << std::setw(12)
                << m.total_power().milliwatts()
                << (m.uber <= uber_target ? "yes" : "NO  <-- violated")
                << std::defaultfloat << '\n';
    }
    const core::Metrics cross = fw.evaluate(OperatingPoint::max_read(), cycles);
    std::cout << "cross-layer read gain vs baseline: "
              << core::compare(cross, base).read_throughput_gain_pct << "%\n";
  }

  std::cout << "\nconclusion: only the co-configuration reaches higher read "
               "throughput while holding the UBER target; the ECC knob alone "
               "breaks reliability, the device knob alone buys no speed\n";
  return 0;
}
