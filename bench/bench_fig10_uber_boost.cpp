// Figure 10: UBER improvement of the physical-layer modification —
// switch the device to ISPP-DV while the ECC keeps the schedule sized
// for ISPP-SV (the MinUber operating point, Section 6.3.1). The
// nominal series rides just under the 1e-11 target; the modified
// series falls away as the 10x RBER margin multiplies through
// Eq. (1)'s RBER^(t+1).
//
// Reproduction note (documented in EXPERIMENTS.md): the paper's text
// quotes a "2..4 orders of magnitude" boost while its own Fig. 10
// axis spans 1e-9..1e-21; Eq. (1) gives a 10^(t+1)-fold ratio for a
// 10x RBER cut at fixed t, which at end of life (t = 65) is far
// larger than either. We print the exact Eq.-(1) values in log10.
#include <iostream>

#include "src/core/cross_layer.hpp"
#include "src/core/subsystem.hpp"
#include "src/util/series.hpp"
#include "src/util/stats.hpp"

using namespace xlf;

int main() {
  print_banner(std::cout, "Figure 10",
               "UBER improvement from the physical-layer modification "
               "(ISPP-DV at the SV ECC schedule)");

  const core::SubsystemConfig cfg = core::SubsystemConfig::defaults();
  const nand::NandTiming timing(cfg.device.timing, cfg.device.array.ispp,
                                cfg.device.array.plan,
                                cfg.device.array.variability,
                                cfg.device.array.aging);
  const core::CrossLayerFramework fw(cfg.controller, cfg.device.array.aging,
                                     timing, cfg.hv);

  SeriesTable table("PE_cycles");
  table.add_series("log10_UBER_nominal");
  table.add_series("log10_UBER_physmod");
  table.add_series("boost_orders");
  table.add_series("t_used");

  for (double cycles : log_space(1.0, 1e6, 13)) {
    const core::Metrics nominal =
        fw.evaluate(core::OperatingPoint::baseline(), cycles);
    const core::Metrics modified =
        fw.evaluate(core::OperatingPoint::min_uber(), cycles);
    table.add_row(cycles, {nominal.log10_uber, modified.log10_uber,
                           nominal.log10_uber - modified.log10_uber,
                           static_cast<double>(nominal.t)});
  }

  table.print(std::cout, /*scientific=*/false);
  table.write_csv("fig10_uber_boost.csv");
  std::cout << "\nnominal stays at/below the 1e-11 target; the modified "
               "point gains 10^(t+1)-fold margin, growing with memory age\n";
  return 0;
}
