// Figure 11: read-throughput gain of the cross-layer optimisation
// (MaxRead: ISPP-DV + ECC relaxed to the DV schedule at unchanged
// UBER target). Read service time = 75 us page read + worst-case
// decode; the gain follows the decode-latency headroom and peaks at
// the end of life (~30% in the paper).
#include <iostream>

#include "src/core/cross_layer.hpp"
#include "src/core/subsystem.hpp"
#include "src/util/series.hpp"
#include "src/util/stats.hpp"

using namespace xlf;

int main() {
  print_banner(std::cout, "Figure 11",
               "Read throughput gain from the cross-layer optimization");

  const core::SubsystemConfig cfg = core::SubsystemConfig::defaults();
  const nand::NandTiming timing(cfg.device.timing, cfg.device.array.ispp,
                                cfg.device.array.plan,
                                cfg.device.array.variability,
                                cfg.device.array.aging);
  const core::CrossLayerFramework fw(cfg.controller, cfg.device.array.aging,
                                     timing, cfg.hv);

  SeriesTable table("PE_cycles");
  table.add_series("read_gain_pct");
  table.add_series("baseline_read_MiBps");
  table.add_series("maxread_read_MiBps");
  table.add_series("t_SV");
  table.add_series("t_DV");
  table.add_series("log10_UBER_maxread");

  for (double cycles : log_space(1.0, 1e6, 13)) {
    const core::Metrics base =
        fw.evaluate(core::OperatingPoint::baseline(), cycles);
    const core::Metrics maxread =
        fw.evaluate(core::OperatingPoint::max_read(), cycles);
    table.add_row(cycles,
                  {core::compare(maxread, base).read_throughput_gain_pct,
                   base.read_throughput.mib(), maxread.read_throughput.mib(),
                   static_cast<double>(base.t),
                   static_cast<double>(maxread.t), maxread.log10_uber});
  }

  table.print(std::cout, /*scientific=*/false);
  table.write_csv("fig11_read_gain.csv");
  std::cout << "\npaper: gain rises from ~0% to ~30% at end of life while "
               "UBER stays at the 1e-11 target\n";
  return 0;
}
