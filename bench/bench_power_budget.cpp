// Section 6.3.2 power-budget claim: at the MaxRead point the NAND's
// extra ISPP-DV power (~7.5 mW) is compensated by the relaxed ECC
// (from ~7 mW at t=65 toward ~1 mW), keeping the memory power budget
// roughly constant. This bench prints the end-of-life budget table
// and the same decomposition at mid-life.
#include <iostream>

#include "src/core/cross_layer.hpp"
#include "src/core/subsystem.hpp"
#include "src/util/series.hpp"

using namespace xlf;

int main() {
  print_banner(std::cout, "Section 6.3.2",
               "Power budget: NAND penalty vs ECC relaxation");

  const core::SubsystemConfig cfg = core::SubsystemConfig::defaults();
  const nand::NandTiming timing(cfg.device.timing, cfg.device.array.ispp,
                                cfg.device.array.plan,
                                cfg.device.array.variability,
                                cfg.device.array.aging);
  const core::CrossLayerFramework fw(cfg.controller, cfg.device.array.aging,
                                     timing, cfg.hv);

  SeriesTable table("PE_cycles");
  table.add_series("P_nand_SV_mW");
  table.add_series("P_nand_DV_mW");
  table.add_series("P_ecc_baseline_mW");
  table.add_series("P_ecc_maxread_mW");
  table.add_series("total_baseline_mW");
  table.add_series("total_maxread_mW");
  table.add_series("delta_mW");

  for (double cycles : {1e2, 1e4, 1e5, 1e6}) {
    const core::Metrics base =
        fw.evaluate(core::OperatingPoint::baseline(), cycles);
    const core::Metrics maxread =
        fw.evaluate(core::OperatingPoint::max_read(), cycles);
    table.add_row(
        cycles,
        {base.nand_program_power.milliwatts(),
         maxread.nand_program_power.milliwatts(),
         base.ecc_decode_power.milliwatts(),
         maxread.ecc_decode_power.milliwatts(),
         base.total_power().milliwatts(), maxread.total_power().milliwatts(),
         (maxread.total_power() - base.total_power()).milliwatts()});
  }

  table.print(std::cout, /*scientific=*/false);
  table.write_csv("power_budget.csv");
  std::cout << "\npaper: ECC relaxes from ~7 mW to ~1 mW at end of life, "
               "offsetting the ~7.5 mW ISPP-DV penalty\n";
  return 0;
}
