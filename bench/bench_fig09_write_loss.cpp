// Figure 9: write-throughput penalty of the cross-layer configuration
// (ISPP-DV) against the ISPP-SV baseline over the lifetime. The
// program time dominates the write path (~1.5 ms vs ~51 us encode),
// so the loss tracks the DV/SV program-time ratio: ~40% on average,
// growing toward the end of life.
#include <iostream>

#include "src/core/cross_layer.hpp"
#include "src/core/subsystem.hpp"
#include "src/util/series.hpp"
#include "src/util/stats.hpp"

using namespace xlf;

int main() {
  print_banner(std::cout, "Figure 9",
               "Write throughput penalty of the cross-layer configuration");

  const core::SubsystemConfig cfg = core::SubsystemConfig::defaults();
  const nand::NandTiming timing(cfg.device.timing, cfg.device.array.ispp,
                                cfg.device.array.plan,
                                cfg.device.array.variability,
                                cfg.device.array.aging);
  const core::CrossLayerFramework fw(cfg.controller, cfg.device.array.aging,
                                     timing, cfg.hv);

  SeriesTable table("PE_cycles");
  table.add_series("write_loss_pct");
  table.add_series("SV_write_MiBps");
  table.add_series("DV_write_MiBps");
  table.add_series("SV_program_ms");
  table.add_series("DV_program_ms");

  double loss_sum = 0.0;
  std::size_t points = 0;
  for (double cycles : log_space(1.0, 1e6, 13)) {
    const core::Metrics base =
        fw.evaluate(core::OperatingPoint::baseline(), cycles);
    const core::Metrics cross =
        fw.evaluate(core::OperatingPoint::max_read(), cycles);
    const double loss =
        core::compare(cross, base).write_throughput_loss_pct;
    loss_sum += loss;
    ++points;
    table.add_row(
        cycles,
        {loss, base.write_throughput.mib(), cross.write_throughput.mib(),
         timing.program_time(nand::ProgramAlgorithm::kIsppSv, cycles).millis(),
         timing.program_time(nand::ProgramAlgorithm::kIsppDv, cycles).millis()});
  }

  table.print(std::cout, /*scientific=*/false);
  table.write_csv("fig09_write_loss.csv");
  std::cout << "\nmean loss over lifetime: " << loss_sum / points
            << "% (paper: ~40% average, 40-48% over life)\n";
  return 0;
}
