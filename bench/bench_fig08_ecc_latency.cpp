// Figure 8: ECC encoding/decoding latency over the device lifetime
// for both program algorithms at 80 MHz. Encoding is t-independent
// (~51 us); ISPP-SV decoding climbs as the reliability manager raises
// t toward 65 (~159 us at end of life) while ISPP-DV decoding stays
// nearly flat — the latency headroom that becomes Fig. 11's read gain.
#include <iostream>

#include "src/core/cross_layer.hpp"
#include "src/core/subsystem.hpp"
#include "src/util/series.hpp"
#include "src/util/stats.hpp"

using namespace xlf;
using nand::ProgramAlgorithm;

int main() {
  print_banner(std::cout, "Figure 8",
               "ECC encoding/decoding latency vs ISPP algorithm and lifetime "
               "(80 MHz)");

  const core::SubsystemConfig cfg = core::SubsystemConfig::defaults();
  const nand::NandTiming timing(cfg.device.timing, cfg.device.array.ispp,
                                cfg.device.array.plan,
                                cfg.device.array.variability,
                                cfg.device.array.aging);
  const core::CrossLayerFramework fw(cfg.controller, cfg.device.array.aging,
                                     timing, cfg.hv);

  SeriesTable table("PE_cycles");
  table.add_series("SV_encode_us");
  table.add_series("DV_encode_us");
  table.add_series("SV_decode_us");
  table.add_series("DV_decode_us");
  table.add_series("t_SV");
  table.add_series("t_DV");

  for (double cycles : log_space(1.0, 1e6, 13)) {
    const unsigned t_sv = fw.scheduled_t(ProgramAlgorithm::kIsppSv, cycles);
    const unsigned t_dv = fw.scheduled_t(ProgramAlgorithm::kIsppDv, cycles);
    const double encode = fw.latency_model().encode_latency().micros();
    table.add_row(cycles, {encode, encode,
                           fw.latency_model().decode_latency(t_sv).micros(),
                           fw.latency_model().decode_latency(t_dv).micros(),
                           static_cast<double>(t_sv),
                           static_cast<double>(t_dv)});
  }

  table.print(std::cout, /*scientific=*/false);
  table.write_csv("fig08_ecc_latency.csv");
  std::cout << "\npaper envelope: 40-160 us at 80 MHz; decode ~150 us vs "
               "75 us page read at end of life\n";
  return 0;
}
