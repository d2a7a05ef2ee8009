// Section 6.4 implementation complexity: the cost of runtime
// selectability. On the device side, the second programming algorithm
// only grows the embedded code ROM (or moves it to a controller-
// written SRAM); on the controller side, the adaptive codec carries a
// per-capability configuration ROM and worst-case-sized hardware.
#include <iostream>

#include "src/core/subsystem.hpp"
#include "src/ecc_hw/area.hpp"
#include "src/ecc_hw/rom.hpp"
#include "src/nand/device.hpp"
#include "src/util/series.hpp"

using namespace xlf;

int main() {
  print_banner(std::cout, "Section 6.4",
               "Implementation complexity of runtime selectability");

  // --- NAND code store -------------------------------------------------
  core::SubsystemConfig cfg = core::SubsystemConfig::defaults();

  nand::DeviceConfig single = cfg.device;
  single.available_algorithms = {nand::ProgramAlgorithm::kIsppSv};
  const nand::NandDevice fixed_device(single);

  const nand::NandDevice dual_device(cfg.device);

  nand::DeviceConfig sram = cfg.device;
  sram.store = nand::AlgorithmStore::kSram;
  sram.available_algorithms = {nand::ProgramAlgorithm::kIsppSv};
  nand::NandDevice sram_device(sram);
  sram_device.upload_algorithm(nand::ProgramAlgorithm::kIsppDv);

  std::cout << "NAND code store:\n"
            << "  fixed single-algorithm ROM : "
            << fixed_device.code_store_bytes() << " bytes\n"
            << "  dual-algorithm ROM         : "
            << dual_device.code_store_bytes() << " bytes (+"
            << dual_device.code_store_bytes() - fixed_device.code_store_bytes()
            << " bytes, "
            << 100.0 *
                   (static_cast<double>(dual_device.code_store_bytes()) /
                        fixed_device.code_store_bytes() -
                    1.0)
            << "% growth)\n"
            << "  SRAM store after upload    : "
            << sram_device.code_store_bytes() << " bytes ("
            << sram_device.algorithms_resident() << " algorithms resident)\n\n";

  // --- adaptive codec hardware ----------------------------------------
  const ecc_hw::EccHwConfig hw = cfg.controller.ecc_hw;
  const ecc_hw::AreaModel area(hw);
  const ecc_hw::ConfigRom rom(hw);
  const ecc_hw::AreaBreakdown breakdown = area.breakdown();

  std::cout << "Adaptive BCH codec (t = " << hw.code.t_min << ".."
            << hw.code.t_max
            << ", p = " << hw.lfsr_parallelism
            << ", h = " << hw.chien_parallelism << "):\n"
            << "  encoder           : " << breakdown.encoder_ge << " GE\n"
            << "  syndrome block    : " << breakdown.syndrome_ge << " GE\n"
            << "  Berlekamp-Massey  : " << breakdown.berlekamp_massey_ge
            << " GE\n"
            << "  Chien search      : " << breakdown.chien_ge << " GE\n"
            << "  control           : " << breakdown.control_ge << " GE\n"
            << "  total             : " << area.total_ge() << " GE ("
            << area.area_mm2() << " mm^2 at 45 nm)\n"
            << "  config ROM        : " << rom.total_bits() << " bits ("
            << rom.total_kib() << " KiB) across " << rom.entries().size()
            << " capabilities\n"
            << "  Chien start index at t=65: " << rom.chien_start_index(65)
            << " (shortened-code skip)\n";
  return 0;
}
