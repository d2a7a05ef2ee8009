// The memory controller of paper Fig. 1: OCP socket toward the
// interconnect, page buffer, adaptive ECC unit, reliability manager,
// and the NAND device interface. Every page write and read flows
// through the pipeline and returns latency + energy accounting, which
// is what the throughput figures integrate. The socket and the buffer
// hold no state: each is a stage cost, a burst over the socket and a
// stream through the buffer's SRAM (controller.cpp).
//
// Per-page metadata: a page is decoded with the correction capability
// it was encoded with, so the controller writes the t into the page's
// spare area with the program (NandDevice::write_ecc_t) and reads it
// back before decoding. A bit-true read decodes against the array's
// written bits as the reference, whose error positions spare the
// decoder its Chien sweep (same result; see bch::Decoder).
#pragma once

#include <cstdint>

#include "src/controller/ecc_unit.hpp"
#include "src/controller/reliability_manager.hpp"
#include "src/hv/power_model.hpp"
#include "src/nand/device.hpp"

namespace xlf::controller {

struct ControllerConfig {
  // Codec hardware (p = h = 8, 80 MHz) and the code family it serves
  // (GF(2^16), 4 KB, t 3..65; the codec starts at t_min). With
  // reliability.uber_target, the die's whole ECC envelope.
  ecc_hw::EccHwConfig ecc_hw;
  ReliabilityConfig reliability;
  // Reliability-manager tuning strategy (static, model_based or
  // feedback).
  policy::Tuning tuning_policy = policy::Tuning::kModelBased;
};

struct WriteResult {
  bool ok = true;
  Seconds latency{0.0};       // host-visible busy time
  // Portion of `latency` spent bursting data over the shared host
  // interconnect (OCP + page-buffer load). In a multi-die SSD this
  // share contends on the channel while the rest (encode + program)
  // overlaps across dies on the same channel.
  Seconds io_latency{0.0};
  Joules ecc_energy{0.0};
  Joules nand_energy{0.0};
  unsigned t_used = 0;
};

struct ReadResult {
  bool ok = true;
  BitVec data;
  Seconds latency{0.0};
  // Channel share of `latency` (the outbound OCP burst); see
  // WriteResult::io_latency.
  Seconds io_latency{0.0};
  Joules ecc_energy{0.0};
  Joules nand_energy{0.0};
  unsigned corrected_bits = 0;
  bool uncorrectable = false;
};

class MemoryController {
 public:
  MemoryController(const ControllerConfig& config, nand::NandDevice& device,
                   const hv::HvConfig& hv_config);

  // --- configuration plane (the two cross-layer knobs) ---------------
  // t lives in the ECC unit (which rejects a t outside the code
  // family) and the program algorithm on the device; nothing else
  // holds either.
  void set_correction_capability(unsigned t);
  unsigned correction_capability() const;
  void set_program_algorithm(nand::ProgramAlgorithm algo);
  nand::ProgramAlgorithm program_algorithm() const;
  // Let the reliability manager reconfigure t for the given wear
  // state (call on epoch boundaries or after feedback warm-up).
  unsigned adapt_ecc(double pe_cycles);

  ReliabilityManager& reliability() { return reliability_; }
  EccUnit& ecc() { return ecc_; }
  nand::NandDevice& device() { return *device_; }
  const nand::NandDevice& device() const { return *device_; }

  // --- data plane -----------------------------------------------------
  // Write 4 KB of user data to a page: OCP burst -> page buffer -> ECC
  // encode -> NAND program. Both data planes cost the same stages; a
  // metadata-only device (DeviceConfig::data_plane == false) takes
  // the encode from the models and programs no bits, so its `data` may
  // be empty.
  WriteResult write_page(nand::PageAddress addr, const BitVec& data);
  // Read it back: NAND read -> ECC decode (+ feedback) -> OCP burst.
  // Rejects pages with no t byte (unwritten, erased, or programmed
  // past the controller) and out-of-range addresses.
  // On a metadata-only device the result carries no payload.
  ReadResult read_page(nand::PageAddress addr);
  Seconds erase_block(std::uint32_t block);

  // Worst-case (errors-present) read/write service times at the
  // current configuration — the paper's throughput convention.
  Seconds worst_case_read_latency() const;
  Seconds write_latency(double pe_cycles) const;

 private:
  // Metadata-only read service: sensing time and the worst-case decode
  // at the page's written t, with a clean outcome and no payload.
  ReadResult read_page_meta(unsigned t);

  ControllerConfig config_;
  nand::NandDevice* device_;
  EccUnit ecc_;
  ReliabilityManager reliability_;
  hv::NandPowerModel nand_power_;
};

}  // namespace xlf::controller
