// Command/status register file of the memory controller (paper
// Fig. 1): the hardware-style face of the controller's configuration
// and status. The controller writes it; outside code reads it through
// MemoryController::registers(), which is const. The registers mirror
// the configuration (t, program algorithm), which changes only through
// MemoryController::set_correction_capability (rejecting a t outside
// the code family) and set_program_algorithm, and they carry the
// status bits and the reliability feedback counters. The raw bus view
// (read/write by RegisterId) models the register map itself.
#pragma once

#include <cstdint>

#include "src/nand/aging.hpp"

namespace xlf::controller {

enum class RegisterId : std::uint32_t {
  kControl = 0x00,        // bit0: controller enable
  kEccCapability = 0x04,  // correction capability t
  kProgramAlgo = 0x08,    // 0 = ISPP-SV, 1 = ISPP-DV
  kStatus = 0x0C,         // bit0: busy, bit1: last op error
  kCorrectedBits = 0x10,  // running corrected-bit counter
  kDecodedPages = 0x14,   // running decoded-page counter
  kUncorrectable = 0x18,  // running uncorrectable-page counter
};

class RegisterFile {
 public:
  RegisterFile();

  // Raw bus access (configuration commands from the interconnect).
  std::uint32_t read(RegisterId reg) const;
  void write(RegisterId reg, std::uint32_t value);

  // Typed views used by the core controller.
  bool enabled() const;
  unsigned ecc_capability() const;
  void set_ecc_capability(unsigned t);
  nand::ProgramAlgorithm program_algorithm() const;
  void set_program_algorithm(nand::ProgramAlgorithm algo);
  bool busy() const;
  void set_busy(bool busy);
  void set_error(bool error);

  // Reliability feedback counters (read by the reliability manager
  // and the host).
  void record_decode(unsigned corrected_bits, bool uncorrectable);
  std::uint32_t corrected_bits() const;
  std::uint32_t decoded_pages() const;
  std::uint32_t uncorrectable_pages() const;
  void clear_counters();

 private:
  std::uint32_t control_ = 1;
  std::uint32_t ecc_capability_ = 3;
  std::uint32_t program_algo_ = 0;
  std::uint32_t status_ = 0;
  std::uint32_t corrected_bits_ = 0;
  std::uint32_t decoded_pages_ = 0;
  std::uint32_t uncorrectable_ = 0;
};

}  // namespace xlf::controller
