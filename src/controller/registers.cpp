#include "src/controller/registers.hpp"

#include "src/util/expect.hpp"

namespace xlf::controller {

RegisterFile::RegisterFile() = default;

std::uint32_t RegisterFile::read(RegisterId reg) const {
  switch (reg) {
    case RegisterId::kControl: return control_;
    case RegisterId::kEccCapability: return ecc_capability_;
    case RegisterId::kProgramAlgo: return program_algo_;
    case RegisterId::kStatus: return status_;
    case RegisterId::kCorrectedBits: return corrected_bits_;
    case RegisterId::kDecodedPages: return decoded_pages_;
    case RegisterId::kUncorrectable: return uncorrectable_;
  }
  XLF_EXPECT(false && "unknown register");
  return 0;
}

void RegisterFile::write(RegisterId reg, std::uint32_t value) {
  switch (reg) {
    case RegisterId::kControl:
      control_ = value;
      return;
    case RegisterId::kEccCapability:
      XLF_EXPECT(value >= 1);
      ecc_capability_ = value;
      return;
    case RegisterId::kProgramAlgo:
      XLF_EXPECT(value <= 1);
      program_algo_ = value;
      return;
    case RegisterId::kStatus:
    case RegisterId::kCorrectedBits:
    case RegisterId::kDecodedPages:
    case RegisterId::kUncorrectable:
      XLF_EXPECT(false && "read-only register");
      return;
  }
  XLF_EXPECT(false && "unknown register");
}

bool RegisterFile::enabled() const { return (control_ & 1u) != 0; }

unsigned RegisterFile::ecc_capability() const { return ecc_capability_; }

void RegisterFile::set_ecc_capability(unsigned t) {
  XLF_EXPECT(t >= 1);
  ecc_capability_ = t;
}

nand::ProgramAlgorithm RegisterFile::program_algorithm() const {
  return program_algo_ == 0 ? nand::ProgramAlgorithm::kIsppSv
                            : nand::ProgramAlgorithm::kIsppDv;
}

void RegisterFile::set_program_algorithm(nand::ProgramAlgorithm algo) {
  program_algo_ = algo == nand::ProgramAlgorithm::kIsppSv ? 0 : 1;
}

bool RegisterFile::busy() const { return (status_ & 1u) != 0; }

void RegisterFile::set_busy(bool busy) {
  status_ = (status_ & ~1u) | (busy ? 1u : 0u);
}

void RegisterFile::set_error(bool error) {
  status_ = (status_ & ~2u) | (error ? 2u : 0u);
}

void RegisterFile::record_decode(unsigned corrected_bits, bool uncorrectable) {
  corrected_bits_ += corrected_bits;
  ++decoded_pages_;
  if (uncorrectable) ++uncorrectable_;
}

std::uint32_t RegisterFile::corrected_bits() const { return corrected_bits_; }
std::uint32_t RegisterFile::decoded_pages() const { return decoded_pages_; }
std::uint32_t RegisterFile::uncorrectable_pages() const { return uncorrectable_; }

void RegisterFile::clear_counters() {
  corrected_bits_ = 0;
  decoded_pages_ = 0;
  uncorrectable_ = 0;
}

}  // namespace xlf::controller
