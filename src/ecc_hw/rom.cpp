#include "src/ecc_hw/rom.hpp"

#include "src/util/expect.hpp"

namespace xlf::ecc_hw {

ConfigRom::ConfigRom(const EccHwConfig& config) : config_(config) {
  config_.code.check();
  for (unsigned t = config_.code.t_min; t <= config_.code.t_max; ++t) {
    RomEntry entry;
    entry.t = t;
    entry.generator_config_bits = config_.code.m * t;
    entry.syndrome_enable_bits = 2 * config_.code.t_max;
    entry.chien_start_bits = config_.code.m;
    entries_.push_back(entry);
  }
}

const RomEntry& ConfigRom::entry(unsigned t) const {
  XLF_EXPECT(config_.code.contains(t));
  return entries_.at(t - config_.code.t_min);
}

std::uint64_t ConfigRom::total_bits() const {
  std::uint64_t bits = 0;
  for (const RomEntry& e : entries_) {
    bits += e.generator_config_bits + e.syndrome_enable_bits +
            e.chien_start_bits;
  }
  return bits;
}

double ConfigRom::total_kib() const {
  return static_cast<double>(total_bits()) / 8.0 / 1024.0;
}

std::uint32_t ConfigRom::chien_start_index(unsigned t) const {
  XLF_EXPECT(config_.code.contains(t));
  const auto params = config_.code.at(t);
  return params.natural_length() - params.n();
}

}  // namespace xlf::ecc_hw
