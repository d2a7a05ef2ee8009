#include "src/nand/device.hpp"

#include <algorithm>
#include <sstream>

#include "src/util/expect.hpp"

namespace xlf::nand {

NandDevice::NandDevice(const DeviceConfig& config)
    : NandDevice(config, std::make_shared<const NandTiming>(
                             config.timing, config.array.ispp,
                             config.array.plan, config.array.variability,
                             config.array.aging)) {}

NandDevice::NandDevice(const DeviceConfig& config,
                       std::shared_ptr<const NandTiming> timing)
    : config_(config),
      array_(config.data_plane ? std::make_unique<NandArray>(config.array)
                               : nullptr),
      timing_(std::move(timing)),
      resident_(config.available_algorithms),
      max_cycles_(config.array.aging.max_cycles()) {
  XLF_EXPECT(timing_ != nullptr);
  XLF_EXPECT(!resident_.empty());
  active_algorithm_ = resident_.front();
  const Geometry& g = geometry();
  XLF_EXPECT(g.blocks >= 1 && g.pages_per_block >= 1);
  oob_.assign(static_cast<std::size_t>(g.blocks) * g.pages_per_block,
              std::nullopt);
  ecc_t_.assign(oob_.size(), 0);
  erase_counts_.assign(g.blocks, 0);
  bad_.assign(g.blocks, 0);
  wear_.assign(g.blocks, 0.0);  // factory-fresh
  programmed_.assign(oob_.size(), 0);
}

NandArray& NandDevice::array() {
  XLF_EXPECT(array_ != nullptr && "metadata-only device has no cell array");
  return *array_;
}

const NandArray& NandDevice::array() const {
  XLF_EXPECT(array_ != nullptr && "metadata-only device has no cell array");
  return *array_;
}

std::size_t NandDevice::page_index(PageAddress addr) const {
  XLF_EXPECT(addr.block < geometry().blocks &&
             addr.page < geometry().pages_per_block);
  return static_cast<std::size_t>(addr.block) * geometry().pages_per_block +
         addr.page;
}

void NandDevice::select_program_algorithm(ProgramAlgorithm algo) {
  const bool available =
      std::find(resident_.begin(), resident_.end(), algo) != resident_.end();
  XLF_EXPECT(available && "algorithm not resident in the code store");
  active_algorithm_ = algo;
}

void NandDevice::upload_algorithm(ProgramAlgorithm algo) {
  XLF_EXPECT(config_.store == AlgorithmStore::kSram &&
             "code-ROM devices cannot accept microcode uploads");
  if (std::find(resident_.begin(), resident_.end(), algo) == resident_.end()) {
    resident_.push_back(algo);
  }
}

ReadOutcome NandDevice::read_page(PageAddress addr) const {
  XLF_EXPECT(array_ != nullptr && "metadata-only devices service reads from "
                                  "the controller's timing models");
  ReadOutcome outcome;
  outcome.data = array_->read_page(addr);
  outcome.busy_time = timing_->read_time();
  return outcome;
}

ProgramOutcome NandDevice::program_page(PageAddress addr, const BitVec& data,
                                        LoadStrategy strategy) {
  const std::size_t index = page_index(addr);
  XLF_EXPECT(!programmed_[index] &&
             "NAND constraint: program-after-erase only");
  programmed_[index] = 1;
  const double wear_now = wear_[addr.block];
  ProgramOutcome outcome;
  // Metadata-only devices place no cells; both modes take the
  // characterised service time.
  if (array_ != nullptr) {
    outcome.ok =
        array_->program_page(addr, data, active_algorithm_, wear_now).ok;
  }
  outcome.busy_time = timing_->page_write_time(
      active_algorithm_, wear_now, geometry().bits_per_page() / 8, strategy);
  return outcome;
}

EraseOutcome NandDevice::erase_block(std::uint32_t block) {
  XLF_EXPECT(block < geometry().blocks);
  XLF_EXPECT(!bad_[block] && "erasing a retired (grown-bad) block");
  // Each erase counts one cycle, checked first, so a rejected erase
  // changes nothing (the array checks its own).
  if (array_ != nullptr) {
    array_->erase_block(block, wear_[block] + 1.0);
  } else {
    check_wear(block, wear_[block] + 1.0);
  }
  wear_[block] += 1.0;
  // The spare area is erased with the data, and the durable erase
  // counter advances — this pair is what rebuild reads at mount.
  const std::size_t base =
      static_cast<std::size_t>(block) * geometry().pages_per_block;
  for (std::uint32_t p = 0; p < geometry().pages_per_block; ++p) {
    oob_[base + p].reset();
    ecc_t_[base + p] = 0;
    programmed_[base + p] = 0;
  }
  ++erase_counts_[block];
  return EraseOutcome{timing_->erase_time()};
}

void NandDevice::write_oob(PageAddress addr, const OobRecord& record) {
  const std::size_t index = page_index(addr);
  XLF_EXPECT(!bad_[addr.block] && "programming a retired block's spare area");
  XLF_EXPECT(!oob_[index].has_value() &&
             "spare area already programmed (program without erase)");
  oob_[index] = record;
}

const std::optional<OobRecord>& NandDevice::oob(PageAddress addr) const {
  return oob_[page_index(addr)];
}

void NandDevice::write_ecc_t(PageAddress addr, std::uint8_t t) {
  const std::size_t index = page_index(addr);
  XLF_EXPECT(programmed_[index] && "the t byte rides the page's program");
  ecc_t_[index] = t;
}

unsigned NandDevice::ecc_t(PageAddress addr) const {
  return ecc_t_[page_index(addr)];
}

void NandDevice::mark_bad(std::uint32_t block) {
  XLF_EXPECT(block < geometry().blocks);
  bad_[block] = 1;
}

bool NandDevice::is_bad(std::uint32_t block) const {
  XLF_EXPECT(block < geometry().blocks);
  return bad_[block] != 0;
}

std::uint32_t NandDevice::erase_count(std::uint32_t block) const {
  XLF_EXPECT(block < geometry().blocks);
  return erase_counts_[block];
}

bool NandDevice::page_programmed(PageAddress addr) const {
  return programmed_[page_index(addr)] != 0;
}

double NandDevice::wear(std::uint32_t block) const {
  XLF_EXPECT(block < geometry().blocks);
  return wear_[block];
}

void NandDevice::set_wear(std::uint32_t block, double cycles) {
  XLF_EXPECT(block < geometry().blocks);
  check_wear(block, cycles);
  wear_[block] = cycles;
}

void NandDevice::check_wear(std::uint32_t block, double cycles) const {
  if (array_ != nullptr) {
    array_->check_wear(block, cycles);
    return;
  }
  XLF_EXPECT(cycles >= 0.0);
  XLF_EXPECT_MSG(cycles < max_cycles_, [&] {
    std::ostringstream msg;
    msg << "metadata-only block " << block << " would reach " << cycles
        << " P/E cycles, at or past the aging law's limit of " << max_cycles_
        << " (past it the raw bit error rate reaches 1, where the UBER "
           "arithmetic that selects t ends)";
    return msg.str();
  }());
}

void NandDevice::set_uniform_wear(double cycles) {
  for (std::uint32_t b = 0; b < geometry().blocks; ++b) {
    set_wear(b, cycles);
  }
}

std::size_t NandDevice::code_store_bytes() const {
  return config_.base_microcode_bytes +
         resident_.size() * config_.bytes_per_algorithm;
}

}  // namespace xlf::nand
